"""Special functions of the Gamma and Beta distributions, on ``math`` alone.

The cephes log-gamma that ``scipy.special.gammaln`` calls, the Gamma density
in the floating-point steps of ``scipy.stats.gamma.pdf``, one regularized
incomplete gamma pair P/Q (one series for P, one continued fraction for Q,
and cephes ``igamc_series`` for Q at small x and shape <= 1), and the
inverses that the HPD interval of ``mpdesign.posterior`` solves with.
For a up to 1e5 the log of a computed tail is within 5e-14 relative of
mpmath (of 1 where it is smaller), and the quantile puts P within 5e-15 of
the mass asked for. The Beta density, for the marginals of a Dirichlet, is
within 1.3e-15 relative of 40-digit mpmath for a from 0.05 to 500 and b
from 0.05 to 5000, where SciPy's is off by up to 5.4e-13. The densities
take and return lists. ``_pairwise_sum`` is NumPy's summation order for
``np.add.reduce`` and ``_linspace`` the steps of ``np.linspace``, so that
sums and grids keep the bits they had when they were NumPy's. The module
imports no other ``mpdesign`` module and no SciPy, and NumPy only for an
incomplete gamma series past ``_LONG_SERIES`` terms.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

# Steps allowed in each Newton or Halley loop of the HPD search and the
# quantile. From their starting points they converge in a handful: an HPD
# endpoint monotonically, in at most 5 steps for t between 1e-14 and 1e6.
_MAX_NEWTON = 100

_EPS = 2.0**-53  # unit roundoff of a double

# Terms past which ``_gamma_tail``'s series is NumPy's, imported then (shape
# past about 2e5); both sum to the same bits. Summed in Python at every
# length, one HPD interval at the shape bound of ``mpdesign.posterior`` took
# 0.71 s and 36 MB, against 27 ms and 18 MB; below this length an interval
# takes at most about 4 ms (near shape 1e5; 2-core Xeon).
_LONG_SERIES = 4096

# Coefficients of cephes ``lgam``, the log-gamma behind ``scipy.special.gammaln``:
# a rational approximation on [2, 3] (B over monic C) and the Stirling
# correction series in 1/x^2 (A).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_SQRT_2PI = math.sqrt(math.tau)
_SQRT_HALF = math.sqrt(0.5)


def _pairwise_sum(values, start: int = 0, count: int | None = None) -> float:
    """The sum of the floats ``values[start:start + count]`` (to the end by
    default) in the order of ``np.add.reduce`` on a contiguous float64 array,
    so with its bits: below 8 terms one by one from 0.0; up to 128, eight
    running sums, one per residue of the index mod 8, added pairwise, then
    the terms past the last multiple of 8 in order; above, the sums of two
    parts split at count / 2 rounded down to a multiple of 8.
    """
    if count is None:
        count = len(values) - start
    stop = start + count
    if count < 8:
        return reduce(add, values[start:stop], 0.0)
    if count <= 128:
        end = stop - count % 8
        rows = iter(values[start:end])
        r0, r1, r2, r3, r4, r5, r6, r7 = next(zip(*[rows] * 8))
        for x0, x1, x2, x3, x4, x5, x6, x7 in zip(*[rows] * 8):
            r0 += x0
            r1 += x1
            r2 += x2
            r3 += x3
            r4 += x4
            r5 += x5
            r6 += x6
            r7 += x7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[end:stop], total)
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, count - half)


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """``np.linspace(start, stop, points).tolist()`` for points >= 1, in its
    steps: i * step + start with step = (stop - start) / (points - 1), or
    (i / (points - 1)) * (stop - start) + start where that step underflows
    to 0, and the last point ``stop`` itself."""
    div = points - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step:
        grid = [i * step + start for i in range(div)]
    else:
        grid = [i / div * delta + start for i in range(div)]
    grid.append(stop)
    return grid


def _lgamma_2_3(x: float) -> float:
    """log Gamma(2 + x) for 0 <= x <= 1: cephes' rational approximation
    x * B(x) / C(x), in its order of operations."""
    num = _LGAM_B[0]
    for c in _LGAM_B[1:]:
        num = num * x + c
    den = x + _LGAM_C[0]
    for c in _LGAM_C[1:]:
        den = den * x + c
    return x * num / den


def _lgamma(x: float) -> float:
    """log Gamma(x) for finite x > 0, bit-identical to ``scipy.special.gammaln``.

    A line-by-line port of cephes ``lgam`` with the same branches and the same
    order of floating-point operations: below 13, shift x into [2, 3) by the
    recurrence and apply the rational approximation; above, Stirling's form
    with the correction series (two terms from 1000 on, none above 1e8).
    ``math.log`` is the C library ``log`` that cephes calls.
    """
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + _lgamma_2_3(x)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    s = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        s = s * p + c
    return q + s / x


def _lgamma1p(a: float) -> float:
    """log Gamma(1 + a) for 0 <= a <= 1, within 2.5e-16.

    Gamma(1 + a) = Gamma(2 + a) / (1 + a). Evaluated at a itself rather
    than at (1 + a) - 1, nothing of a small a is rounded away: for a up to
    0.1 the relative error stayed below 4e-16 against mpmath, where
    ``_lgamma(1 + a)`` is off by up to 1e-4 at a = 1e-12.
    """
    return _lgamma_2_3(a) - math.log1p(a)


def _log1pmx(t: float) -> float:
    """log(1 + t) - t for t > -1, to a few ulp also where it is tiny.

    For |t| < 1/2 it uses log(1 + t) = 2 atanh(s) with s = t / (2 + t), so the
    leading -t^2 / (2 + t) is formed directly instead of by cancellation.
    """
    if not -0.5 < t < 0.5:
        return math.log1p(t) - t
    s = t / (2.0 + t)
    s2 = s * s
    power, total, k = s2, 0.0, 3.0
    while True:
        term = power / k
        total += term
        if term <= _EPS * total:
            return 2.0 * s * total - t * t / (2.0 + t)
        power *= s2
        k += 2.0


def _log_gamma_weight(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)) for a > 0 and x > 0.

    For a >= 20 and x >= a / 2, this is a * log1pmx((x - a) / a) + log(a) / 2
    - log(sqrt(2 pi)) minus the Stirling correction of lgamma(a); the direct
    a * log(x) - x - lgamma(a) would lose about a * 1e-16 to cancellation.
    Below a / 2 the weight is below exp(-a / 7), so that loss does not show.
    """
    if a < 20.0 or x < 0.5 * a:
        return a * math.log(x) - x - _lgamma(a)
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a) - _LOG_SQRT_2PI - _stirling_correction(a)


def _stirling_correction(a: float) -> float:
    """log Gamma(a) - ((a - 1/2) log a - a + log sqrt(2 pi)) for a >= 20: six
    terms of Stirling's series in 1 / a. The first term left out is below
    1e-19 there."""
    r = 1.0 / (a * a)
    return (
        ((((-691.0 / 360360.0 * r + 1.0 / 1188.0) * r - 1.0 / 1680.0) * r + 1.0 / 1260.0) * r
         - 1.0 / 360.0) * r + 1.0 / 12.0
    ) / a


def _fraction_depth(x: float) -> int:
    """Levels of the continued fraction for Q at x: 128 / x + 4 suffice for
    a <= 1 from x = 1.1 on, and about 24 for a > 1 from x = a + 1 + 8 sqrt(a)
    on, whatever a is. With the larger, doubling the depth moves h by less
    than 4e-16 relative on the fraction's whole domain."""
    return max(int(128.0 / x) + 4, 24)


def _gamma_tail(a: float, x: float, upper: bool = False) -> tuple[float, float, float]:
    """(T, log T, d log T / d log x) for T = P(a, x), the regularized lower
    incomplete gamma, or for T = Q(a, x) = 1 - P(a, x) if ``upper``; a > 0, x > 0.

    One tail is computed, chosen by (a, x) and, where both have an accurate
    form, by the tail asked for; the other is 1 minus it, so accurate to an
    ulp of 1 rather than relative to itself:

    - Q for x >= a + 1 + 8 sqrt(a), and for a <= 1 from x = 1.1 on: the
      Legendre continued fraction Q = x^a e^-x / Gamma(a) * h, h = 1 / (x + 1
      - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...)), evaluated backward
      from ``_fraction_depth(x)`` levels so that rounding errors do not build
      up (for a <= 1 and x from 1.1 to 3 within 1e-15 of mpmath, where a
      forward, modified Lentz evaluation was off by 8e-15).
    - Q for a <= 1 at x < 1.1 when it is asked for: cephes ``igamc_series``
      (DLMF 8.7.3), which forms 1 - x^a / Gamma(a + 1) with ``expm1`` so that
      nothing cancels as x goes to 0.
    - P otherwise: x^a e^-x / Gamma(a + 1) * S, S = sum_n x^n / ((a+1)...(a+n)),
      to a tail below 1e-16 of S: the terms are a running product, summed by
      ``_pairwise_sum`` for a > 1 (by NumPy's own loops, to the same bits,
      past ``_LONG_SERIES`` terms) and in order from 1 for a <= 1. Near the
      mean the fraction would take O(sqrt(a)) steps as well; with
      ``_log_gamma_weight`` the series stays accurate above the mean too.
      For a > 1, a is first rounded
      to the spacing of the doubles near a + n, so that every a + k is exact:
      rounding each a + k would bias all n factors alike, by up to n * 1e-16,
      while rounding a moves P by at most about sqrt(a) * 5e-17. For a <= 1,
      where x < 1.1 needs few terms, each a + k is rounded on its own:
      rounding a would move a quantile with a near 0 by thousands of ulp.

    The slope is +-x^a e^-x / (Gamma(a) T) = +-exp(log weight - log T): a / S
    for the series and -1 / h for the fraction.
    """
    computed_upper = x >= a + 1.0 + 8.0 * math.sqrt(a) or a <= 1.0 and (x >= 1.1 or upper)
    if not computed_upper:
        # the terms peak near k = x - a and then fall by about e^-39 within
        # sqrt(78 x + (x - a)^2) more
        above = max(x - a, 0.0)
        n = int(above + math.sqrt(78.0 * x + above * above)) + 16
        while True:
            step = math.ulp(a + n)
            a_n = a if a <= 1.0 else round(a / step) * step
            if n > _LONG_SERIES and a > 1.0:
                import numpy as np

                terms = np.multiply.accumulate(x / (a_n + np.arange(1.0, n + 0.5)))
                total = 1.0 + float(np.add.reduce(terms))
            else:
                ratios = map(truediv, repeat(x), map(add, repeat(a_n), range(1, n + 1)))
                terms = list(accumulate(ratios, mul))  # x^k / ((a + 1)...(a + k))
                if a <= 1.0:
                    # from 1 on in order, as a scalar loop adds them: this keeps
                    # the last bits of the shape <= 1 quantiles of earlier versions
                    total = reduce(add, terms, 1.0)
                else:
                    total = 1.0 + _pairwise_sum(terms)
            # past n the factors x / (a + k) keep falling, so the tail is geometric
            r = x / (a_n + n + 1.0)
            if terms[-1] * r <= _EPS * total * (1.0 - r):
                break
            n *= 2
        if a <= 1.0:
            log_front = a * math.log(x) - x - _lgamma1p(a)  # log(x^a e^-x / Gamma(a + 1))
            tail = math.exp(log_front) * total
        else:
            log_weight = _log_gamma_weight(a_n, x)
            log_front = log_weight - math.log(a_n)
            # near x = a + 1 + 8 sqrt(a) the rounding of a can push P past 1
            tail = min(math.exp(log_weight) / a_n * total, 1.0)
        log_tail, rate = min(log_front + math.log(total), 0.0), a_n / total
    elif x >= 1.1:
        log_weight = _log_gamma_weight(a, x)
        n = _fraction_depth(x)
        f = x + (2 * n + 1) - a
        for k in range(n, 0, -1):
            f = x + (2 * k - 1) - a - k * (k - a) / f
        h = 1.0 / f
        tail, log_tail, rate = math.exp(log_weight) * h, log_weight + math.log(h), 1.0 / h
    else:
        fac, total, n = 1.0, 0.0, 1.0
        while True:
            fac *= -x / n
            term = fac / (a + n)
            total += term
            if abs(term) <= _EPS * abs(total):
                break
            n += 1.0
        log_xa = a * math.log(x)
        tail = -math.expm1(log_xa - _lgamma1p(a)) - math.exp(log_xa - _lgamma(a)) * total
        log_tail, rate = math.log(tail), math.exp(_log_gamma_weight(a, x)) / tail
    if computed_upper != upper:
        other = 1.0 - tail
        if other <= 0.0:  # the computed tail rounded to 1
            return 0.0, -math.inf, -math.inf if upper else math.inf
        tail, log_tail, rate = other, math.log1p(-tail), rate * tail / other
    return tail, log_tail, -rate if upper else rate


def _gammainc(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0 and finite x >= 0.

    Against ``scipy.special.gammainc`` the absolute difference stayed below
    2e-14 on 20,000 random points with a up to 1e5 and x within 8 standard
    deviations of a.
    """
    if x <= 0.0:
        return 0.0
    return _gamma_tail(a, x)[0]


def _erfinv(y: float) -> float:
    """erfinv(y) for 0 < y < 1.

    Winitzki's closed form (relative error below 2e-3), then two Newton steps
    on erf, or on erfc above 1/2 so that 1 - y does not cancel.
    """
    log_1m = math.log1p(-y) + math.log1p(y)  # log(1 - y^2)
    c = 2.0 / (math.pi * 0.147) + 0.5 * log_1m
    r = math.sqrt(math.sqrt(c * c - log_1m / 0.147) - c)
    for _ in range(2):
        slope = 2.0 / math.sqrt(math.pi) * math.exp(-r * r)
        if y > 0.5:
            r += (math.erfc(r) - (1.0 - y)) / slope
        else:
            r -= (math.erf(r) - y) / slope
    return r


def _gamma_quantile(a: float, mass: float) -> float:
    """x with P(a, x) = mass, for 0 < a <= 1 and 0 < mass < 1.

    Halley's method in log x on the log of the tail that is at most 1/2: P
    itself up to mass 1/2, Q = 1 - P (with 1 - mass exact) above. Both tails
    have the same simple first and second derivatives in log x, so a step
    costs one tail evaluation. It runs inside the bracket
    (mass * Gamma(a + 1))^(1/a) <= x <= -log(1 - mass), since P(a, x) is
    below x^a / Gamma(a + 1) and Gamma(a) lies stochastically below Exp(1);
    a step that would leave the bracket bisects it in log x instead. The
    lower tail starts from the bracket's lower end, which is the quantile's
    limit as x goes to 0; the upper tail from near where its far-out form
    x^(a - 1) e^-x / Gamma(a) equals 1 - mass. The loop ends after a step
    below 2^-17 in log x, after which the cubic convergence leaves an error
    far below an ulp. Two or three tail evaluations suffice for a from 0.05
    to 1 and mass from 0.01 to 0.999, and P at the result is within 5e-15 of
    ``mass``.
    """
    lo = math.exp((math.log(mass) + _lgamma1p(a)) / a)
    hi = -math.log1p(-mass)
    if lo == 0.0:  # the quantile underflows
        return 0.0
    lower = mass <= 0.5
    if lower:
        x, target = lo, math.log(mass)
    else:
        # one fixed-point step from hi towards x^(a - 1) e^-x / Gamma(a) = 1 - mass
        far = hi - _lgamma(a) + (a - 1.0) * math.log(hi)
        x, target = max(lo, min(far, hi)), math.log(1.0 - mass)
    for _ in range(_MAX_NEWTON):
        _, log_tail, slope = _gamma_tail(a, x, upper=not lower)
        excess = log_tail - target
        if excess == 0.0:
            return x
        if (excess < 0.0) == lower:
            lo = x
        else:
            hi = x
        step = excess / slope
        # Halley: the second derivative of either log tail in log x is
        # slope * (a - x - slope)
        step /= 1.0 - 0.5 * step * (a - x - slope)
        x_new = x * math.exp(-step)
        if abs(step) <= 2.0**-17:
            return x_new
        if not lo < x_new < hi:
            x_new = math.sqrt(lo) * math.sqrt(hi)
        if x_new == x:
            return x
        x = x_new
    raise RuntimeError(f"quantile search did not converge for shape {a} at mass {mass}")


def _gamma_pdf(x: list[float], shape: float, rate: float) -> list[float]:
    """Gamma(shape, rate) density at each point of the list ``x``, all >= 0.

    Takes the floating-point steps of ``scipy.stats.gamma.pdf``,
    exp(xlogy(shape - 1, y) - y - gammaln(shape)) / scale with y = x / scale,
    on the C library's ``log`` and ``exp`` through ``math``. ``xlogy`` is
    (shape - 1) log y, 0 when shape = 1; at y = 0 it is -inf for shape > 1
    and +inf for shape < 1. ``gammaln`` is ``_lgamma``. An exponent past the
    largest double gives inf, as in SciPy. The exponent is SciPy's to the
    bit, but SciPy takes NumPy's SIMD ``exp``: the exponential is within
    1 ulp of SciPy's, and the density is it over the scale, so it can lie
    2 ulp from SciPy's where that division rounds the two apart. It does not
    depend on NumPy's SIMD dispatch.
    """
    scale = 1.0 / rate
    log_norm = _lgamma(shape)
    out = []
    for xi in x:
        y = xi / scale
        if shape == 1.0:
            xlogy = 0.0
        else:
            xlogy = (shape - 1.0) * (math.log(y) if y != 0.0 else -math.inf)
        try:
            out.append(math.exp(xlogy - y - log_norm) / scale)
        except OverflowError:
            out.append(math.inf)
    return out


def _scaled_gamma(z: float) -> float:
    """Gamma(z) / (sqrt(2 pi) z^(z - 1/2) e^-z) for z > 0: the factor by which
    Stirling's formula falls short, exp(``_stirling_correction(z)``) from
    z = 20 on. Below, ``math.gamma`` over the formula: that is within 1e-15
    relative of mpmath for z from 0.01 to 20, where the exp of a log-gamma
    difference is off by up to 8e-15."""
    if z >= 20.0:
        return math.exp(_stirling_correction(z))
    return math.gamma(z) / (_SQRT_2PI * math.pow(z, z - 0.5) * math.exp(-z))


def _power_parts(base: float, num: int, den: int) -> tuple[float, int]:
    """base^(num / den) as (m, k) with value m * 2^k and 1/2 <= m < 1, for
    finite base > 0 and den a power of two; no part overflows or underflows.

    With base = f * 2^e and 1/sqrt(2) <= f < sqrt(2), the power is
    f^p * 2^(e p), p = num / den. The whole and fractional parts of e p come
    from integers, so 2^(e p) is exact but for one ``pow(2, fraction)``,
    however large e p is. f^p is one ``pow`` while it stays within 2^+-1000;
    beyond, it is f^(p / 2^h) squared h times, which multiplies its error by
    2^h (h = 2 for p = 5000 at the widest f).
    """
    f, e = math.frexp(base)
    if f < _SQRT_HALF:
        f, e = 2.0 * f, e - 1
    whole, rest = divmod(e * num, den)
    power = num / den
    reach = abs(power * math.log2(f))
    halvings = 0
    while reach > 1000.0:
        power *= 0.5
        reach *= 0.5
        halvings += 1
    part, k = math.frexp(math.pow(f, power))
    for _ in range(halvings):
        part, shift = math.frexp(part * part)
        k = 2 * k + shift
    m, shift = math.frexp(math.pow(2.0, rest / den) * part)
    return m, whole + k + shift


def _ratio_power(s: float, r: float) -> tuple[float, int]:
    """((s + r) / s)^s for s, r > 0 and the exact sum s + r, as (m, k) of
    ``_power_parts``. The ratio q rounds, and the power multiplies its error
    by s; so q^s is corrected by exp(s t), t = (s + r) / (q s) - 1 formed
    from integers."""
    (ns, ds), (nr, dr) = s.as_integer_ratio(), r.as_integer_ratio()
    q = (s + r) / s
    nq, dq = q.as_integer_ratio()
    t = ((ns * dr + nr * ds) * dq - dr * nq * ns) / (dr * nq * ns)
    m, k = _power_parts(q, ns, ds)
    return m * math.exp(s * t), k


def _beta_normalizer(a: float, b: float) -> tuple[float, int]:
    """1 / B(a, b) for a, b > 0 as (m, k), m * 2^k.

    Stirling's formula for each gamma function, made exact by G* =
    ``_scaled_gamma``: with c = a + b,

        1 / B(a, b) = G*(c) / (G*(a) G*(b)) * sqrt(ab / (2 pi c)) * (c/a)^a (c/b)^b,

    the powers from ``_ratio_power``. Against mpmath it was within 1.5e-15
    relative on 3,000 random (a, b) with a from 0.05 to 500 and b from 0.05
    to 5000.
    """
    c = a + b
    root = math.sqrt(a / c * b / math.tau)
    ma, ka = _ratio_power(a, b)
    mb, kb = _ratio_power(b, a)
    m, k = math.frexp(_scaled_gamma(c) / (_scaled_gamma(a) * _scaled_gamma(b)) * root * ma * mb)
    return m, k + ka + kb


# Largest |b - 1| for which the factor (1 + dy / y)^(b - 1) of ``_beta_pdf``,
# with |dy / y| <= 2^-53, stays within e^+-700.
_MAX_BETA_B1 = 700.0 * 2.0**53


def _beta_pdf(x: list[float], a: float, b: float) -> list[float]:
    """Beta(a, b) density at each point of the list ``x`` in [0, 1], for a, b > 0.

    x^(a - 1) (1 - x)^(b - 1) / B(a, b), one point at a time on ``math``:
    each power is ``_power_parts`` of the exact x or of y = 1 - x, and the
    rounding of y is put back by the factor (1 + dy / y)^(b - 1), where
    dy = (1 - y) - x is exact. The three parts are multiplied as mantissas
    and exponents and scaled once, so a density that is a double comes out
    right even where a power or 1 / B(a, b) is not: a subnormal x gives a
    finite density, or inf for a < 1 where the density passes the largest
    double. At x = 0 the density is inf for a < 1, b for a = 1 and 0 for
    a > 1, and the same at x = 1 with a and b swapped.

    Against 40-digit mpmath the relative error was at most 1.3e-15 on a
    501-point grid over 40 random shapes with a from 0.05 to 500 and b from
    0.05 to 5000 (SciPy's ``_beta_pdf``: 5.4e-13), and 7.7e-16 over the 16
    Beta marginals of ``replicate`` fig6 (SciPy: 5.9e-14), counting the
    points with density at least 1e-300.

    Shapes whose 1 / B(a, b) cannot be formed, such as a ratio (a + b) / a
    past the largest double or a shape below 1 / that double, raise a
    ``ValueError`` that names both. So does |b - 1| past 700 * 2^53 (about
    6.3e18): |dy / y| is at most 2^-53, so below that bound the correction
    factor lies within e^+-700, and above it the factor can overflow (or
    underflow where the density is still a double).
    """
    try:
        norm, norm_exp = _beta_normalizer(a, b)
    except OverflowError:
        norm = math.nan
    if not 0.5 <= norm < 1.0:  # the mantissa over- or underflowed on the way
        raise ValueError(
            f"Beta shapes a={a!r}, b={b!r} are out of range: 1/B(a, b) cannot be formed"
        )
    if abs(b - 1.0) > _MAX_BETA_B1:
        raise ValueError(
            f"Beta shapes a={a!r}, b={b!r} are out of range: (1 - x)^(b - 1) cannot "
            f"be formed for b past {_MAX_BETA_B1:.3g}"
        )
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    at_zero = math.inf if a < 1.0 else b if a == 1.0 else 0.0
    at_one = math.inf if b < 1.0 else a if b == 1.0 else 0.0
    out = []
    for xi in x:
        if xi == 0.0 or xi == 1.0:
            out.append(at_zero if xi == 0.0 else at_one)
            continue
        y = 1.0 - xi
        dy = (1.0 - y) - xi
        mx, kx = _power_parts(xi, na - da, da)
        my, ky = _power_parts(y, nb - db, db)
        value = norm * mx * my * math.exp((b - 1.0) * (dy / y))
        try:
            out.append(math.ldexp(value, norm_exp + kx + ky))
        except OverflowError:
            out.append(math.inf)
    return out
