"""The incomplete gamma pair of ``mpdesign._special`` against mpmath, and
its transcriptions of NumPy against NumPy.

``_gamma_tail`` computes one tail of P(a, x) + Q(a, x) = 1 and takes the
other as 1 minus it; which one depends on where (a, x) lies relative to the
branch points x = 1.1, a + 1 and a + 1 + 8 sqrt(a). The grid puts x on both
sides of each, for a from 0.05 to 1e5. ``_pairwise_sum`` must give the bits
of ``np.add.reduce``, on which the series' sums and with them every HPD end
were computed before the module dropped NumPy.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from mpdesign import _special
from mpdesign._special import _fraction_depth, _gamma_pdf, _gamma_tail, _pairwise_sum

A_GRID = (0.05, 0.3, 0.999, 1.0, 1.001, 2.5, 19.5, 20.0, 300.0, 2500.25, 1e4, 1e5)

# Relative error of the log of a computed tail, of its size or of 1 when
# that is smaller. Below a = 20 the log weight loses about a * 1e-16 to
# cancellation, and above a = 1 the series rounds a, which moves P by up to
# about sqrt(a) * 5e-17; both stay below 2.5e-14 on the grid.
TOL = 5e-14


def branch_neighbours(a):
    xs = set()
    for point in (1.1, a + 1.0, a + 1.0 + 8.0 * math.sqrt(a)):
        for factor in (0.5, 0.9, 1.0 - 2.0**-20, 1.0, 1.0 + 2.0**-20, 1.1):
            xs.add(point * factor)
    return sorted(xs)


def computed_directly(a, x, upper):
    """Whether ``_gamma_tail`` computes the tail asked for, by its docstring."""
    q_computed = x >= a + 1.0 + 8.0 * math.sqrt(a) or a <= 1.0 and (x >= 1.1 or upper)
    return q_computed == upper


def exact_tails(a, x):
    """(P, Q, log(x^a e^-x / Gamma(a))) at the working precision. mpmath's
    own series fails to converge on one side of the mean for large a, so
    each tail comes from the side where it converges and the other is 1
    minus it."""
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    log_weight = a * mpmath.log(x) - x - mpmath.loggamma(a)
    if x > a:
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return 1 - q, q, log_weight
    p = mpmath.gammainc(a, 0, x, regularized=True)
    return p, 1 - p, log_weight


@pytest.mark.parametrize("a", A_GRID)
def test_pair_matches_mpmath(a):
    for x in branch_neighbours(a):
        with mpmath.workdps(80):
            p_exact, q_exact, log_weight = exact_tails(a, x)
            for upper, tail_exact in ((False, p_exact), (True, q_exact)):
                tail, log_tail, slope = _gamma_tail(a, x, upper)
                log_exact = mpmath.log(tail_exact)
                where = (a, x, "Q" if upper else "P")
                if not (computed_directly(a, x, upper) or tail_exact >= 1 / 16):
                    # 1 minus a tail near 1: accurate to what that tail is
                    assert abs(tail - tail_exact) <= TOL, where
                    continue
                assert abs(log_tail - log_exact) <= TOL * max(1, abs(log_exact)), where
                # the slope is +-exp(log weight - log tail), where it is normal
                log_slope = log_weight - log_exact
                if log_slope > math.log(1e-300):
                    assert (slope < 0) == upper, where
                    assert abs(math.log(abs(slope)) - log_slope) <= TOL * max(1, abs(log_slope)), where
        p, q = _gamma_tail(a, x)[0], _gamma_tail(a, x, upper=True)[0]
        assert abs(p + q - 1.0) <= 4 * math.ulp(1.0), (a, x)


def test_upper_tail_is_zero_where_p_rounds_to_one():
    # just below a + 1 + 8 sqrt(a) the series' rounding of a takes P to 1
    a, x = 18777.52560158384, 19871.993968492938
    tail, log_tail, _ = _gamma_tail(a, x)
    assert (tail, log_tail) == (1.0, 0.0)
    assert _gamma_tail(a, x, upper=True) == (0.0, -math.inf, -math.inf)


def truncated_fraction(a, x, depth):
    """h of the Legendre continued fraction for Q, cut at ``depth`` levels, in mpmath."""
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    f = x + (2 * depth + 1) - a
    for k in range(depth, 0, -1):
        f = x + (2 * k - 1) - a - k * (k - a) / f
    return 1 / f


def fraction_domain():
    """Points where ``_gamma_tail`` evaluates the fraction, nearest its edges."""
    for a in (1e-3, 0.05, 0.3, 0.7, 1.0):
        for x in (1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 6.3, 6.5, 10.0, 30.0, 700.0, 1e5):
            yield a, x
    for a in (1.0 + 1e-7, 1.001, 1.5, 5.0, 19.9, 20.0, 1e3, 1e5, 1e8, 1e12):
        edge = a + 1.0 + 8.0 * math.sqrt(a)
        for factor in (1.0, 1.0 + 1e-9, 1.01, 1.5, 3.0):
            yield a, edge * factor


def test_fraction_depth_is_enough():
    with mpmath.workdps(40):
        for a, x in fraction_domain():
            depth = _fraction_depth(x)
            h = truncated_fraction(a, x, depth)
            doubled = truncated_fraction(a, x, 2 * depth)
            assert abs(doubled / h - 1) < 4e-16, (a, x, depth)


def sum_cases():
    """(name, sequence) pairs: every length up to 136, which takes in the
    pairwise sum's branch points at 8 and 128 terms and each remainder mod 8
    past them, the lengths about NumPy's 8192-element buffer, then random
    lengths up to 20,000, with terms of mixed signs and magnitudes so that
    the order of the additions shows in the last bits. Some are tuples, as
    ``DirichletParams.total`` passes its concentration, and some hold
    infinite or NaN terms at random places."""
    rng = random.Random(28)

    def terms(n):
        return [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.uniform(-8, 8)
                for _ in range(n)]

    for n in [*range(137), 8191, 8192, 8193]:
        yield f"n={n}", terms(n)
    for n in (5, 8, 9, 64, 128, 136, 300):
        yield f"tuple n={n}", tuple(terms(n))
    for n in (3, 8, 13, 127, 129, 1000):
        for bad in ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf]):
            values = terms(n)
            for i, x in zip(rng.sample(range(n), len(bad)), bad):
                values[i] = x
            yield f"n={n} with {bad}", values
    for j in range(200):
        n = rng.randint(1, 20_000)
        yield f"random{j} n={n}", terms(n)


def test_pairwise_sum_is_numpys():
    for name, values in sum_cases():
        with np.errstate(invalid="ignore"):  # inf - inf is NaN in both sums
            expected = float(np.add.reduce(np.array(values, dtype=np.float64)))
        assert _pairwise_sum(values).hex() == expected.hex(), name


@pytest.mark.parametrize("a", [1.5, 2500.25, 1e5, 3e5, 1e7])
def test_long_series_in_numpy_has_the_python_bits(a, monkeypatch):
    # past _LONG_SERIES terms the series is NumPy's; the tail must not
    # depend on which of the two sums it
    points = [a * f for f in (0.5, 0.99, 1.0, 1.01)] + [a + 1.0 + 7.9 * math.sqrt(a)]

    def tails(long_series):
        monkeypatch.setattr(_special, "_LONG_SERIES", long_series)
        return [_gamma_tail(a, x, upper) for x in points for upper in (False, True)]

    assert tails(0) == tails(math.inf)


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-315])
def test_gamma_density_past_the_largest_double_is_inf(x):
    # x^(shape - 1) for shape 1e-3 at a subnormal x is past 1e308: libm's
    # exp raises where NumPy's returned inf, and the density is inf
    assert _gamma_pdf([x, 1.0], 1e-3, 1.0)[0] == math.inf
