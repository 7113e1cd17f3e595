"""Normalized budget model for the two-stage campaign.

All quantities are dimensionless ratios, so the design problem is invariant
to rescaling raw costs and budget by a common factor:

* ``budget_coefficient`` c -- fraction of the post-fixed-cost budget consumed
  by sampling one square meter of sediment (c = c_sample_per_m2 / budget).
* ``count_ratio`` r1 -- effort to count one particle under the microscope,
  relative to sampling 1 m^2.
* ``categorize_ratio`` r2 -- effort to categorize one particle by
  spectroscopy, relative to sampling 1 m^2.

The normalized cost of a design is c * (m*A + r1*n + r2*n_bar) and must not
exceed 1, where n_bar is the categorized count that :func:`budget_rule` returns.
``CostModel`` and the rule need only ``math``; the rule's array core
:func:`_categorized` works on the NumPy arrays it is given and imports
NumPy only when it is called, so reading a config or applying the rule loads
no NumPy.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from operator import mul

from ._record import Record

__all__ = [
    "CostModel",
    "categorization_fraction",
    "budget_rule",
]

# Relative slack when counting whole affordable quadrants: c = 1/(B*A) is
# rounded, so 1/(A*c) can land a few ulps below a whole budget B.
_QUADRANT_RTOL = 1e-13
# Guard band of the categorized count's runs (:func:`_categorized_runs`), as
# a share of W/r2 + n: some 6e5 times the rounding bound 14u * (W/r2 + n).
_RUN_GUARD = 1e-9
_TINY = sys.float_info.min  # the smallest normal float


class CostModel(Record):
    __slots__ = ("quadrant_area", "budget_coefficient", "count_ratio", "categorize_ratio")

    def __init__(
        self,
        quadrant_area: float,
        budget_coefficient: float,
        count_ratio: float,
        categorize_ratio: float,
    ):
        values = (quadrant_area, budget_coefficient, count_ratio, categorize_ratio)
        for name, value in zip(self.__slots__, values):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not quadrant_area > 0:
            raise ValueError(f"quadrant_area must be positive, got {quadrant_area!r}")
        if not budget_coefficient > 0:
            raise ValueError(f"budget_coefficient must be positive, got {budget_coefficient!r}")
        if count_ratio < 0:
            raise ValueError(f"count_ratio must be nonnegative, got {count_ratio!r}")
        if not categorize_ratio > 0:
            raise ValueError(f"categorize_ratio must be positive, got {categorize_ratio!r}")

    @property
    def budget_area(self) -> float:
        """Budget in square-meter equivalents, 1/c."""
        return 1.0 / self.budget_coefficient

    @property
    def max_quadrants(self) -> int:
        """Largest affordable quadrant count, floor(1/(A*c)) up to rounding of c."""
        ratio = 1.0 / (self.quadrant_area * self.budget_coefficient)
        return math.floor(ratio * (1.0 + _QUADRANT_RTOL))

    @classmethod
    def from_budget_quadrants(
        cls, quadrant_area: float, budget: float, count_ratio: float, categorize_ratio: float
    ) -> "CostModel":
        """Build from a budget given in quadrant equivalents (c = 1/(B*A))."""
        b, area = float(budget), float(quadrant_area)
        if not (b > 0 and math.isfinite(b)):
            raise ValueError(f"budget must be positive and finite, got {b}")
        if not (area > 0 and math.isfinite(area)):
            raise ValueError(f"quadrant_area must be positive and finite, got {area!r}")
        product = b * area
        if not (0.0 < product < math.inf and 1.0 / product < math.inf):
            raise ValueError(
                f"quadrant_area {area!r} times budget {b!r} is {product!r}, so the budget "
                "coefficient 1/(budget * quadrant_area) is not a positive finite number"
            )
        return cls(quadrant_area, 1.0 / product, count_ratio, categorize_ratio)

    @classmethod
    def from_raw_costs(
        cls,
        quadrant_area: float,
        sample_cost_per_m2: float,
        count_cost: float,
        categorize_cost: float,
        budget: float,
    ) -> "CostModel":
        """Build from raw per-unit costs and a total budget (any common currency).

        Only the ratios enter the model, so scaling all four raw figures by a
        common factor yields the same design problem.
        """
        if sample_cost_per_m2 <= 0 or budget <= 0:
            raise ValueError(
                f"sample_cost_per_m2 {sample_cost_per_m2!r} and budget {budget!r} must be positive"
            )
        return cls(
            quadrant_area,
            sample_cost_per_m2 / budget,
            count_cost / sample_cost_per_m2,
            categorize_cost / sample_cost_per_m2,
        )


def _spent(cost: CostModel, total_area: float, n: int, n_bar: int) -> float:
    """c * (mA + r1*n + r2*n_bar): the share of the budget a design spends."""
    return cost.budget_coefficient * (
        total_area + cost.count_ratio * n + cost.categorize_ratio * n_bar
    )


def categorization_fraction(cost: CostModel, total_area: float, n) -> float:
    """Budget-implied categorization fraction q in [0, 1] at one count: the
    q of :func:`budget_rule`, 1 at n = 0 by convention."""
    return budget_rule(cost, total_area, n)[0]


def budget_rule(cost: CostModel, total_area: float, n) -> tuple[float, int]:
    """Budget-implied fraction q (1 at n = 0 by convention: nothing to
    categorize) and categorized count n_bar at one count ``n``, an int, a
    float or a NumPy scalar, as a Python ``(float, int)`` computed without NumPy.

    The one source of n_bar, which its two cores form in the same steps:
    :func:`_categorized` on arrays and :func:`_categorized_list` on Python
    numbers, which the design walks, the budget split and the performance
    curve call directly. An array or a list of counts is refused by its
    type, and a NaN, infinite or negative area or count by name.
    """
    if not (isinstance(n, (int, float)) or getattr(n, "ndim", None) == 0):
        raise TypeError(f"n must be one count, got {type(n).__name__}")
    if not (total_area >= 0 and math.isfinite(total_area)):
        raise ValueError(f"total_area must be finite and >= 0, got {total_area!r}")
    if not (n >= 0 and math.isfinite(n)):
        raise ValueError(f"n must be finite and >= 0, got {n}")
    (q,), (n_bar,) = _categorized_list(cost, total_area, (float(n),))
    return q, n_bar


def _categorized(cost: CostModel, total_area: float, n, q, n_bar):
    """The budget rule in place for float counts ``n``, unchecked.

    Writes q = min(max(1/c - (mA + n*r1), 0) / (r2*max(n, 1)), 1) into
    ``q``, the same bits as clamping the quotient at 0, then
    n_bar = floor(n*q) into ``n_bar`` (which first holds r2*max(n, 1)), and
    returns ``n_bar``. The two buffers must be distinct and shaped like
    ``n``. At n = 0 this q is not the rule's 1, but n_bar = 0 either way.

    Past the largest float the rule saturates: n*r1 or r2*n overflows to
    inf, which leaves q = 0, and a quotient that overflows leaves q = 1, the
    limits of the exact rule. Callers turn NumPy's overflow warning off.
    """
    import numpy as np

    np.multiply(n, cost.count_ratio, out=q)
    np.add(q, total_area, out=q)
    np.subtract(cost.budget_area, q, out=q)
    np.maximum(q, 0.0, out=q)  # before the quotient, so that -inf/inf is no NaN
    np.maximum(n, 1.0, out=n_bar)
    np.multiply(n_bar, cost.categorize_ratio, out=n_bar)
    np.divide(q, n_bar, out=q)
    np.minimum(q, 1.0, out=q)
    np.multiply(n, q, out=n_bar)
    return np.floor(n_bar, out=n_bar)


def _fractions(cost: CostModel, total_area: float, counts) -> list[float]:
    """The q of :func:`_categorized` at each count of the iterable ``counts``
    (ints below 2**53 or floats, finite and >= 0), unchecked, in Python
    floats: the same basic operations in the same order, so the same bits,
    and the same saturation past the largest float, where Python's float
    arithmetic gives inf as NumPy's does.

    The clamps are comparisons: the residual is never NaN, and where it is
    at most 0, q = 0 / (r2 * max(n, 1)) = 0."""
    budget, r1, r2 = cost.budget_area, cost.count_ratio, cost.categorize_ratio
    fractions = []
    for n in counts:
        q = budget - (n * r1 + total_area)
        if q > 0.0:
            q /= (n if n > 1.0 else 1.0) * r2
            if q > 1.0:
                q = 1.0
        else:
            q = 0.0
        fractions.append(q)
    return fractions


def _categorized_list(cost: CostModel, total_area: float, counts) -> tuple[list, list]:
    """``(q, n_bar)`` at each count of the sequence ``counts``, unchecked, as
    :func:`budget_rule` reports them, with the bits of :func:`_categorized`:
    n_bar = floor(n * q), and q from :func:`_fractions` but 1 at n = 0, the
    one home of that convention. The walks' bisections and stop test read
    the raw q of :func:`_fractions`, which is nonincreasing from n = 0."""
    q = _fractions(cost, total_area, counts)
    if len(counts) == 1:
        (n,), (x,) = counts, q
        return [x if n else 1.0], [math.floor(n * x)]
    n_bar = list(map(math.floor, map(mul, counts, q)))
    if 0 in counts:
        q = [x if n else 1.0 for n, x in zip(counts, q)]
    return q, n_bar


def _categorized_runs(cost: CostModel, total_area: float, lo: int, hi: int):
    """The n_bar of :func:`_categorized_list` over the int counts n = lo .. hi - 1,
    in runs: yields ``(stop, n_bar)``, each run ending before ``stop`` and
    starting where the one before ended, with n_bar None where n_bar = n.

    q is nonincreasing in n, since each of its steps is a monotone IEEE
    operation, so the counts fall in three bands: q = 1, where n_bar = n;
    0 < q < 1; and q = 0, where n_bar = 0. Each band's first count is
    guessed from the rule's exact form, n > (1/c - mA)/(r1 + r2) and
    n >= (1/c - mA)/r1, and kept where the rule confirms it on both sides,
    else found by bisection (:func:`_first_where`). In the middle
    band n_bar = floor(v(n)) up to rounding, where v(n) = (1/c - (n*r1 + mA))/r2
    falls linearly in n, one whole number each r2/r1 counts (never, when r1 = 0).
    The rule's float n*q and v computed in the rule's own steps are both
    within 7u * (W/r2 + n) of v, where u = 2**-53 and W = 1/c + n*r1 + mA
    (Higham, 2002, §3.1: gamma_3 for the residual's three roundings and for
    the quotient's and product's, each on a normal result), so a run whose
    computed v at both ends lies inside (k + g, k + 1 - g) for a guard band
    g = ``_RUN_GUARD`` * (W/r2 + n) at the band's last count has n_bar = k
    throughout. The counts where v lies within g of a whole number, and the
    whole band when some step could leave the normal floats, are taken one at
    a time by :func:`_categorized_list`."""

    def fraction(n):
        return _fractions(cost, total_area, (n,))[0]

    residual = cost.budget_area - total_area
    ratios = cost.count_ratio + cost.categorize_ratio
    full = _first_where(lambda n: fraction(n) < 1.0, lo, hi, residual / ratios)
    zero = _first_where(lambda n: not fraction(n) > 0.0, full, hi, _exhausted_at(cost, total_area))
    if full > lo:
        yield full, None
    if full == 0 < zero:  # n_bar = 0 * q
        yield 1, 0
        full = 1
    if full < zero:
        yield from _middle_runs(cost, total_area, full, zero, fraction)
    if zero < hi:
        yield hi, 0


def _first_where(key, a: int, b: int, guess: float) -> int:
    """The first count n in a .. b - 1 at which ``key(n)``, false and then
    true over the counts, holds, or b if none: ceil(``guess``), clamped to
    a .. b, where key fails just before it and holds at it, else by bisection."""
    n = a if not guess > a else b if not guess < b else math.ceil(guess)
    if (n == a or not key(n - 1)) and (n == b or key(n)):
        return n
    return a + bisect_left(range(a, b), True, key=key)


def _middle_runs(cost: CostModel, total_area: float, start: int, stop: int, fraction):
    """The runs of :func:`_categorized_runs` over counts ``start`` .. ``stop``
    - 1, all >= 1 with 0 < q < 1."""
    budget, r1, r2 = cost.budget_area, cost.count_ratio, cost.categorize_ratio
    last = stop - 1

    def one_by_one(a, b):
        return zip(range(a + 1, b + 1), _categorized_list(cost, total_area, range(a, b))[1])

    def v(n):
        return (budget - (n * r1 + total_area)) / r2

    guard = _RUN_GUARD * ((budget + last * r1 + total_area) / r2 + stop)
    # each step on a normal float or 0, so each rounds within u of its result
    normal = (
        (r1 == 0.0 or start * r1 >= _TINY and last * r1 < math.inf)
        and start * r2 >= _TINY and last * r2 < math.inf and fraction(last) >= _TINY
    )
    if not (normal and guard < 0.25):  # a wider guard band leaves runs little room
        yield from one_by_one(start, stop)
        return
    slope = r2 / r1 if r1 > 0.0 else math.inf  # counts per unit fall of v
    wide = 2.0 * guard * slope > 1.0  # v takes more than a count to cross a guard band
    floor, ceil = math.floor, math.ceil
    n = start
    while n < stop:
        x = (budget - (n * r1 + total_area)) / r2  # v(n)
        k = floor(x)
        low = k + guard
        if low < x < k + 1 - guard:
            # the last count whose v passes k + guard, by v's slope, checked
            estimate = n + (x - low) * slope
            end = max(n, ceil(estimate) - 1) if estimate < stop else last
            if not (budget - (end * r1 + total_area)) / r2 > low:
                below = bisect_left(range(n, end + 1), True, key=lambda i: not v(i) > low)
                end = n + below - 1
            yield end + 1, k
            n = end + 1
        elif wide:  # v within the guard band of a whole j: count by count while v >= j - guard
            j = round(x)
            after = n + bisect_left(range(n, stop), True, key=lambda i: v(i) < j - guard)
            yield from one_by_one(n, after)
            n = after
        else:  # the band holds this count alone: v(n + 1) <= v(n) - 2 * guard
            yield n + 1, _categorized_list(cost, total_area, (n,))[1][0]
            n += 1


def _budget_split(cost: CostModel, total_area: float, n: int) -> tuple[int, dict[str, float]]:
    """n_bar at count ``n``, and the budget fractions that sampling, counting and
    categorization take there, with the slack 1 minus what that n_bar spends.
    A share past the largest float is rejected by the ``cost`` section.

    ``total_area`` and ``n`` are a design point's, finite and >= 0, so the
    rule's core runs unchecked (:func:`_categorized_list`)."""
    (n_bar,) = _categorized_list(cost, total_area, (float(n),))[1]
    c = cost.budget_coefficient
    split = {
        "sampling": c * total_area,
        "counting": c * cost.count_ratio * n,
        "categorization": c * cost.categorize_ratio * n_bar,
        "slack": 1.0 - _spent(cost, total_area, n, n_bar),
    }
    bad = [f"{key}={value!r}" for key, value in split.items() if not math.isfinite(value)]
    if bad:
        name = "count_ratio" if math.isfinite(split["categorization"]) else "categorize_ratio"
        raise ValueError(
            f"cost.{name} {getattr(cost, name)!r} is too large: the budget split at the "
            f"typical count n = {n} is not finite ({' '.join(bad)})"
        )
    return n_bar, split


def _exhausted_at(cost: CostModel, total_area: float) -> float:
    """The count (1/c - mA)/r1 past which counting alone overspends, so q = 0;
    infinite when r1 = 0, or when a subnormal r1 overflows the quotient."""
    r1 = cost.count_ratio
    return (cost.budget_area - total_area) / r1 if r1 > 0 else math.inf


def _categorizable(cost: CostModel) -> float:
    """1/(c*r2): the categorizations that the whole budget buys, so, up to
    rounding, the largest n_bar that the rule gives at any count."""
    return cost.budget_area / cost.categorize_ratio


def _categorized_bounds(cost: CostModel, total_areas, means) -> list[float]:
    """x = min(mean, K) * (1 + 1e-12) + 1, K = max(1/c - mA, 0)/(r1 + r2), at
    each sampled area of ``total_areas`` and the mean count ``means`` there
    (finite floats >= 0): a bound on E[n_bar(N)] after sampling mA, for a
    count N of that mean. A count n with n_bar >= 1 has n_bar <= n and
    r2*n_bar <= 1/c - mA - n*r1, so n_bar*(r1 + r2) <= 1/c - mA and
    n_bar <= K at every count; so E[n_bar(N)] <= E[min(N, K)] <= min(E[N], K).
    The factor and the +1 cover the rounding of the float rule's n_bar,
    which can pass K by a few ulps of it, and of the float mean. Never NaN:
    K is at most inf, where r1 + r2 is subnormal, and 0 where sampling
    spends the budget."""
    budget, ratio = cost.budget_area, cost.count_ratio + cost.categorize_ratio
    return [
        min(mean, max(budget - area, 0.0) / ratio) * (1.0 + 1e-12) + 1.0
        for area, mean in zip(total_areas, means)
    ]
