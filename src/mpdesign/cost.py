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
``CostModel`` needs only ``math``; the functions over arrays of counts import
NumPy when they are called, so reading a config loads no NumPy.
"""

from __future__ import annotations

import math

from ._record import Record

__all__ = [
    "CostModel",
    "categorization_fraction",
    "budget_rule",
]

# Relative slack when counting whole affordable quadrants: c = 1/(B*A) is
# rounded, so 1/(A*c) can land a few ulps below a whole budget B.
_QUADRANT_RTOL = 1e-13


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


def categorization_fraction(cost: CostModel, total_area: float, n: int) -> float:
    """Budget-implied categorization fraction q in [0, 1], the q of :func:`budget_rule`.

    Residual budget after sampling ``total_area`` and counting ``n`` particles
    is spent on categorization. For n = 0 the fraction is 1 by convention
    (nothing to categorize, constraint vacuously satisfied).
    """
    return budget_rule(cost, total_area, n)[0]


def budget_rule(cost: CostModel, total_area: float, counts):
    """Budget-implied fraction q and categorized count n_bar.

    The one source of n_bar, which its in-place core :func:`_categorized`
    forms; the design curve and its budget split call that core directly.
    For an array of counts, returns ``(q, n_bar)`` as float arrays; for a
    single count, a Python ``(float, int)``. A NaN, infinite or negative area
    or count is rejected by name.
    """
    import numpy as np

    n = np.asarray(counts, dtype=np.float64)
    if not (total_area >= 0 and math.isfinite(total_area)):
        raise ValueError(f"total_area must be finite and >= 0, got {total_area!r}")
    bad = n[~(np.isfinite(n) & (n >= 0))]
    if bad.size:
        raise ValueError(f"counts must be finite and >= 0, got {bad[0]}")
    q = np.empty_like(n)
    with np.errstate(over="ignore"):  # the rule saturates; see _categorized
        n_bar = _categorized(cost, total_area, n, q, np.empty_like(n))
    q = np.where(n > 0.0, q, 1.0)
    if np.ndim(counts) == 0:
        return float(q), int(n_bar)
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


def _budget_split(cost: CostModel, total_area: float, n: int) -> tuple[int, dict[str, float]]:
    """n_bar at count ``n``, and the budget fractions that sampling, counting and
    categorization take there, with the slack 1 minus what that n_bar spends.
    A share past the largest float is rejected by the ``cost`` section.

    ``total_area`` and ``n`` are a design point's, finite and >= 0, so the
    rule's core runs unchecked, with NumPy's overflow warning left to the
    caller (:func:`_categorized`)."""
    import numpy as np

    counts = np.array([float(n)])
    n_bar = int(_categorized(cost, total_area, counts, np.empty(1), np.empty(1))[0])
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
