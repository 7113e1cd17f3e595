"""Normalized budget model for the two-stage campaign.

All quantities are dimensionless ratios, so the design problem is invariant
to rescaling raw costs and budget by a common factor:

* ``budget_coefficient`` c -- fraction of the post-fixed-cost budget consumed
  by sampling one square meter of sediment (c = c_sample_per_m2 / budget).
* ``count_ratio`` r1 -- effort to count one particle under the microscope,
  relative to sampling 1 m^2.
* ``categorize_ratio`` r2 -- effort to categorize one particle by
  spectroscopy, relative to sampling 1 m^2.

The normalized cost of a design is c * (m*A + r1*n + r2*floor(n*q)) and must
not exceed 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostModel",
    "BudgetSpec",
    "normalized_cost",
    "categorization_fraction",
    "categorized_count",
    "budget_rule",
    "feasible_designs",
]

# Relative slack when counting whole affordable quadrants: c = 1/(B*A) is
# rounded, so 1/(A*c) can land a few ulps below a whole budget B.
_QUADRANT_RTOL = 1e-13


@dataclass(frozen=True)
class BudgetSpec:
    """Total budget expressed in quadrant equivalents.

    B quadrants are affordable if every unit of budget went to field sampling;
    the implied budget coefficient is c = 1 / (B * A).
    """

    quadrant_equivalents: float

    def __post_init__(self):
        if not self.quadrant_equivalents > 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class CostModel:
    quadrant_area: float
    budget_coefficient: float
    count_ratio: float
    categorize_ratio: float

    def __post_init__(self):
        if not self.quadrant_area > 0:
            raise ValueError("quadrant_area must be positive")
        if not self.budget_coefficient > 0:
            raise ValueError("budget_coefficient must be positive")
        if self.count_ratio < 0:
            raise ValueError("count_ratio must be nonnegative")
        if not self.categorize_ratio > 0:
            raise ValueError("categorize_ratio must be positive")
        if self.max_quadrants == 0:
            warnings.warn(
                "budget does not cover even one quadrant; only m = 0 is feasible",
                stacklevel=2,
            )

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
        cls, quadrant_area: float, budget: BudgetSpec | float, count_ratio: float, categorize_ratio: float
    ) -> "CostModel":
        """Build from a budget given in quadrant equivalents (c = 1/(B*A))."""
        b = budget.quadrant_equivalents if isinstance(budget, BudgetSpec) else float(budget)
        if b <= 0:
            raise ValueError("budget must be positive")
        return cls(quadrant_area, 1.0 / (b * quadrant_area), count_ratio, categorize_ratio)

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
            raise ValueError("sample cost and budget must be positive")
        return cls(
            quadrant_area,
            sample_cost_per_m2 / budget,
            count_cost / sample_cost_per_m2,
            categorize_cost / sample_cost_per_m2,
        )


def normalized_cost(cost: CostModel, total_area: float, n: int, q: float) -> float:
    """Fraction of the budget consumed: c * (mA + r1*n + r2*floor(n*q))."""
    if total_area < 0 or n < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("invalid design point")
    n_bar = categorized_count(n, q)
    return cost.budget_coefficient * (
        total_area + cost.count_ratio * n + cost.categorize_ratio * n_bar
    )


def categorization_fraction(cost: CostModel, total_area: float, n: int) -> float:
    """Budget-implied categorization fraction q in [0, 1].

    Residual budget after sampling ``total_area`` and counting ``n`` particles
    is spent on categorization. For n = 0 the fraction is 1 by convention
    (nothing to categorize, constraint vacuously satisfied).
    """
    if total_area < 0 or n < 0:
        raise ValueError("invalid design point")
    if n == 0:
        return 1.0
    raw = (cost.budget_area - (total_area + n * cost.count_ratio)) / (
        cost.categorize_ratio * n
    )
    return max(0.0, min(1.0, raw))


def categorized_count(n: int, q: float) -> int:
    """Particles sent for categorization when a fraction q of n is: floor(n*q).

    The single scalar copy of the rounding rule; :func:`budget_rule` applies
    the same floor elementwise.
    """
    return math.floor(n * q)


def budget_rule(cost: CostModel, total_area: float, counts):
    """Vectorized :func:`categorization_fraction` and categorized count.

    Returns ``(q, n_bar)`` as float arrays over ``counts``, with
    n_bar = floor(n*q). The floating-point steps for n >= 1 are exactly those
    of the scalar rule, so both give identical q and n_bar.
    """
    n = np.asarray(counts, dtype=np.float64)
    if total_area < 0 or np.any(n < 0):
        raise ValueError("invalid design point")
    raw = (cost.budget_area - (total_area + n * cost.count_ratio)) / (
        cost.categorize_ratio * np.maximum(n, 1.0)
    )
    q = np.where(n > 0.0, np.minimum(np.maximum(raw, 0.0), 1.0), 1.0)
    return q, np.floor(n * q)


def feasible_designs(cost: CostModel) -> range:
    """Quadrant counts affordable within the budget: 0 .. floor(1/(A*c)).

    A budget of exactly B quadrant equivalents admits m = B even when the
    rounded coefficient c = 1/(B*A) puts 1/(A*c) an ulp or two below B.
    """
    return range(0, cost.max_quadrants + 1)
