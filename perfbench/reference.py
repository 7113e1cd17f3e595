"""Independent reference values for checking the program's outputs.

The design loss is computed by exact summation over the negative binomial
predictive of the total count N (Gamma prior, Poisson counts):

    E[L2*] = sum_n NB(n; a, b / (b + m*A)) * L2*(n_bar(n)),

truncated where the upper tail mass falls below ``TAIL_MASS``. Nothing here
imports the program: the budget rule and both loss formulas are written out
again from the model, and the pmf comes from ``scipy.stats.nbinom``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

TAIL_MASS = 1e-14


@dataclass(frozen=True)
class Scenario:
    """One design problem, in the units of the config file."""

    shape: float
    rate: float
    quadrant_area: float
    budget: float  # quadrant equivalents
    count_ratio: float
    categorize_ratio: float
    gamma_total: float
    draws: int
    l1_weight: float = 0.5

    @classmethod
    def from_mode(cls, shape, mode, **kw):
        return cls(shape=shape, rate=(shape - 1.0) / mode, **kw)

    @property
    def feasible(self) -> range:
        # the benchmark only generates budgets that are whole quadrant counts
        return range(0, int(round(self.budget)) + 1)


@dataclass(frozen=True)
class DesignPoint:
    m: int
    l_star: float
    l_star_se: float  # Monte Carlo standard error the program should report
    median_count: int  # median of the predictive total count


def n_bar(n, scenario: Scenario, area: float):
    """Categorized count under the budget rule: floor(n * q), q in [0, 1], q(0) = 1."""
    n = np.asarray(n, dtype=np.float64)
    budget_area = scenario.budget * scenario.quadrant_area
    q = (budget_area - (area + n * scenario.count_ratio)) / (
        scenario.categorize_ratio * np.maximum(n, 1.0)
    )
    q = np.clip(q, 0.0, 1.0)
    return np.where(n > 0, np.floor(n * q), 0.0)


def l2_star(nb, gamma_total: float):
    """Expected posterior/prior covariance-trace ratio after nb categorizations."""
    nb = np.asarray(nb, dtype=np.float64)
    g0 = gamma_total
    return (g0 + 1.0 - nb / (g0 + nb)) / (g0 + 1.0 + nb)


def _predictive(scenario: Scenario, area: float):
    return stats.nbinom(scenario.shape, scenario.rate / (scenario.rate + area))


def design_point(scenario: Scenario, m: int) -> DesignPoint:
    w = scenario.l1_weight
    if m == 0:
        return DesignPoint(0, 1.0, 0.0, 0)
    area = m * scenario.quadrant_area
    l1 = scenario.rate / (scenario.rate + area)
    dist = _predictive(scenario, area)
    top = int(dist.isf(TAIL_MASS)) + 1
    n = np.arange(top + 1)
    pmf = dist.pmf(n)
    vals = l2_star(n_bar(n, scenario, area), scenario.gamma_total)
    e_l2 = float(np.dot(pmf, vals))
    var_l2 = float(np.dot(pmf, (vals - e_l2) ** 2))
    se = (1.0 - w) * math.sqrt(var_l2 / scenario.draws)
    return DesignPoint(m, w * l1 + (1.0 - w) * e_l2, se, int(dist.median()))


@lru_cache(maxsize=512)
def design_curve(scenario: Scenario) -> tuple[DesignPoint, ...]:
    return tuple(design_point(scenario, m) for m in scenario.feasible)


def m_star(scenario: Scenario) -> int:
    curve = design_curve(scenario)
    return min(curve, key=lambda p: p.l_star).m


# The eight design scenarios behind `replicate --figure all`, restated from the
# model's reference study: (file tag, prior mode, budget, r2 multiplier).
REPLICATE_DRAWS = 100_000
REPLICATE_DESIGNS = (
    ("fig1_low", 200.0, 12.0, 1.0),
    ("fig1_high", 800.0, 12.0, 1.0),
    ("fig2_r2x2", 200.0, 12.0, 2.0),
    ("fig2_r2x1000", 200.0, 12.0, 1000.0),
    ("fig3_low_b8", 200.0, 8.0, 1.0),
    ("fig3_high_b8", 800.0, 8.0, 1.0),
    ("fig4_low_b14", 200.0, 14.0, 1.0),
    ("fig4_high_b14", 800.0, 14.0, 1.0),
)


def study_scenario(mode: float, budget: float, r2_multiplier: float, draws: int) -> Scenario:
    """The study's fixed model: shape 3, A = 0.0625 m^2, r1 = 5e-5, r2 = 3e-3, 10 classes."""
    return Scenario.from_mode(
        3.0,
        mode,
        quadrant_area=0.0625,
        budget=budget,
        count_ratio=5e-5,
        categorize_ratio=3e-3 * r2_multiplier,
        gamma_total=10.0,
        draws=draws,
    )
