"""Two-stage design optimizer.

Stage one chooses the number of quadrants m by minimizing the composite
expected loss

    L*(m) = w * L1*(m) + (1 - w) * E_N[L2*(n_bar(q(m*A, N)))],

where the expectation runs over the Poisson-Gamma predictive of the total
count N and q is the budget-implied categorization fraction. Stage two is the
deterministic rule q(m*A, n) applied once the count n is in hand. The weight
w defaults to 1/2 (both components then keep L* in [0, 1]); other weights are
experimental.

N is negative binomial, so E_N[L2*] is an exact sum over n rather than a
simulation. The sum stops once an analytic bound on the remaining upper tail
mass falls below ``TAIL_MASS``; because 0 <= L2* <= 1, that bound also bounds
the absolute error and is reported where a standard error would be. Beyond
the count at which counting alone exhausts the budget, n_bar = 0 and L2* = 1,
so that whole tail enters exactly. The curve involves no randomness: reruns
are bit-identical and do not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cost import (
    CostModel,
    budget_rule,
    categorization_fraction,
    categorized_count,
    feasible_designs,
    normalized_cost,
)
from .distributions import DirichletParams, GammaParams, predictive_log_pmf
from .loss import l1_expected, l2_expected

__all__ = [
    "DesignConfig",
    "DesignCurveRow",
    "DesignCurve",
    "DesignResult",
    "PerformanceRow",
    "PerformanceCurve",
    "PredictiveL2",
    "SweepRow",
    "expected_total_loss",
    "predictive_l2",
    "optimize_design",
    "performance_curve",
    "default_abundance_grid",
    "sensitivity_sweep",
    "SWEEP_AXES",
]

SWEEP_AXES = ("r2", "budget", "prior-mode")

TAIL_MASS = 1e-13  # truncated upper tail of the predictive count, per design point
_MAX_CHUNK = 1 << 16  # pmf terms held in memory at once
MAX_MEAN_COUNT = 1e8  # largest predictive mean total count the exact sum accepts


@dataclass(frozen=True)
class DesignConfig:
    """Design inputs.

    ``mc_draws`` and ``seed`` are validated and kept for existing configs and
    callers, but the exact design curve reads neither.
    """

    abundance_prior: GammaParams
    composition_prior: DirichletParams
    cost: CostModel
    mc_draws: int = 10_000
    seed: int = 0
    l1_weight: float = 0.5  # experimental; 0.5 keeps L* in [0, 1]

    def __post_init__(self):
        if self.mc_draws < 1000:
            raise ValueError("mc_draws must be at least 1000")
        if not 0.0 <= self.l1_weight <= 1.0:
            raise ValueError("l1_weight must be in [0, 1]")


@dataclass(frozen=True)
class DesignCurveRow:
    m: int
    area: float
    l1_star: float
    e_l2_star: float
    e_l2_se: float  # truncated tail mass: bounds |error| of e_l2_star
    l_star: float
    l_star_se: float  # (1 - w) * e_l2_se
    median_count: int  # predictive-median total count, used for "typical" summaries


@dataclass(frozen=True)
class DesignCurve:
    rows: tuple[DesignCurveRow, ...]

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class DesignResult:
    m_star: int
    curve: DesignCurve
    q_policy_note: str = field(default="")

    @property
    def optimal_row(self) -> DesignCurveRow:
        return next(r for r in self.curve.rows if r.m == self.m_star)


@dataclass(frozen=True)
class PerformanceRow:
    true_abundance: float
    n: int
    q: float
    n_bar: int
    l2_star: float


@dataclass(frozen=True)
class PerformanceCurve:
    m: int
    rows: tuple[PerformanceRow, ...]

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    m_star: int
    typical_n_bar: int
    budget_slack: float


@dataclass(frozen=True)
class PredictiveL2:
    """E[L2*] over the predictive total count at one design point."""

    e_l2: float
    tail: float  # bound on the upper tail mass left out of e_l2
    median_count: int  # predictive median of N
    terms: int  # pmf terms summed into e_l2


def _tail_bound(pmf_top: float, top: int, shape: float, one_minus_p: float) -> float:
    """Bound on P(N > top): past ``top`` the pmf ratio (n+a)/(n+1)*(1-p) never
    exceeds its value at ``top`` (or 1-p when a < 1), so the tail is at most
    geometric."""
    ratio = one_minus_p * max(1.0, (top + shape) / (top + 1.0))
    if ratio >= 1.0:
        return math.inf
    return pmf_top * ratio / (1.0 - ratio)


def predictive_l2(m: int, config: DesignConfig) -> PredictiveL2:
    """Exact E[L2*(n_bar(N))] over the negative binomial predictive of N.

    Sums P(N = n) * (1 - L2*(n)) in chunks of at most ``_MAX_CHUNK`` counts
    until the tail bound falls below ``TAIL_MASS`` or counting alone exhausts
    the budget (after which every term is zero), so memory stays bounded for
    any prior. The median is read from the cumulative pmf; when it lies past
    the summed range, the pmf walk continues to it, in time proportional to
    the median. Priors whose predictive mean count exceeds ``MAX_MEAN_COUNT``
    are rejected rather than walked.
    """
    if m == 0:
        return PredictiveL2(1.0, 0.0, 0, 0)
    prior, cost = config.abundance_prior, config.cost
    area = m * cost.quadrant_area
    a, b = prior.shape, prior.rate
    one_minus_p = area / (b + area)
    mean = a * area / b
    if not mean <= MAX_MEAN_COUNT:
        raise ValueError(
            f"abundance_prior predicts a mean total count of {mean:.3g} at m={m}; "
            f"the exact design supports at most {MAX_MEAN_COUNT:.0e}"
        )
    size = int(mean + 20.0 * math.sqrt(mean * (b + area) / b)) + 32
    if cost.count_ratio > 0:
        exhausted_at = (cost.budget_area - area) / cost.count_ratio
        size = min(size, int(max(0.0, exhausted_at)) + 2)
    size = min(size, _MAX_CHUNK)

    gain = 0.0  # sum of P(N = n) * (1 - L2*(n))
    tail = math.inf
    terms = 0
    mass = 0.0  # P(N < lo)
    median = None
    lo = 0
    while True:
        pmf = np.exp(predictive_log_pmf(prior, area, lo, lo + size))
        top = lo + size - 1
        if tail >= TAIL_MASS:
            _, n_bar = budget_rule(cost, area, np.arange(lo, lo + size))
            gain += float(np.dot(pmf, 1.0 - l2_expected(n_bar, config.composition_prior)))
            terms += size
            if cost.budget_area - (area + top * cost.count_ratio) <= 0.0:
                tail = 0.0  # same test as the budget rule: q = 0 from here on
            else:
                tail = _tail_bound(float(pmf[-1]), top, a, one_minus_p)
        if median is None:
            cdf = mass + np.cumsum(pmf)
            idx = int(np.searchsorted(cdf, 0.5))
            if idx < size:
                median = lo + idx
            mass = float(cdf[-1])
        if tail < TAIL_MASS and median is not None:
            return PredictiveL2(1.0 - gain, tail, median, terms)
        lo += size
        size = min(lo, _MAX_CHUNK)


def expected_total_loss(m: int, config: DesignConfig):
    """Composite expected loss (value, error bound) for sampling m quadrants.

    The L1 component is exact; the truncated tail mass of the L2 sum bounds
    the error and propagates with its weight.
    """
    if m not in feasible_designs(config.cost):
        raise ValueError(f"m={m} outside the feasible set {feasible_designs(config.cost)}")
    row = _curve_row(m, config)
    return row.l_star, row.l_star_se


def _curve_row(m: int, config: DesignConfig) -> DesignCurveRow:
    w = config.l1_weight
    l1 = l1_expected(m, config.abundance_prior, config.cost.quadrant_area)
    l2 = predictive_l2(m, config)
    return DesignCurveRow(
        m=m,
        area=m * config.cost.quadrant_area,
        l1_star=l1,
        e_l2_star=l2.e_l2,
        e_l2_se=l2.tail,
        l_star=w * l1 + (1.0 - w) * l2.e_l2,
        l_star_se=(1.0 - w) * l2.tail,
        median_count=l2.median_count,
    )


def optimize_design(config: DesignConfig) -> DesignResult:
    """Minimize the composite expected loss over the feasible quadrant counts.

    Ties break toward smaller m (the cheaper field campaign).
    """
    feasible = feasible_designs(config.cost)
    if len(feasible) == 0:
        raise ValueError("empty feasible design set")
    curve = DesignCurve(tuple(_curve_row(m, config) for m in feasible))
    losses = curve.column("l_star")
    m_star = int(curve.rows[int(np.argmin(losses))].m)
    note = (
        f"after counting n particles over {m_star} quadrants, categorize "
        f"n_bar = floor(n * q) with q = q({m_star}*A, n) from the budget rule"
    )
    return DesignResult(m_star=m_star, curve=curve, q_policy_note=note)


def performance_curve(m: int, abundance_grid, config: DesignConfig) -> PerformanceCurve:
    """Deterministic second-stage behavior across hypothetical true abundances.

    For each grid abundance: expected count n = floor(m*A*abundance), the
    budget-implied q, the categorized count n_bar, and the resulting expected
    composition loss.
    """
    if m not in feasible_designs(config.cost):
        raise ValueError(f"m={m} outside the feasible set")
    grid = np.asarray(abundance_grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("abundance grid must be nonnegative")
    area = m * config.cost.quadrant_area
    counts = np.floor(area * grid)
    q, n_bar = budget_rule(config.cost, area, counts)
    l2 = l2_expected(n_bar, config.composition_prior)
    rows = tuple(
        PerformanceRow(float(lam), int(n), float(qn), int(nb), float(loss))
        for lam, n, qn, nb, loss in zip(grid, counts, q, n_bar, l2)
    )
    return PerformanceCurve(m=m, rows=rows)


def default_abundance_grid(config: DesignConfig, points: int = 200) -> np.ndarray:
    """Evenly spaced true-abundance grid over (0, 4 * prior mode]."""
    prior = config.abundance_prior
    top = 4.0 * (prior.mode() if prior.shape > 1 else prior.mean())
    return np.linspace(top / points, top, points)


def _typical_summary(result: DesignResult, config: DesignConfig):
    """Categorized count and budget slack at the predictive-median total count."""
    row = result.optimal_row
    area = result.m_star * config.cost.quadrant_area
    n_med = row.median_count
    q = categorization_fraction(config.cost, area, n_med)
    n_bar = categorized_count(n_med, q)
    slack = 1.0 - normalized_cost(config.cost, area, n_med, q)
    return n_bar, slack


def sensitivity_sweep(base: DesignConfig, axis: str, values) -> list[SweepRow]:
    """Re-optimize the design along one input axis.

    Axes: ``r2`` (categorize-ratio multipliers), ``budget`` (quadrant
    equivalents), ``prior-mode`` (abundance prior modes, shape fixed). Each
    value is optimized independently, so a row does not depend on the others
    or on their order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    rows = []
    for value in values:
        cfg = _apply_axis(base, axis, float(value))
        result = optimize_design(cfg)
        n_bar, slack = _typical_summary(result, cfg)
        rows.append(SweepRow(axis, float(value), result.m_star, n_bar, slack))
    return rows


def _apply_axis(base: DesignConfig, axis: str, value: float) -> DesignConfig:
    cost = base.cost
    if axis == "r2":
        new_cost = replace(cost, categorize_ratio=cost.categorize_ratio * value)
    elif axis == "budget":
        new_cost = CostModel.from_budget_quadrants(
            cost.quadrant_area, value, cost.count_ratio, cost.categorize_ratio
        )
    else:  # prior-mode
        prior = GammaParams.from_mode(base.abundance_prior.shape, value)
        return replace(base, abundance_prior=prior)
    return replace(base, cost=new_cost)
