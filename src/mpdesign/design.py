"""Two-stage design optimizer.

Stage one chooses the number of quadrants m by minimizing the composite
expected loss

    L*(m) = w * L1*(m) + (1 - w) * E_N[L2*(n_bar(q(m*A, N)))],

where the expectation runs over the Poisson-Gamma predictive of the total
count N and q is the budget-implied categorization fraction. Stage two is the
deterministic rule q(m*A, n) applied once the count n is in hand. The weight
w is fixed at ``L1_WEIGHT`` = 1/2, which keeps L* in [0, 1].

N is negative binomial, so E_N[L2*] is an exact sum over n rather than a
simulation. The sum stops once an analytic bound on the remaining upper tail
mass falls below ``TAIL_MASS``; because 0 <= L2* <= 1, that bound also bounds
the absolute error and is reported where a standard error would be. Once the
budget rule's q reaches 0, which it does for good since q is nonincreasing in
n, n_bar = 0 and L2* = 1, so that whole tail enters exactly. The curve
involves no randomness: reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cost import CostModel, _budget_split, _categorized, _exhausted_at, budget_rule
from .distributions import DirichletParams, GammaParams, _log_pmf_from_steps, _ratio_steps
from .loss import l1_expected, l2_expected

__all__ = [
    "DesignConfig",
    "DesignCurveRow",
    "DesignCurve",
    "DesignResult",
    "PerformanceRow",
    "SweepRow",
    "optimize_design",
    "performance_curve",
    "default_abundance_grid",
    "sensitivity_sweep",
    "SWEEP_AXES",
    "DESIGN_COLUMNS",
    "CURVES_COLUMNS",
    "SENSITIVITY_COLUMNS",
]

SWEEP_AXES = ("r2", "budget", "prior-mode")

L1_WEIGHT = 0.5  # w in L* = w*L1* + (1 - w)*E[L2*]
TAIL_MASS = 1e-13  # truncated upper tail of the predictive count, per design point
_MAX_CHUNK = 1 << 16  # pmf terms held in memory at once
MAX_MEAN_COUNT = 1e8  # largest predictive mean total count the exact sum accepts
MAX_QUADRANTS = 10_000  # largest affordable quadrant count the design curve walks
MAX_CURVE_TERMS = 1e8  # largest total of the design points' first pmf chunks

# Output columns of a design curve, a performance curve and a sensitivity
# sweep, in file order. The rows are named tuples with their fields in this
# order, so each row is a line of its table as it stands.
DESIGN_COLUMNS = ("m", "area", "L1_star", "E_L2_star", "E_L2_se", "L_star", "L_star_se")
CURVES_COLUMNS = ("lambda", "n", "q", "n_bar", "L2_star")
SENSITIVITY_COLUMNS = ("axis", "value", "m_star", "typical_n_bar", "budget_slack")


@dataclass(frozen=True)
class DesignConfig:
    """Design inputs: the abundance prior, the composition prior and the cost
    model. The design curve is an exact sum, so no seed or draw count enters.

    ``mc_draws`` and ``seed`` are init-only and ignored: callers written for
    the Monte Carlo design may still pass them, but they are not fields.
    """

    abundance_prior: GammaParams
    composition_prior: DirichletParams
    cost: CostModel
    mc_draws: InitVar[int] = 0
    seed: InitVar[int] = 0


class DesignCurveRow(NamedTuple):
    m: int
    area: float
    l1_star: float
    e_l2_star: float
    e_l2_se: float  # truncated tail mass: bounds |error| of e_l2_star
    l_star: float
    l_star_se: float  # (1 - w) * e_l2_se


@dataclass(frozen=True)
class DesignCurve:
    rows: tuple[DesignCurveRow, ...]

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class DesignResult:
    """The optimal design, its curve, and the budget at the typical count.

    ``typical_n`` is the predictive median total count at m*,
    ``typical_n_bar`` its categorized count from :func:`budget_rule`, and
    ``budget_split`` the fractions of the budget that sampling, counting and
    categorization take there, with the slack left over.
    """

    m_star: int
    curve: DesignCurve
    typical_n: int
    typical_n_bar: int
    budget_split: dict[str, float] = field(hash=False)  # a dict; keeps the result hashable
    q_policy_note: str = field(default="")

    @property
    def optimal_row(self) -> DesignCurveRow:
        return next(r for r in self.curve.rows if r.m == self.m_star)


class PerformanceRow(NamedTuple):
    true_abundance: float
    n: int
    q: float
    n_bar: int
    l2_star: float


class SweepRow(NamedTuple):
    axis: str
    value: float
    m_star: int
    typical_n_bar: int
    budget_slack: float


def _tail_bound(pmf_top: float, top: int, shape: float, one_minus_p: float) -> float:
    """Bound on P(N > top): past ``top`` the pmf ratio (n+a)/(n+1)*(1-p) never
    exceeds its value at ``top`` (or 1-p when a < 1), so the tail is at most
    geometric."""
    ratio = one_minus_p * max(1.0, (top + shape) / (top + 1.0))
    if ratio >= 1.0:
        return math.inf
    return pmf_top * ratio / (1.0 - ratio)


def _first_chunk(m: int, config: DesignConfig) -> int:
    """Counts in the first pmf chunk at m: the predictive mean plus 20
    standard deviations, cut where counting alone exhausts the budget and at
    ``_MAX_CHUNK``; 0 for m = 0, which sums nothing."""
    if m == 0:
        return 0
    prior, cost = config.abundance_prior, config.cost
    area = m * cost.quadrant_area
    b = prior.rate
    mean = prior.shape * area / b
    if not mean <= MAX_MEAN_COUNT:
        raise ValueError(
            f"abundance_prior predicts a mean total count of {mean:.3g} at m={m}; "
            f"the exact design supports at most {MAX_MEAN_COUNT:.0e}"
        )
    size = int(mean + 20.0 * math.sqrt(mean * (b + area) / b)) + 32
    exhausted_at = _exhausted_at(cost, area)
    if exhausted_at < math.inf:
        size = min(size, int(max(0.0, exhausted_at)) + 2)
    return min(size, _MAX_CHUNK)


def _count_tables(config: DesignConfig, size: int):
    """The per-count arrays over n = 0 .. size - 1 that no design point changes.

    Returns the counts as floats, the pmf's log ratio steps (index n - 1
    holds the step into n) and the gain weights 1 - L2*(n), all read-only.
    A design point slices them for every chunk that ends below ``size``.
    """
    counts = np.arange(size, dtype=np.float64)
    steps = _ratio_steps(config.abundance_prior.shape, 1, size)
    gains = 1.0 - l2_expected(counts, config.composition_prior)
    for table in (counts, steps, gains):
        table.flags.writeable = False
    return counts, steps, gains


def _pmf_chunks(m: int, config: DesignConfig, size: int, tables):
    """The predictive pmf of N at m > 0, chunk by chunk: yields ``(lo, pmf)``
    with pmf[i] = P(N = lo + i). The first chunk holds ``size`` counts
    (:func:`_first_chunk`), each later one as many as all before it, up to
    ``_MAX_CHUNK``. A chunk inside ``tables`` slices its ratio steps; one that
    reaches past them computes its own."""
    counts, steps, _ = tables
    prior = config.abundance_prior
    area = m * config.cost.quadrant_area
    lo = 0
    while True:
        hi = lo + size
        if hi <= len(counts):
            chunk_steps = steps[lo:hi - 1]
        else:
            chunk_steps = _ratio_steps(prior.shape, lo + 1, hi)
        log_pmf = _log_pmf_from_steps(prior, area, lo, chunk_steps)
        yield lo, np.exp(log_pmf, out=log_pmf)
        lo = hi
        size = min(lo, _MAX_CHUNK)


def _expected_l2(m: int, config: DesignConfig, size: int, tables):
    """``(e_l2, tail, terms)``: the exact E[L2*(n_bar(N))] over the negative
    binomial predictive of N at m, the bound on the upper tail mass it leaves
    out, and the pmf terms it sums.

    Sums P(N = n) * (1 - L2*(n)) chunk by chunk (:func:`_pmf_chunks`), so
    memory stays bounded for any prior, until the tail bound falls below
    ``TAIL_MASS`` or the budget rule's q reaches 0, after which every term is
    zero. Any ``tables`` at least ``size`` long give the same bits."""
    if m == 0:
        return 1.0, 0.0, 0
    counts, _, gains = tables
    prior, cost = config.abundance_prior, config.cost
    area = m * cost.quadrant_area
    one_minus_p = area / (prior.rate + area)

    gain = 0.0  # sum of P(N = n) * (1 - L2*(n))
    terms = 0
    for lo, pmf in _pmf_chunks(m, config, size, tables):
        hi = lo + len(pmf)
        inside = hi <= len(counts)
        n = counts[lo:hi] if inside else np.arange(lo, hi, dtype=np.float64)
        q = np.empty(hi - lo)
        n_bar = _categorized(cost, area, n, q, np.empty(hi - lo))
        if inside:  # n_bar <= n < len(counts), so the weights are a gather
            weights = gains[n_bar.astype(np.intp)]
        else:
            weights = 1.0 - l2_expected(n_bar, config.composition_prior)
        gain += float(np.dot(pmf, weights))
        terms += hi - lo
        if not q[-1] > 0.0:  # q is nonincreasing in n: no later count is categorized
            return 1.0 - gain, 0.0, terms
        tail = _tail_bound(float(pmf[-1]), hi - 1, prior.shape, one_minus_p)
        if tail < TAIL_MASS:
            return 1.0 - gain, tail, terms


def _predictive_median(m: int, config: DesignConfig, size: int, tables) -> int:
    """Predictive median of N at m, the first n with P(N <= n) >= 1/2, read
    from the cumulative pmf over the chunks of :func:`_expected_l2`. It walks
    on past the budget-exhaustion count when the median lies there."""
    if m == 0:
        return 0
    mass = 0.0  # P(N < lo)
    for lo, pmf in _pmf_chunks(m, config, size, tables):
        cdf = mass + np.cumsum(pmf)
        idx = int(np.searchsorted(cdf, 0.5))
        if idx < len(pmf):
            return lo + idx
        mass = float(cdf[-1])


def _check_feasible(m: int, cost: CostModel) -> None:
    """Reject a quadrant count outside 0 .. ``cost.max_quadrants``, in time
    independent of the budget."""
    if not (0 <= m <= cost.max_quadrants and int(m) == m):
        raise ValueError(f"m={m} outside the feasible set 0..{cost.max_quadrants}")


def _curve_row(m: int, config: DesignConfig, e_l2: float, tail: float) -> DesignCurveRow:
    w = L1_WEIGHT
    l1 = l1_expected(m, config.abundance_prior, config.cost.quadrant_area)
    return DesignCurveRow(
        m=m,
        area=m * config.cost.quadrant_area,
        l1_star=l1,
        e_l2_star=e_l2,
        e_l2_se=tail,
        l_star=w * l1 + (1.0 - w) * e_l2,
        l_star_se=(1.0 - w) * tail,
    )


def _first_chunks(config: DesignConfig) -> list[int]:
    """The first-chunk size of every feasible m = 0 .. ``max_quadrants``, once
    the walk is known to be bounded: a budget that affords more than
    ``MAX_QUADRANTS`` quadrants, or whose design points' first chunks total
    more than ``MAX_CURVE_TERMS`` counts, is rejected before any is summed."""
    cost = config.cost
    budget = cost.budget_area / cost.quadrant_area
    if cost.max_quadrants > MAX_QUADRANTS:
        raise ValueError(
            f"a budget of {budget:.3g} quadrant equivalents affords {cost.max_quadrants:.3g} "
            f"quadrants; the exact design supports at most {MAX_QUADRANTS}"
        )
    sizes = [_first_chunk(m, config) for m in range(cost.max_quadrants + 1)]
    terms = sum(sizes)
    if terms > MAX_CURVE_TERMS:
        raise ValueError(
            f"a budget of {budget:.3g} quadrant equivalents with this abundance_prior "
            f"puts {terms:.3g} pmf terms in the design points' first chunks; "
            f"the exact design supports at most {MAX_CURVE_TERMS:.0e}"
        )
    return sizes


def optimize_design(config: DesignConfig) -> DesignResult:
    """Minimize the composite expected loss over the feasible quadrant counts.

    Ties break toward smaller m (the cheaper field campaign). The walk's
    bounds are checked first (:func:`_first_chunks`), before any table is
    built. The per-count arrays are built once, as long as the largest first
    chunk, and every design point slices them. Only m* reads the predictive
    median, for the typical-count summary.
    """
    sizes = _first_chunks(config)
    tables = _count_tables(config, max(sizes))
    curve = DesignCurve(tuple(
        _curve_row(m, config, *_expected_l2(m, config, size, tables)[:2])
        for m, size in enumerate(sizes)
    ))
    l_star = curve.column("l_star")
    nan = np.flatnonzero(np.isnan(l_star))
    if nan.size:
        m = curve.rows[nan[0]].m
        raise ValueError(f"the expected loss L* is NaN at m={m}; no design can be chosen")
    best = int(np.argmin(l_star))
    optimal = curve.rows[best]
    m_star = int(optimal.m)
    n = _predictive_median(m_star, config, sizes[best], tables)
    n_bar, split = _budget_split(config.cost, optimal.area, n)
    note = (
        f"after counting n particles over {m_star} quadrants, categorize "
        f"n_bar = floor(n * q) with q = q({m_star}*A, n) from the budget rule"
    )
    return DesignResult(
        m_star=m_star, curve=curve, typical_n=n, typical_n_bar=n_bar, budget_split=split,
        q_policy_note=note,
    )


def performance_curve(m: int, abundance_grid, config: DesignConfig) -> tuple[PerformanceRow, ...]:
    """Deterministic second-stage behavior across hypothetical true abundances.

    One row per grid abundance: expected count n = floor(m*A*abundance), the
    budget-implied q, the categorized count n_bar, and the resulting expected
    composition loss.
    """
    _check_feasible(m, config.cost)
    grid = np.asarray(abundance_grid, dtype=float)
    bad = grid[~(np.isfinite(grid) & (grid >= 0))]
    if bad.size:
        raise ValueError(f"abundance grid point {bad[0]} is not a finite number >= 0")
    area = m * config.cost.quadrant_area
    counts = np.floor(area * grid)
    q, n_bar = budget_rule(config.cost, area, counts)
    l2 = l2_expected(n_bar, config.composition_prior)
    # int of the floats, not int64, which would wrap counts past 2**63
    columns = grid.tolist(), map(int, counts.tolist()), q.tolist(), map(int, n_bar.tolist())
    return tuple(map(PerformanceRow._make, zip(*columns, l2.tolist())))


def default_abundance_grid(config: DesignConfig, points: int = 200) -> np.ndarray:
    """Evenly spaced true-abundance grid over (0, 4 * prior mode], or up to
    4 * prior mean when the shape is at most 1."""
    prior = config.abundance_prior
    center, value = ("mode", prior.mode()) if prior.shape > 1 else ("mean", prior.mean())
    top = 4.0 * value
    if not top < math.inf:
        raise ValueError(f"abundance_prior {center} {value!r} is too large: 4 times it overflows")
    return np.linspace(top / points, top, points)


def sensitivity_sweep(base: DesignConfig, axis: str, values) -> list[SweepRow]:
    """Re-optimize the design along one input axis.

    Axes: ``r2`` (categorize-ratio multipliers), ``budget`` (quadrant
    equivalents), ``prior-mode`` (abundance prior modes, shape fixed). Each
    value is optimized independently, so a row does not depend on the others
    or on their order. Every value, and the bounds of its design walk, is
    checked before any is optimized; a value that gives no valid
    configuration raises a ``ValueError`` that names the axis and the value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")
    values = [float(value) for value in values]
    if not values:
        raise ValueError("values must be nonempty")
    configs = []
    for value in values:
        try:
            configs.append(_apply_axis(base, axis, value))
            _first_chunks(configs[-1])
        except ValueError as exc:
            raise ValueError(f"{axis} value {value}: {exc}") from exc
    rows = []
    for value, cfg in zip(values, configs):
        result = optimize_design(cfg)
        slack = result.budget_split["slack"]
        rows.append(SweepRow(axis, value, result.m_star, result.typical_n_bar, slack))
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
