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
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .config import DesignConfig
from .cost import CostModel, _budget_split, _categorized, _exhausted_at, budget_rule
from .distributions import GammaParams
from .io import _cut
from .loss import l1_expected, l2_expected

__all__ = [
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
# Largest error that rounding log(b) and log(b + mA), an ulp each, may put
# into the log pmf through a * log(p); past it every loss is silently wrong.
_LOG_PMF_TOLERANCE = 1e-8

# Output columns of a design curve, a performance curve and a sensitivity
# sweep, in file order. The rows are named tuples with their fields in this
# order, so each row is a line of its table as it stands.
DESIGN_COLUMNS = ("m", "area", "L1_star", "E_L2_star", "E_L2_se", "L_star", "L_star_se")
CURVES_COLUMNS = ("lambda", "n", "q", "n_bar", "L2_star")
SENSITIVITY_COLUMNS = ("axis", "value", "m_star", "typical_n_bar", "budget_slack")


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
    rows: tuple[DesignCurveRow, ...]  # rows[m] is the design point at m


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

    @property
    def optimal_row(self) -> DesignCurveRow:
        return self.curve.rows[self.m_star]


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


def _ratio_steps(shape: float, start: int, stop: int) -> np.ndarray:
    """log((n-1+a)/n) = log1p((a-1)/n) for n = start .. stop - 1 (start >= 1).

    The log pmf ratio P(n)/P(n-1) less log(1-p): it depends only on the
    prior shape, so one array serves every sampled area.
    """
    n = np.arange(start, stop, dtype=np.float64)
    return np.log1p((shape - 1.0) / n)


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


def _log_pmf_from_steps(
    prior: GammaParams, total_area: float, start: int, ratio_steps: np.ndarray
) -> np.ndarray:
    """Log pmf of the predictive total count N for n = start .. start +
    len(ratio_steps), where ``ratio_steps`` is :func:`_ratio_steps` over
    n = start + 1 onward and ``total_area`` > 0.

    N is negative binomial: P(N = n) = G(n+a)/(G(a) n!) p^a (1-p)^n with
    a = shape and p = rate/(rate + total_area) (rate parametrization). The
    value at ``start`` comes from log-gamma functions; the rest follow from
    the ratio P(n)/P(n-1) = (n-1+a)/n * (1-p), accumulated in log space.
    The prior and area must have passed :func:`_first_chunks`.
    """
    a, b = prior.shape, prior.rate
    log_b, log_b_area = math.log(b), math.log(b + total_area)
    log_p = log_b - log_b_area
    log_1mp = math.log(total_area) - log_b_area
    first = (
        math.lgamma(start + a) - math.lgamma(a) - math.lgamma(start + 1.0)
        + a * log_p + start * log_1mp
    )
    out = np.empty(len(ratio_steps) + 1)
    out[0] = first
    np.add.accumulate(ratio_steps + log_1mp, out=out[1:])  # np.cumsum, less its wrapper
    out[1:] += first
    return out


def _pmf_chunk(prior: GammaParams, area: float, lo: int, hi: int, tables) -> np.ndarray:
    """P(N = n) for n = lo .. hi - 1 at a sampled area > 0. A chunk inside
    ``tables`` slices their ratio steps; one that reaches past them computes
    its own. A first chunk (lo = 0) must lie inside."""
    counts, steps, _ = tables
    if hi <= len(counts):
        chunk_steps = steps[lo:hi - 1]
    else:
        chunk_steps = _ratio_steps(prior.shape, lo + 1, hi)
    log_pmf = _log_pmf_from_steps(prior, area, lo, chunk_steps)
    return np.exp(log_pmf, out=log_pmf)


def _pmf_chunks(prior: GammaParams, area: float, first: np.ndarray, tables):
    """The predictive pmf of N at a sampled area > 0, chunk by chunk: yields
    ``(lo, pmf)`` with pmf[i] = P(N = lo + i). The first chunk is ``first``,
    the pmf over n < len(first) (:func:`_first_chunk` counts); each later one
    holds as many counts as all before it, up to ``_MAX_CHUNK``."""
    lo, pmf = 0, first
    while True:
        yield lo, pmf
        lo += len(pmf)
        pmf = _pmf_chunk(prior, area, lo, lo + min(lo, _MAX_CHUNK), tables)


def _expected_l2(m: int, config: DesignConfig, first: np.ndarray, tables):
    """``(e_l2, tail, terms)``: the exact E[L2*(n_bar(N))] over the negative
    binomial predictive of N at m >= 1, the bound on the upper tail mass it
    leaves out, and the pmf terms it sums. ``first`` is the first pmf chunk
    (:func:`_pmf_chunk` over n < :func:`_first_chunk`).

    Sums P(N = n) * (1 - L2*(n)) chunk by chunk (:func:`_pmf_chunks`), so
    memory stays bounded for any prior, until the tail bound falls below
    ``TAIL_MASS`` or the budget rule's q reaches 0, after which every term is
    zero. Any ``tables`` at least as long as ``first`` give the same bits."""
    counts, _, gains = tables
    prior, cost = config.abundance_prior, config.cost
    area = m * cost.quadrant_area
    one_minus_p = area / (prior.rate + area)

    gain = 0.0  # sum of P(N = n) * (1 - L2*(n))
    terms = 0
    for lo, pmf in _pmf_chunks(prior, area, first, tables):
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
    from the cumulative pmf over the chunks of :func:`_expected_l2`, the first
    of them ``size`` long. It walks on past the budget-exhaustion count when
    the median lies there."""
    if m == 0:
        return 0
    prior = config.abundance_prior
    area = m * config.cost.quadrant_area
    mass = 0.0  # P(N < lo)
    for lo, pmf in _pmf_chunks(prior, area, _pmf_chunk(prior, area, 0, size, tables), tables):
        cdf = mass + np.cumsum(pmf)
        idx = int(np.searchsorted(cdf, 0.5))
        if idx < len(pmf):
            return lo + idx
        mass = float(cdf[-1])


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
    """The first-chunk size of every feasible m = 0 .. ``max_quadrants``. The
    one gate of a design walk: before any array is built it rejects, in this
    order, more than ``MAX_QUADRANTS`` quadrants, a mean past ``MAX_MEAN_COUNT``,
    more than ``MAX_CURVE_TERMS`` first-chunk counts and a shape whose log pmf
    (:func:`_log_pmf_from_steps`) would be wrong at some m >= 1: its log-gamma
    passes the largest float (about 2.5e305), or rounding log(b) and
    log(b + mA) moves it past ``_LOG_PMF_TOLERANCE``, checked for m = 1, 2, ..."""
    cost = config.cost
    budget = cost.budget_area / cost.quadrant_area
    if cost.max_quadrants > MAX_QUADRANTS:
        raise ValueError(
            f"cost.budget_quadrant_equivalents {budget:.3g} affords {cost.max_quadrants:.3g} "
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
    if len(sizes) == 1:  # m = 0 alone sums no pmf
        return sizes
    a, b = config.abundance_prior.shape, config.abundance_prior.rate
    try:
        math.lgamma(a)
    except OverflowError:
        raise ValueError(f"abundance_prior shape {a!r} is too large for log-gamma") from None
    ulp_log_b = math.ulp(math.log(b))
    for m in range(1, len(sizes)):
        error = a * (ulp_log_b + math.ulp(math.log(b + m * cost.quadrant_area)))
        if error > _LOG_PMF_TOLERANCE:
            raise ValueError(
                f"abundance_prior shape {a!r} is too large: rounding log(rate) moves the log "
                f"pmf by up to {error:.2g}, past {_LOG_PMF_TOLERANCE:.0e}"
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
    return _optimize_designs([config], [_first_chunks(config)])[0]


def _optimize_designs(configs, sizes) -> list[DesignResult]:
    """:func:`optimize_design` for each config, evaluated together;
    ``sizes[i]`` is ``_first_chunks(configs[i])``.

    Configs with the same abundance prior, quadrant area and composition
    prior form a group. A group shares one set of per-count arrays, as long
    as its longest first chunk, and at each m one first pmf chunk, as long as
    the longest first chunk of its configs there. Each config sums over its
    own prefix of that chunk, which holds the bits the config would compute
    alone: the log pmf's cumulative sum runs in order and every other step
    works element by element. Groups are walked one after another, so one
    group's arrays and one shared chunk are held at a time.

    The budget rule saturates where its products or quotients pass the
    largest float (:func:`_categorized`), so NumPy's overflow warning is off
    for the walk.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        key = (config.abundance_prior, config.cost.quadrant_area, config.composition_prior)
        groups.setdefault(key, []).append(i)
    results = [None] * len(configs)
    with np.errstate(over="ignore"):
        for (prior, quadrant_area, _), members in groups.items():
            tables = _count_tables(configs[members[0]], max(max(sizes[i]) for i in members))
            rows = {i: [_curve_row(0, configs[i], 1.0, 0.0)] for i in members}
            widths = list(map(max, zip_longest(*(sizes[i] for i in members), fillvalue=0)))
            for m in range(1, len(widths)):
                pmf = _pmf_chunk(prior, m * quadrant_area, 0, widths[m], tables)
                for i in members:
                    if m < len(sizes[i]):
                        config = configs[i]
                        e_l2, tail, _ = _expected_l2(m, config, pmf[:sizes[i][m]], tables)
                        rows[i].append(_curve_row(m, config, e_l2, tail))
            for i in members:
                curve = DesignCurve(tuple(rows[i]))
                results[i] = _design_result(configs[i], curve, sizes[i], tables)
    return results


def _design_result(config: DesignConfig, curve: DesignCurve, sizes, tables) -> DesignResult:
    """m* of ``curve``, the first m of least L*, with the predictive median
    and budget split there."""
    rows = curve.rows
    nan = next((row.m for row in rows if math.isnan(row.l_star)), None)
    if nan is not None:
        raise ValueError(f"the expected loss L* is NaN at m={nan}; no design can be chosen")
    m_star = min(range(len(rows)), key=lambda m: rows[m].l_star)
    n = _predictive_median(m_star, config, sizes[m_star], tables)
    n_bar, split = _budget_split(config.cost, rows[m_star].area, n)
    return DesignResult(m_star, curve, n, n_bar, split)


def performance_curve(m: int, abundance_grid, config: DesignConfig) -> tuple[PerformanceRow, ...]:
    """Deterministic second-stage behavior across hypothetical true abundances.

    One row per grid abundance: expected count n = floor(m*A*abundance), the
    budget-implied q, the categorized count n_bar, and the resulting expected
    composition loss.
    """
    cost = config.cost
    if not (0 <= m <= cost.max_quadrants and int(m) == m):  # named by its ends, not listed
        raise ValueError(f"m={_cut(str(m))} outside the feasible set 0..{cost.max_quadrants}")
    grid = np.asarray(abundance_grid, dtype=float)
    bad = grid[~(np.isfinite(grid) & (grid >= 0))]
    if bad.size:
        raise ValueError(f"abundance grid point {bad[0]} is not a finite number >= 0")
    area = m * cost.quadrant_area
    counts = np.floor(area * grid)
    q, n_bar = budget_rule(cost, area, counts)
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
    equivalents), ``prior-mode`` (abundance prior modes, shape fixed). The
    values' designs are optimized together (:func:`_optimize_designs`), and
    each holds the bits it has alone, so a row does not depend on the others
    or on their order. Every value, and the bounds of its design walk, is
    checked before any is optimized; a value that gives no valid
    configuration raises a ``ValueError`` that names the axis and the value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")
    values = [float(value) for value in values]
    if not values:
        raise ValueError("values must be nonempty")
    configs, sizes = [], []
    for value in values:
        try:
            configs.append(_apply_axis(base, axis, value))
            sizes.append(_first_chunks(configs[-1]))
        except ValueError as exc:
            raise ValueError(f"{axis} value {value}: {exc}") from exc
    return [
        SweepRow(axis, value, result.m_star, result.typical_n_bar, result.budget_split["slack"])
        for value, result in zip(values, _optimize_designs(configs, sizes))
    ]


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
