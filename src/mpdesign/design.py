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

The pmf is a running product, P(n) = P(n - 1) * ((n - 1 + a) / n) * (1 - p),
of IEEE basic operations taken in order, from one anchor per design point
(:func:`_anchor`): P(0) = exp(-a log1p(mA/b)), or, where that underflows, the
log-gamma form at the first count whose log pmf reaches ``_LOG_ANCHOR``. The
anchor holds the walk's only rounded results of the C library (``log1p``,
``exp``, ``lgamma``). Every other step is a basic operation, an in-order
accumulation or NumPy's pairwise sum, so the curve does not depend on
NumPy's SIMD level or on a BLAS. The walk runs on lists in Python
(:class:`_ListWalk`) or on NumPy arrays (:class:`_ArrayWalk`), which give the
same bits. The array walk applies the budget rule at every count. The list
walk takes n_bar by runs (:func:`cost._categorized_runs`): n_bar = n up to
the first count whose q < 1 and 0 from the first whose q = 0, and in between
it is the floor of a linear v(n) up to rounding, so a run whose v stays a
guard band clear of whole numbers at both ends has one n_bar. The guard band,
far wider than the rounding of n*q, is the proof that this n_bar is
floor(n*q) at every count of the run. A call
whose first pmf chunks hold at most ``_PYTHON_WALK_TERMS`` terms walks in
Python unless NumPy is loaded already, so that a cold command skips NumPy's
import (:func:`_choose_walk`); the module imports NumPy only inside the array
walk.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, repeat, zip_longest
from operator import mul

from ._record import Record
from ._special import _linspace, _pairwise_sum
from .config import DesignConfig
from .cost import (
    CostModel, _budget_split, _categorizable, _categorized, _categorized_bounds, _categorized_list,
    _categorized_runs, _exhausted_at, _fractions, budget_rule,
)
from .distributions import GammaParams
from .io import _cut
from .loss import _l2, l1_expected

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
# Largest error allowed in the exponent of the pmf's anchor: a times an ulp
# of log(b) and of log(b + mA), the size of the rounding in a * log1p(mA/b)
# and in the log-gamma form's terms; past it every loss is silently wrong.
_LOG_PMF_TOLERANCE = 1e-8
# Log pmf at which the product starts when P(0) = p^a is below exp of it;
# every count before that start is below exp(-700), about 1e-304, and taken as 0.
_LOG_ANCHOR = -700.0
# First-chunk terms up to which a walk runs in Python when NumPy is not
# loaded. The Python walk costs about 150-240 ns a term; in alternating cold
# `design` runs on the baseline prior (shared 2-vCPU Xeon, where NumPy's
# import took about 110-150 ms) it broke even with the array walk between
# B = 80 (636,707 terms) and B = 90 (805,418). The threshold stays well below
# that: it counts first chunks only, and a point whose later chunks far
# outnumber its first (r1 near 0) can walk ten times as long on lists.
_PYTHON_WALK_TERMS = 250_000
# Share of a design's least L* so far that a point's lower bound must pass
# before the m*-only walk skips the point (:func:`_bounded_visits`): far above
# the walk's rounding of L*, so a skipped point is neither m* nor tied with it.
_BOUND_MARGIN = 1e-9

# Output columns of a design curve, a performance curve and a sensitivity
# sweep, in file order. The rows are named tuples with their fields in this
# order, so each row is a line of its table as it stands.
DESIGN_COLUMNS = ("m", "area", "L1_star", "E_L2_star", "E_L2_se", "L_star", "L_star_se")
CURVES_COLUMNS = ("lambda", "n", "q", "n_bar", "L2_star")
SENSITIVITY_COLUMNS = ("axis", "value", "m_star", "typical_n_bar", "budget_slack")


# A design point: its m and sampled area, L1*, E[L2*] and the truncated tail
# mass e_l2_se that bounds E[L2*]'s error, L* and (1 - w) * e_l2_se. The rows
# are ``collections.namedtuple``s, so a command that builds them loads no
# ``typing``.
DesignCurveRow = namedtuple(
    "DesignCurveRow", ("m", "area", "l1_star", "e_l2_star", "e_l2_se", "l_star", "l_star_se")
)


class DesignCurve(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[DesignCurveRow, ...]):
        # rows[m] is the design point at m, or None where an m*-only walk skipped it
        object.__setattr__(self, "rows", rows)


class DesignResult(Record):
    """The optimal design, its curve, and the budget at the typical count.

    ``typical_n`` is the predictive median total count at m*,
    ``typical_n_bar`` its categorized count from :func:`budget_rule`, and
    ``budget_split`` the fractions of the budget that sampling, counting and
    categorization take there, with the slack left over.
    """

    __slots__ = ("m_star", "curve", "typical_n", "typical_n_bar", "budget_split")

    def __init__(
        self,
        m_star: int,
        curve: DesignCurve,
        typical_n: int,
        typical_n_bar: int,
        budget_split: dict[str, float],
    ):
        object.__setattr__(self, "m_star", m_star)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "typical_n", typical_n)
        object.__setattr__(self, "typical_n_bar", typical_n_bar)
        object.__setattr__(self, "budget_split", budget_split)

    def __hash__(self):  # without the budget_split dict, so the result stays hashable
        return hash(self._fields()[:-1])

    @property
    def optimal_row(self) -> DesignCurveRow:
        return self.curve.rows[self.m_star]


PerformanceRow = namedtuple("PerformanceRow", ("true_abundance", "n", "q", "n_bar", "l2_star"))
SweepRow = namedtuple("SweepRow", ("axis", "value", "m_star", "typical_n_bar", "budget_slack"))


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


def _anchor(prior: GammaParams, area: float) -> tuple[int, float]:
    """``(n0, P(N = n0))``, where the pmf's product starts at a sampled area > 0.

    N is negative binomial: P(N = n) = G(n+a)/(G(a) n!) p^a (1-p)^n with
    a = shape and p = rate/(rate + area) (rate parametrization), so
    log p = -log1p(mA/b), which does not cancel when b << mA. The anchor is
    n0 = 0 with P(0) = exp(a log p), unless a log p is below ``_LOG_ANCHOR``:
    then n0 is the first count whose log pmf in log-gamma form, with
    log(1 - p) = -log1p(b/mA), reaches it, found by bisection below the mode,
    and every count below n0 is taken as 0. The prior and area must have
    passed :func:`_first_chunks`.
    """
    a, b = prior.shape, prior.rate
    log_p = -math.log1p(area / b)
    if a * log_p >= _LOG_ANCHOR:
        return 0, math.exp(a * log_p)
    # a > 1 here: a mean count a * mA/b of at most MAX_MEAN_COUNT keeps
    # a * log1p(mA/b) far below 700 for any a <= 1
    log_1mp = -math.log1p(b / area)

    def log_pmf(n: int) -> float:
        return (
            math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1.0)
            + a * log_p + n * log_1mp
        )

    below, at = 0, math.ceil((a - 1.0) * area / b)  # log_pmf(at) is near the peak
    while at - below > 1:
        mid = (below + at) // 2
        if log_pmf(mid) < _LOG_ANCHOR:
            below = mid
        else:
            at = mid
    return at, math.exp(log_pmf(at))


class _ListWalk:
    """The steps of the design walk on lists of Python floats.

    Each step is :class:`_ArrayWalk`'s, one count at a time: the same basic
    operations in the same order, the running product in one comprehension
    that carries it, p = p * (r * omp), the sums by
    ``_special._pairwise_sum`` (NumPy's pairwise order) and the median by
    ``bisect`` on the running sums, so every result has the same bits. The
    one exception is n_bar, which comes by runs (:func:`cost._categorized_runs`):
    the budget rule runs only at the ends of each run and where v(n) lies
    within the guard band of a whole number, and the guard band is the proof
    that each count of a run has the n_bar that the rule gives it, so every
    weight, filled run by run, and every term has the same bits as well.
    """

    @staticmethod
    def tables(config: DesignConfig, size: int, tables=None):
        """The per-count lists that no design point changes: the pmf's ratios
        ((n - 1) + a) / n over n = 0 .. size - 1 (index n, from 1), and the
        gain weights 1 - L2*(n) over n < :func:`_gain_length`; and the
        composition prior's total g0, from which :meth:`gain` computes any
        weight past them. ``DirichletParams.total`` is a sum over the
        classes on every access, so it is read here once. Given ``tables``
        built for ``config`` at a smaller size, it extends their lists in
        place; each entry is computed alone, so it has the same bits."""
        a = config.abundance_prior.shape
        if tables is None:
            tables = [0.0], [], config.composition_prior.total
        ratios, gains, g0 = tables
        ratios += [((n - 1.0) + a) / n for n in map(float, range(len(ratios), size))]
        gains += [1.0 - _l2(n, g0) for n in range(len(gains), _gain_length(config, size))]
        return tables

    @staticmethod
    def pmf(tables, a: float, omp: float, anchor, lo: int, hi: int, prev: float) -> list:
        """P(N = n) for n = lo .. hi - 1 (see :func:`_pmf_chunk`)."""
        ratios = tables[0]
        n0, value = anchor
        start = max(lo, n0)
        if start >= hi:
            return [0.0] * (hi - lo)
        pmf = [0.0] * (start - lo)
        p = prev
        if start == n0:
            pmf.append(value)
            p = value
            start += 1
        if hi <= len(ratios):
            pmf += [p := p * (r * omp) for r in ratios[start:hi]]
        else:
            pmf += [p := p * (((n - 1.0) + a) / n * omp) for n in range(start, hi)]
        return pmf

    @staticmethod
    def gain(config: DesignConfig, area: float, pmf, lo: int, tables) -> tuple[float, float]:
        """(sum of P(N = n) * (1 - L2*(n_bar(n))) over the chunk, q at its last
        count), with the weights filled run by run of n_bar."""
        _, gains, g0 = tables
        hi = lo + len(pmf)
        weights = []
        start = lo
        for stop, n_bar in _categorized_runs(config.cost, area, lo, hi):
            if n_bar is None:  # n_bar = n
                weights += gains[start:stop]
                weights += [1.0 - _l2(n, g0) for n in range(max(start, len(gains)), stop)]
            else:
                weight = gains[n_bar] if n_bar < len(gains) else 1.0 - _l2(n_bar, g0)
                weights += repeat(weight, stop - start)
            start = stop
        q_last = _fractions(config.cost, area, (hi - 1,))[0]
        return _pairwise_sum(list(map(mul, pmf, weights))), q_last

    @staticmethod
    def search(pmf, mass: float) -> tuple[int, float]:
        """(the first i at which ``mass``, P(N < lo), plus the chunk's running
        sum reaches 1/2, or len(pmf) if none; and ``mass`` plus the chunk's sum)."""
        sums = list(accumulate(pmf))
        return bisect_left(sums, 0.5, key=lambda total: mass + total), mass + sums[-1]


class _ArrayWalk:
    """The steps of the design walk on NumPy arrays; see :class:`_ListWalk`."""

    @staticmethod
    def tables(config: DesignConfig, size: int):
        """The counts n = 0 .. size - 1 as floats, then :meth:`_ListWalk.tables`,
        its lists as arrays of the same bits, all read-only; a design point
        slices the counts and ratios for every chunk that ends below ``size``."""
        import numpy as np

        g0 = config.composition_prior.total
        counts = np.arange(size, dtype=np.float64)
        ratios = np.zeros(size)
        np.divide(counts[:-1] + config.abundance_prior.shape, counts[1:], out=ratios[1:])
        gains = 1.0 - _l2(np.arange(_gain_length(config, size), dtype=np.float64), g0)
        for table in (counts, ratios, gains):
            table.flags.writeable = False
        return counts, ratios, gains, g0

    @staticmethod
    def pmf(tables, a: float, omp: float, anchor, lo: int, hi: int, prev: float):
        import numpy as np

        ratios = tables[1]
        n0, value = anchor
        start = max(lo, n0)
        if start >= hi:
            return np.zeros(hi - lo)
        if hi <= len(ratios):
            factors = ratios[start:hi] * omp
        else:
            n = np.arange(start, hi, dtype=np.float64)
            factors = (n - 1.0 + a) / n * omp
        factors[0] = value if start == n0 else prev * factors[0]
        pmf = np.multiply.accumulate(factors)
        return pmf if start == lo else np.concatenate((np.zeros(start - lo), pmf))

    @staticmethod
    def gain(config: DesignConfig, area: float, pmf, lo: int, tables) -> tuple[float, float]:
        import numpy as np

        counts, _, gains, g0 = tables
        hi = lo + len(pmf)
        inside = hi <= len(counts)
        n = counts[lo:hi] if inside else np.arange(lo, hi, dtype=np.float64)
        q = np.empty(hi - lo)
        n_bar = _categorized(config.cost, area, n, q, np.empty(hi - lo))
        if inside:  # n_bar <= n < size and n_bar <= 1/(c*r2) + 1: a gather (_gain_length)
            weights = gains[n_bar.astype(np.intp)]
        else:
            weights = 1.0 - _l2(n_bar, g0)
        terms = np.multiply(pmf, weights, out=weights)
        return float(np.add.reduce(terms)), float(q[-1])

    @staticmethod
    def search(pmf, mass: float) -> tuple[int, float]:
        import numpy as np

        cdf = mass + np.cumsum(pmf)
        return int(np.searchsorted(cdf, 0.5)), float(cdf[-1])


def _gain_length(config: DesignConfig, size: int) -> int:
    """The gain tables' length: n up to 1/(c*r2) + 1 of ``config``'s cost, past
    any n_bar that its rule gives, or up to ``size`` + 1, past every table count."""
    return int(min(_categorizable(config.cost), size)) + 2


def _choose_walk(sizes) -> type:
    """The walk of a call whose designs have the first-chunk sizes ``sizes``:
    :class:`_ArrayWalk` when NumPy is loaded already, or when the chunks hold
    more than ``_PYTHON_WALK_TERMS`` terms in all, else :class:`_ListWalk`."""
    if sys.modules.get("numpy") is not None or sum(map(sum, sizes)) > _PYTHON_WALK_TERMS:
        return _ArrayWalk
    return _ListWalk


def _pmf_chunk(walk, tables, prior: GammaParams, area: float, lo: int, hi: int, prev=0.0):
    """P(N = n) for n = lo .. hi - 1 at a sampled area > 0, where ``prev`` is
    P(N = lo - 1), in ``walk``'s lists or arrays. The product runs from the
    anchor (:func:`_anchor`) when it lies in the chunk, else from ``prev``;
    counts before the anchor are 0. A chunk inside ``tables`` slices their
    ratios; one that reaches past them computes its own."""
    omp = area / (prior.rate + area)
    return walk.pmf(tables, prior.shape, omp, _anchor(prior, area), lo, hi, prev)


def _pmf_chunks(walk, tables, prior: GammaParams, area: float, first):
    """The predictive pmf of N at a sampled area > 0, chunk by chunk: yields
    ``(lo, pmf)`` with pmf[i] = P(N = lo + i). The first chunk is ``first``,
    the pmf over n < len(first) (:func:`_first_chunk` counts); each later one
    holds as many counts as all before it, up to ``_MAX_CHUNK``, and carries
    the product on from the last value of the one before."""
    lo, pmf = 0, first
    while True:
        yield lo, pmf
        lo += len(pmf)
        pmf = _pmf_chunk(walk, tables, prior, area, lo, lo + min(lo, _MAX_CHUNK), float(pmf[-1]))


def _expected_l2(m: int, config: DesignConfig, first, tables, walk):
    """``(e_l2, tail, terms)``: the exact E[L2*(n_bar(N))] over the negative
    binomial predictive of N at m >= 1, the bound on the upper tail mass it
    leaves out, and the pmf terms it sums. ``first`` is the first pmf chunk
    (:func:`_pmf_chunk` over n < :func:`_first_chunk`).

    Sums P(N = n) * (1 - L2*(n)) chunk by chunk (:func:`_pmf_chunks`), so
    memory stays bounded for any prior, until the tail bound falls below
    ``TAIL_MASS`` or the budget rule's q reaches 0, after which every term is
    zero. Any ``tables`` at least as long as ``first`` give the same bits."""
    prior, cost = config.abundance_prior, config.cost
    area = m * cost.quadrant_area
    one_minus_p = area / (prior.rate + area)

    gain = 0.0  # sum of P(N = n) * (1 - L2*(n))
    terms = 0
    for lo, pmf in _pmf_chunks(walk, tables, prior, area, first):
        chunk_gain, q_last = walk.gain(config, area, pmf, lo, tables)
        gain += chunk_gain
        terms += len(pmf)
        if not q_last > 0.0:  # q is nonincreasing in n: no later count is categorized
            return 1.0 - gain, 0.0, terms
        tail = _tail_bound(float(pmf[-1]), lo + len(pmf) - 1, prior.shape, one_minus_p)
        if tail < TAIL_MASS:
            return 1.0 - gain, tail, terms


def _predictive_median(m: int, config: DesignConfig, size: int, tables, walk, first=None) -> int:
    """Predictive median of N at m, the first n with P(N <= n) >= 1/2, read
    from the running sums of the pmf over the chunks of :func:`_expected_l2`,
    the first of them ``size`` long: ``first``, the chunk that the design
    walk summed there, or built anew. It walks on past the budget-exhaustion
    count when the median lies there."""
    if m == 0:
        return 0
    prior = config.abundance_prior
    area = m * config.cost.quadrant_area
    if first is None:
        first = _pmf_chunk(walk, tables, prior, area, 0, size)
    mass = 0.0  # P(N < lo)
    for lo, pmf in _pmf_chunks(walk, tables, prior, area, first):
        index, mass = walk.search(pmf, mass)
        if index < len(pmf):
            return lo + index


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
    one gate of a design walk: before any table is built it rejects, in this
    order, more than ``MAX_QUADRANTS`` quadrants, a mean past ``MAX_MEAN_COUNT``,
    more than ``MAX_CURVE_TERMS`` first-chunk counts and a shape whose pmf
    anchor (:func:`_anchor`) would be wrong at some m >= 1: its log-gamma
    passes the largest float (about 2.5e305), or a times an ulp of log(b) and
    of log(b + mA) passes ``_LOG_PMF_TOLERANCE``, checked for m = 1, 2, ..."""
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
    built. The per-count tables are built once, for the largest first chunk,
    and every design point reads them. Only m* reads the predictive
    median, for the typical-count summary.
    """
    return _optimize_designs([config], [_first_chunks(config)])[0]


def _optimize_designs(configs, sizes, walk=None, m_star_only=False) -> list[DesignResult]:
    """:func:`optimize_design` for each config, evaluated together;
    ``sizes[i]`` is ``_first_chunks(configs[i])``. The walk is ``walk``,
    :class:`_ListWalk` or :class:`_ArrayWalk`, or by default the one that
    :func:`_choose_walk` picks for all the configs at once.

    Configs with the same abundance prior, quadrant area and composition
    prior form a group. A group shares one set of per-count tables, built
    for its longest first chunk (on lists, the m*-only walk grows them to the
    longest chunk it visits), and at each m one first pmf chunk, as long as
    the longest first chunk of its configs walked there. A group of one
    config keeps the first chunk at its least L* so far, from which the
    median at m* is read. Each config sums
    over its own prefix of that chunk, which holds the bits the config would
    compute alone: the pmf's product runs in order and every other step
    works count by count. Groups are walked one after another, so one
    group's tables and one shared chunk are held at a time.

    With ``m_star_only`` the walk is branch and bound, for callers that read
    only m* and what lies at it: it visits a group's m in order of the least
    lower bound of its configs there (:func:`_loss_bounds`) and skips a
    config's point whose bound passes that config's least L* so far by more
    than ``_BOUND_MARGIN``, so a skipped point can be neither m* nor tie with
    it. Each result's curve holds None at the m it skipped; every row it
    holds has the bits of the full walk's, and its m*, typical counts and
    budget split are the full walk's.

    The budget rule saturates where its products or quotients pass the
    largest float (:func:`_categorized`), so NumPy's overflow warning is off
    for the array walk.
    """
    if walk is None:
        walk = _choose_walk(sizes)
    if walk is _ListWalk:
        return _walk_groups(configs, sizes, walk, m_star_only)
    import numpy as np

    with np.errstate(over="ignore"):
        return _walk_groups(configs, sizes, walk, m_star_only)


def _walk_groups(configs, sizes, walk, m_star_only) -> list[DesignResult]:
    """The body of :func:`_optimize_designs`, on ``walk``."""
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        key = (config.abundance_prior, config.cost.quadrant_area, config.composition_prior)
        groups.setdefault(key, []).append(i)
    results = [None] * len(configs)
    for (prior, quadrant_area, composition_prior), members in groups.items():
        # the member whose budget categorizes the most counts sizes the gain weights
        lead = configs[max(members, key=lambda i: _categorizable(configs[i].cost))]
        # the m*-only walk skips most long chunks, so on lists, which cost the
        # most to build, the tables grow to the longest chunk it visits
        grow = m_star_only and walk is _ListWalk
        tables = walk.tables(lead, 0 if grow else max(max(sizes[i]) for i in members))
        rows = {i: [_curve_row(0, configs[i], 1.0, 0.0)] + [None] * (len(sizes[i]) - 1)
                for i in members}
        if m_star_only:
            visits = _bounded_visits(configs, members, rows, composition_prior.total)
        else:
            visits = _every_visit(sizes, members)
        # a lone member's (L*, m, first pmf chunk) at its least L* so far, the
        # smaller m among ties, for its median; kept for one member, since a
        # chunk for each would make memory grow with the group
        least = None
        for m, live in visits:
            width = max(sizes[i][m] for i in live)
            if grow:
                walk.tables(lead, width, tables)
            pmf = _pmf_chunk(walk, tables, prior, m * quadrant_area, 0, width)
            for i in live:
                config, size = configs[i], sizes[i][m]
                first = pmf if size == width else pmf[:size]  # a list's slice is a copy
                e_l2, tail, _ = _expected_l2(m, config, first, tables, walk)
                row = rows[i][m] = _curve_row(m, config, e_l2, tail)
                if len(members) == 1 and (least is None or (row.l_star, m) < least[:2]):
                    least = (row.l_star, m, first)
        for i in members:
            results[i] = _design_result(configs[i], rows[i], sizes[i], tables, walk, least)
    return results


def _every_visit(sizes, members):
    """The full walk's visits: ``(m, live)`` for m = 1, 2, ... up to the
    group's largest feasible m, ``live`` the members feasible at m."""
    for m in range(1, max(len(sizes[i]) for i in members)):
        yield m, [i for i in members if m < len(sizes[i])]


def _bounded_visits(configs, members, rows, g0: float):
    """The m*-only walk's visits: ``(m, live)``, m = 1, 2, ... in order of
    the least bound LB(m) of the group's members feasible at m (the smaller
    m first among equal bounds), ``live`` those members whose bound there
    does not pass their least L* so far by more than ``_BOUND_MARGIN``; an m
    with none is not visited. After each visit it reads back rows[i][m], which
    the caller has filled, for each live member i. It stops once the least
    bound passes every member's incumbent, since no later m can beat one.
    A member's incumbent starts at its m = 0 row, which is always walked."""
    bounds = {i: _loss_bounds(configs[i], g0) for i in members}
    best = {i: rows[i][0].l_star for i in members}
    least = list(map(min, zip_longest(*bounds.values(), fillvalue=math.inf)))
    scale = 1.0 + _BOUND_MARGIN
    for m in sorted(range(1, len(least)), key=least.__getitem__):
        if least[m] > max(best.values()) * scale:
            return
        live = [i for i in members if m < len(bounds[i]) and not bounds[i][m] > best[i] * scale]
        if live:
            yield m, live
            for i in live:
                best[i] = min(best[i], rows[i][m].l_star)  # a NaN L* leaves best as it was


def _loss_bounds(config: DesignConfig, g0: float) -> list[float]:
    """A lower bound LB(m) on L*(m), for m = 0 .. ``max_quadrants`` in one
    pass, at the composition prior's total ``g0``:

        LB(m) = w L1*(m) + (1 - w) L2*(x_m),  x_m = min(a mA/b, K)(1 + 1e-12) + 1,

    with K = max(1/c - mA, 0)/(r1 + r2) (:func:`cost._categorized_bounds`).
    It holds for these reasons:

    - n_bar <= n and r2 n_bar <= 1/c - mA - n r1 wherever n_bar >= 1, so
      n_bar (r1 + r2) <= 1/c - mA, and n_bar <= K at every count.
    - So E[n_bar(N)] <= E[min(N, K)] <= min(E[N], K), where E[N] = a mA/b.
    - L2*(n_bar) simplifies to g0/(g0 + n_bar), which is convex and
      decreasing, so by Jensen E[L2*(n_bar)] >= L2*(E[n_bar]) >= L2*(x_m).
    - The walk's ``E_L2_star`` counts the truncated tail, and the counts
      before the pmf's anchor, at L2* = 1, so up to its rounding it is at
      least the exact value.
    - The factor 1 + 1e-12 and the +1 cover the rounding of the float rule's
      n_bar and of the float mean; ``_BOUND_MARGIN`` covers the rest.

    L1* takes the steps of :func:`l1_expected`, unchecked. The bound is
    finite at every m that :func:`_first_chunks` admits: the mean is at most
    ``MAX_MEAN_COUNT`` and K is never NaN, so 1 <= x_m < inf."""
    cost = config.cost
    a, b = config.abundance_prior.shape, config.abundance_prior.rate
    w = L1_WEIGHT
    areas = [m * cost.quadrant_area for m in range(cost.max_quadrants + 1)]
    xs = _categorized_bounds(cost, areas, [a * area / b for area in areas])
    return [w * (1.0 / (1.0 + area / b)) + (1.0 - w) * _l2(x, g0) for area, x in zip(areas, xs)]


def _design_result(config: DesignConfig, rows, sizes, tables, walk, least=None) -> DesignResult:
    """m*, the first m of least L* among the walked ``rows`` (rows[m] is the
    point at m, or None where an m*-only walk skipped it), with the
    predictive median and budget split there. ``least`` is the walk's
    ``(L*, m, first pmf chunk)`` at the least L* among m >= 1, whose chunk
    the median reads where that m is m*. A NaN L* in any walked row is an
    error."""
    walked = [row for row in rows if row is not None]
    nan = next((row.m for row in walked if math.isnan(row.l_star)), None)
    if nan is not None:
        raise ValueError(f"the expected loss L* is NaN at m={nan}; no design can be chosen")
    m_star = min(walked, key=lambda row: row.l_star).m
    first = least[2] if least is not None and least[1] == m_star else None
    n = _predictive_median(m_star, config, sizes[m_star], tables, walk, first)
    n_bar, split = _budget_split(config.cost, rows[m_star].area, n)
    return DesignResult(m_star, DesignCurve(tuple(rows)), n, n_bar, split)


def performance_curve(m: int, abundance_grid, config: DesignConfig) -> list[PerformanceRow]:
    """Deterministic second-stage behavior across hypothetical true abundances.

    One row per grid abundance: expected count n = floor(m*A*abundance), its
    q and categorized count n_bar as :func:`budget_rule` reports them, and the
    resulting expected composition loss. The grid is any iterable of numbers;
    the rows are a list.
    """
    cost = config.cost
    if not (0 <= m <= cost.max_quadrants and int(m) == m):  # named by its ends, not listed
        raise ValueError(f"m={_cut(str(m))} outside the feasible set 0..{cost.max_quadrants}")
    grid = [float(x) for x in abundance_grid]
    for x in grid:
        if not (x >= 0.0 and math.isfinite(x)):
            raise ValueError(f"abundance grid point {x} is not a finite number >= 0")
    area, g0 = m * cost.quadrant_area, config.composition_prior.total
    counts = [area * x for x in grid]
    if math.inf in counts:  # raises the rule's error for a count past the largest float
        budget_rule(cost, area, math.inf)
    counts = list(map(math.floor, counts))
    rows = zip(grid, counts, *_categorized_list(cost, area, counts))
    return [PerformanceRow(*row, _l2(row[-1], g0)) for row in rows]


def default_abundance_grid(config: DesignConfig, points: int = 200) -> list[float]:
    """Evenly spaced true-abundance grid over (0, 4 * prior mode], or up to
    4 * prior mean when the shape is at most 1, as a list."""
    prior = config.abundance_prior
    center, value = ("mode", prior.mode()) if prior.shape > 1 else ("mean", prior.mean())
    top = 4.0 * value
    if not top < math.inf:
        raise ValueError(f"abundance_prior {center} {value!r} is too large: 4 times it overflows")
    return _linspace(top / points, top, points)


def sensitivity_sweep(base: DesignConfig, axis: str, values) -> list[SweepRow]:
    """Re-optimize the design along one input axis.

    Axes: ``r2`` (categorize-ratio multipliers), ``budget`` (quadrant
    equivalents), ``prior-mode`` (abundance prior modes, shape fixed). The
    values' designs are optimized together (:func:`_optimize_designs`), and
    each holds the bits it has alone, so a row does not depend on the others
    or on their order. A row holds only m* and what lies at it, so the walk
    is m*-only: it skips every design point whose lower bound on L* shows
    that it cannot be m*, and gives the m*, typical n_bar and slack of the
    full walk. Every value, and the bounds of its design walk, is checked
    before any is optimized; a value that gives no valid configuration raises
    a ``ValueError`` that names the axis and the value.
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
        for value, result in zip(values, _optimize_designs(configs, sizes, m_star_only=True))
    ]


def _apply_axis(base: DesignConfig, axis: str, value: float) -> DesignConfig:
    prior, cost = base.abundance_prior, base.cost
    if axis == "r2":
        cost = CostModel(
            cost.quadrant_area, cost.budget_coefficient, cost.count_ratio,
            cost.categorize_ratio * value,
        )
    elif axis == "budget":
        cost = CostModel.from_budget_quadrants(
            cost.quadrant_area, value, cost.count_ratio, cost.categorize_ratio
        )
    else:  # prior-mode
        prior = GammaParams.from_mode(prior.shape, value)
    return DesignConfig(prior, base.composition_prior, cost)
