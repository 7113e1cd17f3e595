"""Conjugate posterior inference for abundance and polymer composition.

Abundance: Gamma(shape, rate) prior, Poisson counts over the sampled area,
so the posterior is Gamma(shape + n, rate + m*A). Composition: Dirichlet
prior, Multinomial categorized counts, posterior Dirichlet(gamma + s).
Also provides the naive count-per-area estimator used in current practice,
HPD intervals, density grids for plotting, and a synthetic-data generator
that turns a hypothetical "true" abundance/composition into the expected
observations for a given design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostModel, categorization_fraction, categorized_count
from .distributions import DirichletParams, GammaParams

__all__ = [
    "FieldObservations",
    "CategorizationCounts",
    "PosteriorPair",
    "update_abundance",
    "update_composition",
    "naive_abundance_estimate",
    "hpd_interval",
    "density_grid",
    "apportion_counts",
    "synthesize_expected_data",
]


@dataclass(frozen=True)
class FieldObservations:
    """Suspected-particle counts from m sampled quadrants of equal area (m^2)."""

    quadrant_area: float
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.quadrant_area <= 0:
            raise ValueError("quadrant_area must be positive")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1:
            raise ValueError("need at least one quadrant")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def evenly_spread(cls, quadrant_area: float, m: int, total: int) -> "FieldObservations":
        """``total`` particles over ``m`` quadrants, as evenly as possible
        (the first total mod m quadrants get one more)."""
        base, extra = divmod(total, m)
        return cls(quadrant_area, tuple(base + 1 if j < extra else base for j in range(m)))

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    @property
    def total_area(self) -> float:
        return self.m * self.quadrant_area


@dataclass(frozen=True)
class CategorizationCounts:
    """Spectroscopy results: categorized particles per polymer class."""

    class_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.class_counts)
        if any(c < 0 for c in counts):
            raise ValueError("class counts must be nonnegative")
        object.__setattr__(self, "class_counts", counts)

    @property
    def categorized_total(self) -> int:
        return sum(self.class_counts)


@dataclass(frozen=True)
class PosteriorPair:
    abundance: GammaParams
    composition: DirichletParams


def update_abundance(prior: GammaParams, obs: FieldObservations) -> GammaParams:
    """Conjugate update: Gamma(shape + n, rate + m*A).

    Depends on the observations only through the total count and total area.
    """
    return GammaParams(prior.shape + obs.total_count, prior.rate + obs.total_area)


def update_composition(prior: DirichletParams, cats: CategorizationCounts) -> DirichletParams:
    """Conjugate update: concentration + class counts, componentwise."""
    if len(cats.class_counts) != prior.k:
        raise ValueError(
            f"got {len(cats.class_counts)} class counts for {prior.k} classes"
        )
    return DirichletParams(
        tuple(g + s for g, s in zip(prior.concentration, cats.class_counts))
    )


def naive_abundance_estimate(obs: FieldObservations) -> float:
    """Current-practice point estimate: total count / total sampled area."""
    return obs.total_count / obs.total_area


# Newton steps allowed per HPD endpoint. From the starting points used below
# the iteration converges monotonically, in at most 5 steps for t between
# 1e-14 and 1e6.
_MAX_NEWTON = 100


def _gamma_pdf(x, shape: float, rate: float):
    """Gamma(shape, rate) density at ``x`` >= 0.

    Uses the floating-point steps of ``scipy.stats.gamma.pdf`` (log density
    from ``xlogy`` and ``gammaln``, divided by the scale), so the values are
    bit-identical to it, without importing ``scipy.stats``.
    """
    from scipy import special

    scale = 1.0 / rate
    y = x / scale
    return np.exp(special.xlogy(shape - 1.0, y) - y - special.gammaln(shape)) / scale


def _mode_offset(t: float, w: float) -> float:
    """Solve expm1(w) - w = t (t > 0) by Newton's method from ``w``.

    The left side is convex with its minimum 0 at w = 0, so each of the two
    roots is reached monotonically from a start on its outer side, where the
    left side is >= t. The loop ends once the excess is no longer positive
    (the root, up to rounding) or a step falls below 4 ulp of 1 + |w|.
    """
    for _ in range(_MAX_NEWTON):
        excess = math.expm1(w) - w - t
        if excess <= 0.0:
            return w
        step = excess / math.expm1(w)
        w -= step
        if abs(step) <= 4.0 * math.ulp(1.0 + abs(w)):
            return w
    raise RuntimeError(f"Newton search for expm1(w) - w = {t} did not converge")


def hpd_interval(params: GammaParams, mass: float, *, tol: float = 1e-8, max_iter: int = 200):
    """Highest-posterior-density interval of a Gamma distribution.

    Returns (lower, upper) with lower >= 0. For shape <= 1 the density is
    monotone decreasing, so the interval is left-anchored at 0 and its upper
    end is the ``mass`` quantile. Otherwise the density level is found by
    bisection, until the interval holds ``mass`` to within ``tol`` in
    probability. At each level the endpoints come from the closed-form
    log-density relative to the mode: with x = mode * exp(w), the density
    equals ``level`` where (shape - 1) * (expm1(w) - w) = log(f(mode)/level).
    Newton's method solves this on either side of w = 0 from a start that
    makes it converge monotonically, and stops within a few ulp of the root
    in w: at a given level each endpoint carries a relative error of a few
    1e-15, against high-precision roots.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")
    from scipy import special

    shape = params.shape
    scale = 1.0 / params.rate
    if shape <= 1.0:
        return 0.0, float(special.gammaincinv(shape, mass) * scale)

    mode = params.mode()
    f_mode = float(_gamma_pdf(mode, shape, params.rate))

    def interval_at_level(level):
        t = math.log(f_mode / level) / (shape - 1.0)
        s = math.sqrt(2.0 * t)
        # expm1(w) - w >= t at w = -(s + t), and at w = log1p(t + s) <= s
        # because exp(s) >= 1 + s + t: both starts lie outside their root.
        lower = mode * math.exp(_mode_offset(t, -(s + t)))
        upper = mode * math.exp(_mode_offset(t, math.log1p(t + s)))
        return lower, upper

    lo_level, hi_level = 0.0, f_mode
    for _ in range(max_iter):
        level = 0.5 * (lo_level + hi_level)
        lower, upper = interval_at_level(level)
        contained = special.gammainc(shape, upper / scale) - special.gammainc(shape, lower / scale)
        if abs(contained - mass) < tol:
            return float(lower), float(upper)
        if contained > mass:
            lo_level = level
        else:
            hi_level = level
    raise RuntimeError(
        f"HPD search did not converge for Gamma(shape={params.shape}, "
        f"rate={params.rate}) at mass {mass}: level bracket "
        f"[{lo_level}, {hi_level}], last mass {contained}"
    )


def density_grid(params, grid, component: int | None = None) -> np.ndarray:
    """Pointwise densities on a grid, for plotting posterior curves.

    With ``GammaParams``: the Gamma density; grid points must be >= 0. With
    ``DirichletParams`` and a ``component`` index i: the marginal density of
    proportion i, which is Beta(gamma_i, gamma_0 - gamma_i); grid points must
    lie in [0, 1]. Gamma densities need ``scipy.special`` and Beta marginals
    ``scipy.stats``; each is imported on first use.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(params, GammaParams):
        bad = grid[grid < 0]
        if bad.size:
            raise ValueError(f"grid point {bad[0]} outside support [0, inf)")
        return _gamma_pdf(grid, params.shape, params.rate)
    if isinstance(params, DirichletParams):
        if component is None:
            raise ValueError("component index required for Dirichlet marginals")
        if not 0 <= component < params.k:
            raise ValueError(f"component {component} out of range for k={params.k}")
        bad = grid[(grid < 0) | (grid > 1)]
        if bad.size:
            raise ValueError(f"grid point {bad[0]} outside support [0, 1]")
        from scipy.stats import beta

        gi = params.concentration[component]
        return beta.pdf(grid, gi, params.total - gi)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def apportion_counts(total: int, proportions) -> tuple[int, ...]:
    """Integer split of ``total`` proportional to ``proportions``.

    Largest-remainder rounding; the result always sums to ``total`` exactly.
    """
    p = np.asarray(proportions, dtype=float)
    if total < 0:
        raise ValueError("total must be nonnegative")
    raw = total * p / p.sum()
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return tuple(int(x) for x in base)


def synthesize_expected_data(
    true_abundance: float,
    true_proportions,
    m: int,
    quadrant_area: float,
    cost: CostModel,
    total_count: int | None = None,
):
    """Expected observations for a design under assumed true parameter values.

    The total count is floor(m * A * true_abundance) (only the total enters
    the posterior), spread as evenly as possible across quadrants. The
    categorized count follows the budget rule n_bar = floor(n * q(m*A, n)),
    split across classes by largest-remainder rounding of the true
    proportions. ``total_count`` overrides the derived n when a scenario
    specifies the observed total directly.
    """
    p = np.asarray(true_proportions, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError("true_proportions must be a probability vector")
    if true_abundance <= 0 or m < 1:
        raise ValueError("invalid scenario")
    n = math.floor(m * quadrant_area * true_abundance) if total_count is None else int(total_count)
    obs = FieldObservations.evenly_spread(quadrant_area, m, n)
    n_bar = categorized_count(n, categorization_fraction(cost, m * quadrant_area, n))
    cats = CategorizationCounts(apportion_counts(n_bar, p))
    return obs, cats
