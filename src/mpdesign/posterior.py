"""Conjugate posterior inference for abundance and polymer composition.

Abundance: Gamma(shape, rate) prior, Poisson counts over the sampled area,
so the posterior is Gamma(shape + n, rate + m*A). Composition: Dirichlet
prior, Multinomial categorized counts, posterior Dirichlet(gamma + s).
Also provides the naive count-per-area estimator used in current practice,
HPD intervals, the densities behind plotted posterior curves, and a
synthetic-data generator that turns a hypothetical "true"
abundance/composition into the expected observations for a given design.

Everything here runs on lists and ``math``, on the special functions of
``mpdesign._special``. It loads no SciPy, and NumPy only for the HPD
interval's long series past a shape of about 2e5 and in the budget rule
that :func:`synthesize_expected_data` calls. A density grid is
``_linspace_from_zero``, NumPy's ``linspace`` from 0 bit for bit; its
densities are ``_gamma_density`` and ``_beta_marginal``.
"""

from __future__ import annotations

import math
import operator

from ._record import Record
from ._special import (
    _MAX_NEWTON, _beta_pdf, _erfinv, _gamma_pdf, _gamma_quantile, _gammainc, _log_gamma_weight,
    _pairwise_sum,
)
from .cost import CostModel, budget_rule
from .distributions import DirichletParams, GammaParams

__all__ = [
    "FieldObservations",
    "CategorizationCounts",
    "update_abundance",
    "update_composition",
    "naive_abundance_estimate",
    "hpd_interval",
    "apportion_counts",
    "synthesize_expected_data",
]


class FieldObservations(Record):
    """Suspected-particle counts from m sampled quadrants of equal area (m^2)."""

    __slots__ = ("quadrant_area", "counts")

    def __init__(self, quadrant_area: float, counts: tuple[int, ...]):
        if not (quadrant_area > 0 and math.isfinite(quadrant_area)):
            raise ValueError(
                f"quadrant_area must be positive and finite, got {quadrant_area!r}"
            )
        counts = tuple(int(c) for c in counts)
        if len(counts) < 1:
            raise ValueError("need at least one quadrant")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "quadrant_area", quadrant_area)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def evenly_spread(cls, quadrant_area: float, m: int, total: int) -> "FieldObservations":
        """``total`` particles over ``m`` quadrants, as evenly as possible
        (the first total mod m quadrants get one more)."""
        if m < 1:
            raise ValueError(f"m must be at least 1 quadrant, got {m}")
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


class CategorizationCounts(Record):
    """Spectroscopy results: categorized particles per polymer class."""

    __slots__ = ("class_counts",)

    def __init__(self, class_counts: tuple[int, ...]):
        counts = tuple(int(c) for c in class_counts)
        if any(c < 0 for c in counts):
            raise ValueError("class counts must be nonnegative")
        object.__setattr__(self, "class_counts", counts)

    @property
    def categorized_total(self) -> int:
        return sum(self.class_counts)


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


def _level_offsets(t: float) -> tuple[float, float]:
    """(w_lo, w_hi), the two roots of expm1(w) - w = t > 0."""
    s = math.sqrt(2.0 * t)
    # expm1(w) - w >= t at w = -(s + t), and at w = log1p(t + s) <= s
    # because exp(s) >= 1 + s + t: both starts lie outside their root.
    return _mode_offset(t, -(s + t)), _mode_offset(t, math.log1p(t + s))


# Largest shape whose HPD interval is computed. The incomplete gamma series
# of ``_gamma_tail`` has about sqrt(78 shape) terms, in NumPy past 4,096: at
# the bound one interval takes about 27 ms and 18 MB (2-core Xeon), and its
# mass is within 1e-11 of 50-digit mpmath.
_MAX_HPD_SHAPE = 1e10


def hpd_interval(params: GammaParams, mass: float):
    """Highest-posterior-density interval of a Gamma distribution.

    Returns (lower, upper) with lower >= 0. For shape <= 1 the density is
    monotone decreasing, so the interval is left-anchored at 0 and its upper
    end is the ``mass`` quantile, ``_gamma_quantile`` times the scale.
    Otherwise the interval is {x : f(x) >= level}. With x = mode * exp(w)
    and t = log(f(mode) / level) / (shape - 1), its ends are the two roots of
    expm1(w) - w = t (``_mode_offset``). The mass M(t) between them, two calls
    to ``_gammainc`` at rate 1, rises with t, and in closed form
    dM/dt = exp(W - (shape - 1) t) * (1 / -expm1(-w_hi) + 1 / expm1(-w_lo))
    with W = log(mode f(mode)) at rate 1. Newton's method solves M(t) = mass
    from the normal approximation t = erfinv(mass)^2 / (shape - 1), inside a
    bisection bracket, and ends after a step below 2^-26 of t or at the
    rounding floor of the mass. It takes two or three masses for shape from
    1.5 to 5000 and at most five from shape 1.0001 to 1e5. Both ends come
    from the same t, so the log-density is equal at them to within the
    rounding of each end to a double; against 50-digit mpmath the mass is
    within 1e-13 of ``mass`` for shape from 1.05 to 1e5. A shape past
    ``_MAX_HPD_SHAPE`` raises a ``ValueError`` before any series is summed.
    No SciPy module is loaded.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")
    shape = params.shape
    if shape > _MAX_HPD_SHAPE:
        raise ValueError(
            f"Gamma shape {shape!r} is past {_MAX_HPD_SHAPE:.0e}, the largest whose HPD "
            "interval is computed"
        )
    if shape <= 1.0:
        return 0.0, _gamma_quantile(shape, mass) / params.rate

    mode = params.mode()
    a1 = shape - 1.0  # the mode at rate 1
    log_weight = _log_gamma_weight(shape, a1)

    def mass_and_slope(t):
        w_lo, w_hi = _level_offsets(t)
        contained = _gammainc(shape, a1 * math.exp(w_hi)) - _gammainc(shape, a1 * math.exp(w_lo))
        slope = math.exp(log_weight - a1 * t) * (
            1.0 / -math.expm1(-w_hi) - math.exp(w_lo) / math.expm1(w_lo)
        )
        return contained, slope

    t_lo, t_hi = 0.0, math.inf
    t = _erfinv(mass) ** 2 / a1
    for _ in range(_MAX_NEWTON):
        contained, slope = mass_and_slope(t)
        excess = mass - contained
        if excess > 0.0:
            t_lo = t
        else:
            t_hi = t
        # Newton's method on log M against log t up to mass 1/2, as M grows
        # like sqrt(t) for small t, and on log(1 - M) against t above it, as
        # 1 - M falls like the level, exp(-(shape - 1) t): both nearly lines
        if mass <= 0.5 and contained > 0.0:
            step = t * math.expm1(math.log(mass / contained) * contained / (t * slope))
        elif mass > 0.5 and contained < 1.0:
            step = math.log((1.0 - contained) / (1.0 - mass)) * (1.0 - contained) / slope
        else:
            step = excess / slope
        # the second test ends the search at the rounding floor of the mass,
        # a difference of two ``_gammainc`` values each within 2e-14; a mass
        # that is small against them reaches it before the first
        if abs(step) <= 2.0**-26 * t or abs(excess) <= 2.0**-44:
            t += step
            break
        t_new = t + step
        if not t_lo < t_new < t_hi:
            # t_hi is finite: a step up passes only a finite t_hi, and a step
            # down follows t_hi = t
            t_new = 0.5 * (t_lo + t_hi)
        if t_new == t:
            break
        t = t_new
    else:
        raise RuntimeError(
            f"HPD search did not converge for Gamma(shape={params.shape}, "
            f"rate={params.rate}) at mass {mass}: bracket [{t_lo}, {t_hi}] in t"
        )
    w_lo, w_hi = _level_offsets(t)
    return mode * math.exp(w_lo), mode * math.exp(w_hi)


def _gamma_density(params: GammaParams, points: list[float]) -> list[float]:
    """The Gamma density at each point of the list ``points``, all >= 0, by
    ``_special._gamma_pdf``: the steps of ``scipy.stats.gamma.pdf`` on libm's
    ``exp``, within 1 ulp of SciPy's (NumPy's SIMD one)."""
    for x in points:
        if not x >= 0:
            raise ValueError(f"grid point {x} outside support [0, inf)")
    return _gamma_pdf(points, params.shape, params.rate)


def _linspace_from_zero(stop: float, points: int) -> list[float]:
    """``np.linspace(0.0, stop, points).tolist()`` for points >= 2, in its
    steps: i * (stop / (points - 1)), or (i / (points - 1)) * stop where that
    step underflows to 0, and the last point ``stop`` itself."""
    div = points - 1
    step = stop / div
    if step:
        grid = [i * step for i in range(div)]
    else:
        grid = [i / div * stop for i in range(div)]
    grid.append(stop)
    return grid


def _beta_marginal(params: DirichletParams, component: int, points: list[float]) -> list[float]:
    """The marginal density of proportion ``component`` of a Dirichlet at
    each point of the list ``points``, all in [0, 1]: Beta(gamma_i, b), with
    b the sum of the other concentrations (``math.fsum``, not gamma_0 -
    gamma_i, which cancels), by ``_special._beta_pdf``: within 1.3e-15
    relative of 40-digit mpmath where SciPy's Beta density is off by up to
    5.4e-13, and finite (or inf for gamma_i < 1) at subnormal points, where
    SciPy's overflows."""
    if not 0 <= component < params.k:
        raise ValueError(f"component {component} out of range for k={params.k}")
    for x in points:
        if not 0 <= x <= 1:
            raise ValueError(f"grid point {x} outside support [0, 1]")
    conc = params.concentration
    b = math.fsum(conc[:component] + conc[component + 1:])
    try:
        return _beta_pdf(points, conc[component], b)
    except ValueError as exc:
        raise ValueError(f"component {component}: {exc}") from None


def _weights(name: str, values) -> list[float]:
    """``values`` as a list of floats, each finite and >= 0, at least one."""
    weights = [float(x) for x in values]
    if not weights:
        raise ValueError(f"{name} must not be empty, got {values!r}")
    for x in weights:
        if not 0.0 <= x < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
    return weights


def apportion_counts(total: int, proportions) -> tuple[int, ...]:
    """Integer split of ``total`` proportional to ``proportions``.

    Largest-remainder rounding; the result always sums to ``total`` exactly.
    The proportions need not sum to 1, but must be finite, nonnegative and
    not all 0.
    """
    try:
        total = operator.index(total)
    except TypeError:
        raise ValueError(f"total must be an integer, got {total!r}") from None
    if total < 0:
        raise ValueError("total must be nonnegative")
    p = _weights("proportions", proportions)
    s = _pairwise_sum(p)
    if not 0.0 < s < math.inf:
        raise ValueError(f"proportions must have a positive, finite sum, got {s!r}")
    try:  # a share past the largest float, or a total that no float holds
        raw = [total * x / s for x in p]
        base = [math.floor(r) for r in raw]
    except OverflowError:
        raise ValueError(f"total {total} times a proportion overflows a float") from None
    short = total - sum(base)
    if not 0 <= short <= len(p):  # the float shares err by a whole count
        raise ValueError(f"total {total} is too large to apportion in floating point")
    if short > 0:  # to the largest remainders raw - base, first on ties
        for i in sorted(range(len(p)), key=lambda i: base[i] - raw[i])[:short]:
            base[i] += 1
    return tuple(base)


def synthesize_expected_data(
    true_abundance: float | None,
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
    proportions. ``total_count`` (>= 0) gives n directly when a scenario
    specifies the observed total; ``true_abundance`` is then not read and
    may be None.
    """
    p = _weights("true_proportions", true_proportions)
    s = _pairwise_sum(p)
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"true_proportions must sum to 1, got a sum of {s!r}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m!r}")
    if total_count is not None:
        if total_count < 0:
            raise ValueError(f"total_count must be >= 0, got {total_count!r}")
        n = int(total_count)
    elif true_abundance is None or not true_abundance > 0:
        raise ValueError(
            f"true_abundance must be > 0 when total_count is not given, got {true_abundance!r}"
        )
    else:
        n = math.floor(m * quadrant_area * true_abundance)
    obs = FieldObservations.evenly_spread(quadrant_area, m, n)
    _, n_bar = budget_rule(cost, m * quadrant_area, n)
    cats = CategorizationCounts(apportion_counts(n_bar, p))
    return obs, cats
