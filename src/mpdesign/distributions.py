"""Distributions underlying the abundance/composition model.

Gamma parameters use the shape/RATE convention everywhere: the rate has units
of area (m^2) and adds to the sampled area in the conjugate update. Mixing up
rate and scale is the classic bug here, so every function that touches a
``GammaParams`` documents the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaParams",
    "DirichletParams",
    "dirichlet_multinomial_moments",
]

# Largest error that rounding log(b) and log(b + mA), an ulp each, may put
# into the log pmf through a * log(p); past it every loss is silently wrong.
_LOG_PMF_TOLERANCE = 1e-8


@dataclass(frozen=True)
class GammaParams:
    """Gamma(shape, rate) parameters for the abundance rate (MP m^-2).

    ``rate`` is the *rate* (inverse scale), in m^2.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and np.isfinite(self.shape)):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / self.rate**2

    def mode(self) -> float:
        """Density mode; defined only for shape >= 1."""
        if self.shape < 1:
            raise ValueError("mode undefined for shape < 1")
        return (self.shape - 1.0) / self.rate

    @classmethod
    def from_mode(cls, shape: float, mode: float) -> "GammaParams":
        """Build from (shape, mode); requires shape > 1, rate = (shape-1)/mode."""
        if shape <= 1:
            raise ValueError("mode parametrization requires shape > 1")
        if not (mode > 0 and math.isfinite(mode)):
            raise ValueError(f"mode must be positive and finite, got {mode}")
        rate = (shape - 1.0) / mode
        if not 0.0 < rate < math.inf:
            raise ValueError(f"mode {mode!r} with shape {shape!r} gives no finite rate > 0")
        return cls(shape, rate)


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet concentration vector for the k polymer-class proportions."""

    concentration: tuple[float, ...]

    def __post_init__(self):
        conc = tuple(float(g) for g in np.atleast_1d(self.concentration))
        if len(conc) < 2:
            raise ValueError("need at least two classes")
        if not all(g > 0 and np.isfinite(g) for g in conc):
            raise ValueError("all concentration parameters must be positive and finite")
        if not math.isfinite(sum(conc)):
            raise ValueError("total concentration (the sum of the parameters) must be finite")
        object.__setattr__(self, "concentration", conc)

    @property
    def k(self) -> int:
        return len(self.concentration)

    @property
    def total(self) -> float:
        return float(np.sum(self.concentration))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.concentration, dtype=float)

    def mean(self) -> np.ndarray:
        return self.as_array() / self.total

    @classmethod
    def symmetric(cls, k: int, value: float = 1.0) -> "DirichletParams":
        return cls((float(value),) * int(k))


def _ratio_steps(shape: float, start: int, stop: int) -> np.ndarray:
    """log((n-1+a)/n) = log1p((a-1)/n) for n = start .. stop - 1 (start >= 1).

    The log pmf ratio P(n)/P(n-1) less log(1-p): it depends only on the
    prior shape, so one array serves every sampled area.
    """
    n = np.arange(start, stop, dtype=np.float64)
    return np.log1p((shape - 1.0) / n)


def _check_log_pmf(prior: GammaParams, total_areas) -> None:
    """Reject a shape whose log pmf (:func:`_log_pmf_from_steps`) would be wrong:
    its log-gamma passes the largest float (about 2.5e305), or rounding log(b)
    and log(b + mA) moves it past ``_LOG_PMF_TOLERANCE`` at one of ``total_areas``."""
    a = prior.shape
    try:
        math.lgamma(a)
    except OverflowError:
        raise ValueError(f"abundance_prior shape {a!r} is too large for log-gamma") from None
    ulp_log_b = math.ulp(math.log(prior.rate))
    for total_area in total_areas:
        error = a * (ulp_log_b + math.ulp(math.log(prior.rate + total_area)))
        if error > _LOG_PMF_TOLERANCE:
            raise ValueError(
                f"abundance_prior shape {a!r} is too large: rounding log(rate) moves the log "
                f"pmf by up to {error:.2g}, past {_LOG_PMF_TOLERANCE:.0e}"
            )


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
    The prior and area must have passed :func:`_check_log_pmf`.
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


def dirichlet_multinomial_moments(params: DirichletParams, n: int):
    """Per-class (mean, variance) of Dirichlet-Multinomial class counts.

    mean_i = n * theta_i,
    var_i  = n * theta_i * (1 - theta_i) * (n + gamma0) / (1 + gamma0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    theta = params.mean()
    g0 = params.total
    mean = n * theta
    var = n * theta * (1.0 - theta) * (n + g0) / (1.0 + g0)
    return mean, var
