"""Distributions underlying the abundance/composition model.

Gamma parameters use the shape/RATE convention everywhere: the rate has units
of area (m^2) and adds to the sampled area in the conjugate update. Mixing up
rate and scale is the classic bug here, so every function that touches a
``GammaParams`` documents the convention.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from ._special import _pairwise_sum

__all__ = [
    "GammaParams",
    "DirichletParams",
    "dirichlet_multinomial_moments",
]

class GammaParams(Record):
    """Gamma(shape, rate) parameters for the abundance rate (MP m^-2).

    ``rate`` is the *rate* (inverse scale), in m^2.
    """

    __slots__ = ("shape", "rate")

    def __init__(self, shape: float, rate: float):
        if not (shape > 0 and math.isfinite(shape)):
            raise ValueError(f"shape must be positive and finite, got {shape}")
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rate", rate)

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        """shape / rate**2, or shape / rate / rate where the square is no normal float."""
        try:
            square = self.rate**2
        except OverflowError:  # a rate past about 1.3e154
            square = 0.0
        if square >= sys.float_info.min:
            return self.shape / square
        return self.shape / self.rate / self.rate

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


class DirichletParams(Record):
    """Dirichlet concentration vector for the k polymer-class proportions."""

    __slots__ = ("concentration",)

    def __init__(self, concentration: tuple[float, ...]):
        values = concentration
        if isinstance(values, (str, bytes)):  # one value, not one class per character
            values = (values,)
        try:
            conc = tuple(map(float, values))
        except TypeError:  # one number, which is one class
            conc = (float(values),)
        if len(conc) < 2:
            raise ValueError("need at least two classes")
        if not all(g > 0 and math.isfinite(g) for g in conc):
            raise ValueError("all concentration parameters must be positive and finite")
        if not math.isfinite(sum(conc)):
            raise ValueError("total concentration (the sum of the parameters) must be finite")
        object.__setattr__(self, "concentration", conc)

    @property
    def k(self) -> int:
        return len(self.concentration)

    @property
    def total(self) -> float:
        """gamma_0, the sum of the concentrations, with the bits of ``np.sum``."""
        return _pairwise_sum(self.concentration)

    def as_array(self):
        import numpy as np

        return np.asarray(self.concentration, dtype=float)

    def mean(self):
        return self.as_array() / self.total

    @classmethod
    def symmetric(cls, k: int, value: float = 1.0) -> "DirichletParams":
        return cls((float(value),) * int(k))


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
