"""Monte Carlo oracles for the package's closed forms, and a scalar budget rule.

The package computes every expectation exactly and draws no random number.
The tests check those closed forms against brute-force simulation, kept
deliberately independent of them, on reproducible random streams: a
:class:`RandomStream` is a 64-bit seed plus a tuple of integer labels, the
same (seed, label) always reproduces the same variate sequence, and distinct
labels give statistically independent substreams (Philox counter-based
generator keyed through ``SeedSequence`` spawn keys). Streams are immutable
values, so they can be shared across threads freely.

Gamma parameters use the shape/RATE convention, as in
:mod:`mpdesign.distributions`.

:func:`budget_fraction` transcribes the budget rule's q one count at a time
in plain Python floats, with the same floating-point steps as the package's
array rule, so that tests can compare the two bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mpdesign import DirichletParams, GammaParams

__all__ = [
    "RandomStream",
    "gamma_sample",
    "poisson_sample",
    "predictive_total_count",
    "dirichlet_sample",
    "mc_oracle_l1",
    "mc_oracle_l2",
    "budget_fraction",
    "categorized_count",
]


@dataclass(frozen=True)
class RandomStream:
    """Seed plus substream label identifying a reproducible variate sequence."""

    seed: int
    label: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if isinstance(self.label, int):
            object.__setattr__(self, "label", (self.label,))
        else:
            object.__setattr__(self, "label", tuple(int(x) for x in self.label))

    def child(self, *label: int) -> "RandomStream":
        """Substream with additional label components appended."""
        return RandomStream(self.seed, self.label + tuple(int(x) for x in label))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.label)
        return np.random.Generator(np.random.Philox(ss))


def gamma_sample(params: GammaParams, stream: RandomStream, size=None):
    """Draw from Gamma(shape, rate) (rate parametrization)."""
    g = stream.generator()
    return g.gamma(params.shape, 1.0 / params.rate, size=size)


def poisson_sample(mean, stream: RandomStream, size=None):
    """Draw from Poisson(mean); mean = 0 yields 0."""
    if np.any(np.asarray(mean) < 0):
        raise ValueError("Poisson mean must be nonnegative")
    g = stream.generator()
    return g.poisson(mean, size=size)


def predictive_total_count(prior: GammaParams, total_area: float, stream: RandomStream, size=None):
    """Total-count draw(s) from the Poisson-Gamma (negative binomial) predictive.

    Compound sampling: lambda ~ Gamma(prior), then N ~ Poisson(total_area * lambda).
    ``total_area`` is the whole sampled area m*A in m^2.
    """
    if total_area < 0:
        raise ValueError("total_area must be nonnegative")
    g = stream.generator()
    lam = g.gamma(prior.shape, 1.0 / prior.rate, size=size)
    return g.poisson(total_area * lam)


def dirichlet_sample(params: DirichletParams, stream: RandomStream, size=None):
    """Draw proportion vector(s) from the Dirichlet; rows sum to 1."""
    g = stream.generator()
    return g.dirichlet(params.as_array(), size=size)


def mc_oracle_l1(m: int, prior: GammaParams, quadrant_area: float, draws: int, stream: RandomStream):
    """Monte Carlo estimate (value, se) of the expected abundance loss.

    Averages the realized loss over predictive total-count draws; independent
    check of the closed form in :func:`mpdesign.loss.l1_expected`.
    """
    if draws < 1000:
        raise ValueError("draws must be at least 1000")
    if m == 0:
        return 1.0, 0.0
    counts = predictive_total_count(prior, m * quadrant_area, stream, size=draws)
    a, b = prior.shape, prior.rate
    vals = (b**2 / a) * (a + counts) / (b + m * quadrant_area) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


def mc_oracle_l2(n_bar: int, prior: DirichletParams, draws: int, stream: RandomStream):
    """Monte Carlo estimate (value, se) of the expected composition loss.

    Simulates p ~ Dirichlet(prior), s ~ Multinomial(n_bar, p) and averages the
    realized trace ratio; independent check of :func:`mpdesign.loss.l2_expected`.
    """
    if draws < 1000:
        raise ValueError("draws must be at least 1000")
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if n_bar == 0:
        return 1.0, 0.0
    g = stream.generator()
    probs = g.dirichlet(prior.as_array(), size=draws)
    counts = g.multinomial(n_bar, probs)
    gamma = prior.as_array()
    g0 = prior.total
    d = 1.0 - np.sum((gamma / g0) ** 2)
    post = (gamma + counts) / (g0 + n_bar)
    vals = (1.0 + g0) / (d * (1.0 + g0 + n_bar)) * (1.0 - np.sum(post**2, axis=1))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


def budget_fraction(cost, total_area: float, n: int) -> float:
    """Budget-implied q = min(max((1/c - (mA + n*r1)) / (r2*n), 0), 1) at one
    count n, and 1 at n = 0 (nothing to categorize)."""
    if n == 0:
        return 1.0
    raw = (cost.budget_area - (total_area + n * cost.count_ratio)) / (cost.categorize_ratio * n)
    return max(0.0, min(1.0, raw))


def categorized_count(cost, total_area: float, n: int) -> int:
    """n_bar = floor(n * q) at one count n, with q from :func:`budget_fraction`."""
    return math.floor(n * budget_fraction(cost, total_area, n))
