"""Variance-reduction losses for abundance and composition.

Each loss is the ratio of posterior to prior variance (trace of the
covariance for the composition vector), so smaller means more informative.
The ``*_expected`` forms are closed-form prior expectations over the not yet
observed data.

Expected losses always lie in (0, 1]; realized losses can exceed 1 for
extreme data and are not clamped. The module imports NumPy only inside
:func:`l2_realized`, so the design walk can run on ``math`` alone.
"""

from __future__ import annotations

import math

from .distributions import DirichletParams, GammaParams

__all__ = [
    "l1_realized",
    "l1_expected",
    "l2_realized",
    "l2_expected",
]


def _check_area(quadrant_area: float) -> None:
    if not (quadrant_area > 0 and math.isfinite(quadrant_area)):
        raise ValueError(f"quadrant_area must be positive and finite, got {quadrant_area!r}")


def l1_realized(m: int, total_count: int, prior: GammaParams, quadrant_area: float) -> float:
    """Posterior/prior variance ratio for the abundance rate given n counts.

    (rate^2/shape) * (shape + n) / (rate + m*A)^2.
    """
    _check_area(quadrant_area)
    if m < 0 or total_count < 0:
        raise ValueError(f"m and total_count must be nonnegative, got {m!r} and {total_count!r}")
    a, b = prior.shape, prior.rate
    return (b**2 / a) * (a + total_count) / (b + m * quadrant_area) ** 2


def l1_expected(m: int, prior: GammaParams, quadrant_area: float) -> float:
    """Prior-expected abundance variance reduction: 1 / (1 + m*A/rate)."""
    _check_area(quadrant_area)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    return 1.0 / (1.0 + m * quadrant_area / prior.rate)


def l2_realized(class_counts, prior: DirichletParams, n_bar: int | None = None) -> float:
    """Posterior/prior covariance-trace ratio for the class proportions.

    Closed form: ((1+g0) / (D*(1+g0+n_bar))) * (1 - sum(((g_i+s_i)/(g0+n_bar))^2))
    with D = 1 - sum((g_i/g0)^2).
    """
    import numpy as np

    s = np.asarray(class_counts, dtype=float)
    if s.shape != (prior.k,):
        raise ValueError(f"expected {prior.k} class counts, got shape {s.shape}")
    if np.any(s < 0):
        raise ValueError("class counts must be nonnegative")
    if n_bar is not None and n_bar != s.sum():
        raise ValueError(f"class counts sum to {int(s.sum())}, expected n_bar={n_bar}")
    gamma = prior.as_array()
    g0 = prior.total
    n_bar = s.sum()
    d = 1.0 - np.sum((gamma / g0) ** 2)
    if d <= 0:
        raise ValueError("degenerate prior: zero prior covariance trace")
    post = (gamma + s) / (g0 + n_bar)
    return float((1.0 + g0) / (d * (1.0 + g0 + n_bar)) * (1.0 - np.sum(post**2)))


def l2_expected(n_bar, prior: DirichletParams) -> float:
    """Prior-expected composition variance reduction at one count ``n_bar``
    (depends on gamma only through its total g0):

    (g0 + 1 - n_bar/(g0 + n_bar)) / (g0 + 1 + n_bar).

    For g0 = 1 this reduces to 1/(1 + n_bar). ``n_bar`` is an int, a float
    or a NumPy scalar, and the result a Python float, computed without NumPy;
    an array or a list is refused by its type (:func:`_l2` takes arrays), and
    a NaN, infinite or negative count by name, as :func:`cost.budget_rule` refuses it.
    """
    if not (isinstance(n_bar, (int, float)) or getattr(n_bar, "ndim", None) == 0):
        raise TypeError(f"n_bar must be one count, got {type(n_bar).__name__}")
    if not (n_bar >= 0 and math.isfinite(n_bar)):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar}")
    return float(_l2(n_bar, prior.total))


def _l2(n_bar, g0: float):
    """L2*(n_bar) at total concentration ``g0``, unchecked, for a count
    (int below 2**53 or float) or a float array, with the same bits for both."""
    return (g0 + 1.0 - n_bar / (g0 + n_bar)) / (g0 + 1.0 + n_bar)
