"""Budget-constrained two-stage sampling design for microplastic monitoring.

Chooses how many field quadrants to sample and, once particles are counted,
what fraction to send for polymer categorization, by minimizing a composite
prior-expected variance-reduction loss under a normalized cost constraint.
Also performs the associated conjugate Bayesian posterior inference
(Gamma-Poisson abundance, Dirichlet-Multinomial composition).

Public names load on first access: ``import mpdesign`` runs no submodule,
and ``mpdesign.GammaParams`` imports ``mpdesign.distributions`` then. Each
command of the command line thus imports only the modules it runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "DesignConfig": "config",
    "CostModel": "cost",
    "budget_rule": "cost",
    "categorization_fraction": "cost",
    "DesignCurve": "design",
    "DesignResult": "design",
    "optimize_design": "design",
    "performance_curve": "design",
    "sensitivity_sweep": "design",
    "DirichletParams": "distributions",
    "GammaParams": "distributions",
    "dirichlet_multinomial_moments": "distributions",
    "l1_expected": "loss",
    "l1_realized": "loss",
    "l2_expected": "loss",
    "l2_realized": "loss",
    "CategorizationCounts": "posterior",
    "FieldObservations": "posterior",
    "hpd_interval": "posterior",
    "naive_abundance_estimate": "posterior",
    "synthesize_expected_data": "posterior",
    "update_abundance": "posterior",
    "update_composition": "posterior",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines ``name`` and keep the name here (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
