"""Budget-constrained two-stage sampling design for microplastic monitoring.

Chooses how many field quadrants to sample and, once particles are counted,
what fraction to send for polymer categorization, by minimizing a composite
prior-expected variance-reduction loss under a normalized cost constraint.
Also performs the associated conjugate Bayesian posterior inference
(Gamma-Poisson abundance, Dirichlet-Multinomial composition).
"""

from .cost import (
    BudgetSpec,
    CostModel,
    budget_rule,
    categorization_fraction,
    categorized_count,
    feasible_designs,
    normalized_cost,
)
from .design import (
    DesignConfig,
    DesignCurve,
    DesignResult,
    PerformanceCurve,
    expected_total_loss,
    optimize_design,
    performance_curve,
    predictive_l2,
    sensitivity_sweep,
)
from .distributions import (
    DirichletParams,
    GammaParams,
    dirichlet_cov_trace,
    dirichlet_multinomial_moments,
    dirichlet_sample,
    gamma_sample,
    poisson_sample,
    predictive_log_pmf,
    predictive_total_count,
)
from .loss import (
    l1_expected,
    l1_realized,
    l2_expected,
    l2_realized,
    mc_oracle_l1,
    mc_oracle_l2,
)
from .posterior import (
    CategorizationCounts,
    FieldObservations,
    PosteriorPair,
    hpd_interval,
    density_grid,
    naive_abundance_estimate,
    synthesize_expected_data,
    update_abundance,
    update_composition,
)
from .rng import RandomStream

__version__ = "0.1.0"

__all__ = [
    "BudgetSpec",
    "CategorizationCounts",
    "CostModel",
    "DesignConfig",
    "DesignCurve",
    "DesignResult",
    "DirichletParams",
    "FieldObservations",
    "GammaParams",
    "PerformanceCurve",
    "PosteriorPair",
    "RandomStream",
    "budget_rule",
    "categorization_fraction",
    "categorized_count",
    "density_grid",
    "dirichlet_cov_trace",
    "dirichlet_multinomial_moments",
    "dirichlet_sample",
    "expected_total_loss",
    "feasible_designs",
    "gamma_sample",
    "hpd_interval",
    "l1_expected",
    "l1_realized",
    "l2_expected",
    "l2_realized",
    "mc_oracle_l1",
    "mc_oracle_l2",
    "naive_abundance_estimate",
    "normalized_cost",
    "optimize_design",
    "performance_curve",
    "poisson_sample",
    "predictive_l2",
    "predictive_log_pmf",
    "predictive_total_count",
    "sensitivity_sweep",
    "synthesize_expected_data",
    "update_abundance",
    "update_composition",
]
