"""One-shot regeneration of the plot data behind the reference scenarios.

Each figure id maps to a bundle of CSV files (design curves, performance
curves, or posterior density grids) produced from embedded configurations,
plus a manifest recording the inputs and a checksum per file. The bundles are
plot *data*; rendering is left to external tools.

Only the design figures (fig1-fig4) import the optimizer, whose walk
imports NumPy only past ``design._PYTHON_WALK_TERMS`` terms; ``--figure all``
stays below it. fig5 and fig6 take the ``posterior`` command's list grid and
densities and the budget rule on single counts, so they load no NumPy.
"""

from __future__ import annotations

import math
import os

from .config import DEFAULT_CLASS_NAMES, DesignConfig
from .cost import CostModel
from .distributions import DirichletParams, GammaParams
from .io import atomic_write_text, render_csv, render_json

# The interpreter's own SHA-256, as random.py takes its sha512: hashlib would
# load OpenSSL to hash a few small files.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = ["FIGURE_IDS", "replicate"]

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

QUADRANT_AREA = 0.0625
BASE_BUDGET = 12.0
COUNT_RATIO = 5e-5
CATEGORIZE_RATIO = 3e-3
CLASSES = 10

LOW_PRIOR = GammaParams.from_mode(3.0, 200.0)
HIGH_PRIOR = GammaParams.from_mode(3.0, 800.0)

# T. Tomasa beach campaign: observed polymer split PE/PP/PS/PA, rest absent.
TOMASA_PROPORTIONS = {"PE": 0.52, "PP": 0.34, "PS": 0.13, "PA": 0.01}
TOMASA_SHARES = tuple(TOMASA_PROPORTIONS.get(name, 0.0) for name in DEFAULT_CLASS_NAMES)

# Design-curve figures: per figure, one (file tag, abundance prior, budget in
# quadrant equivalents, r2) per scenario. Each scenario writes its design
# curve and the performance curve at its m*.
DESIGN_SCENARIOS = {
    "fig1": (
        ("fig1_low", LOW_PRIOR, BASE_BUDGET, CATEGORIZE_RATIO),
        ("fig1_high", HIGH_PRIOR, BASE_BUDGET, CATEGORIZE_RATIO),
    ),
    "fig2": (
        ("fig2_r2x2", LOW_PRIOR, BASE_BUDGET, 2 * CATEGORIZE_RATIO),
        ("fig2_r2x1000", LOW_PRIOR, BASE_BUDGET, 1000 * CATEGORIZE_RATIO),
    ),
    "fig3": (
        ("fig3_low_b8", LOW_PRIOR, 8.0, CATEGORIZE_RATIO),
        ("fig3_high_b8", HIGH_PRIOR, 8.0, CATEGORIZE_RATIO),
    ),
    "fig4": (
        ("fig4_low_b14", LOW_PRIOR, 14.0, CATEGORIZE_RATIO),
        ("fig4_high_b14", HIGH_PRIOR, 14.0, CATEGORIZE_RATIO),
    ),
}


def _config(prior: GammaParams, budget: float, r2: float) -> DesignConfig:
    return DesignConfig(
        abundance_prior=prior,
        composition_prior=DirichletParams.symmetric(CLASSES, 1.0),
        cost=CostModel.from_budget_quadrants(QUADRANT_AREA, budget, COUNT_RATIO, r2),
    )


def _design_figures(ids) -> dict[str, str]:
    """The design and performance curves of every scenario of the design
    figures among ``ids``, whose designs are optimized together."""
    scenarios = [s for fid in ids if fid in DESIGN_SCENARIOS for s in DESIGN_SCENARIOS[fid]]
    if not scenarios:
        return {}
    from .design import (
        CURVES_COLUMNS, DESIGN_COLUMNS, _first_chunks, _optimize_designs, default_abundance_grid,
        performance_curve,
    )

    configs = [_config(prior, budget, r2) for _, prior, budget, r2 in scenarios]
    results = _optimize_designs(configs, [_first_chunks(config) for config in configs])
    files = {}
    for (tag, *_), config, result in zip(scenarios, configs, results):
        m = result.m_star
        rows = performance_curve(m, default_abundance_grid(config), config)
        design_csv = render_csv(DESIGN_COLUMNS, result.curve.rows)
        files[f"{tag}_design.csv"] = f"# m_star: {m}\n" + design_csv
        files[f"{tag}_performance.csv"] = f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows)
    return files


def _abundance_posterior_grid(prior: GammaParams, cases, grid):
    """CSV of prior plus per-case posterior abundance densities."""
    from .posterior import _gamma_density

    header = ["lambda", "prior"] + [tag for tag, _ in cases]
    columns = [grid, _gamma_density(prior, grid)]
    for _, posterior in cases:
        columns.append(_gamma_density(posterior, grid))
    return render_csv(header, zip(*columns))


def _fig5():
    from ._special import _linspace
    from .posterior import FieldObservations, update_abundance

    grid = _linspace(0.0, 1000.0, 1001)
    files = {}
    for lam in (5.0, 80.0):
        cases = []
        for m in (5, 7):
            n = math.floor(m * QUADRANT_AREA * lam)
            obs = FieldObservations.evenly_spread(QUADRANT_AREA, m, n)
            cases.append((f"posterior_m{m}", update_abundance(LOW_PRIOR, obs)))
        files[f"fig5_lambda{int(lam)}.csv"] = _abundance_posterior_grid(LOW_PRIOR, cases, grid)
    return files


def _fig6():
    from ._special import _linspace
    from .posterior import (
        _beta_marginal, synthesize_expected_data, update_abundance, update_composition,
    )

    cost = CostModel.from_budget_quadrants(QUADRANT_AREA, BASE_BUDGET, COUNT_RATIO, CATEGORIZE_RATIO)
    comp_prior = DirichletParams.symmetric(CLASSES, 1.0)
    lambda_grid = _linspace(0.0, 1000.0, 1001)
    p_grid = _linspace(0.0, 1.0, 501)
    files = {}
    # scenario -> per-design observed totals; the second scenario pins the
    # observed totals directly rather than deriving them from an abundance
    scenarios = {
        "lambda382": {5: 119, 7: 167},
        "n200_280": {5: 200, 7: 280},
    }
    for tag, totals in scenarios.items():
        abundance_cases = []
        comp_header = ["p"]
        comp_columns = [p_grid]
        for m, n in totals.items():
            obs, cats = synthesize_expected_data(
                None, TOMASA_SHARES, m, QUADRANT_AREA, cost, total_count=n
            )
            abundance_cases.append((f"posterior_m{m}", update_abundance(LOW_PRIOR, obs)))
            comp_post = update_composition(comp_prior, cats)
            for name in TOMASA_PROPORTIONS:
                idx = DEFAULT_CLASS_NAMES.index(name)
                comp_header.append(f"{name}_m{m}")
                comp_columns.append(_beta_marginal(comp_post, idx, p_grid))
        files[f"fig6_{tag}_abundance.csv"] = _abundance_posterior_grid(
            LOW_PRIOR, abundance_cases, lambda_grid
        )
        files[f"fig6_{tag}_composition.csv"] = render_csv(comp_header, zip(*comp_columns))
    return files


_BUILDERS = {"fig5": _fig5, "fig6": _fig6}


def replicate(figure: str, out_dir) -> list[str]:
    """Write the CSV bundle for one figure id (or 'all') plus a manifest.

    Returns the list of files written (manifest last).
    """
    if figure != "all" and figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure!r}; expected {FIGURE_IDS + ('all',)}")
    ids = FIGURE_IDS if figure == "all" else (figure,)
    files = _design_figures(ids)
    for fid in ids:
        if fid in _BUILDERS:
            files.update(_BUILDERS[fid]())

    written = []
    for name, text in sorted(files.items()):
        atomic_write_text(os.path.join(out_dir, name), text)
        written.append(name)
    manifest = {
        "figures": list(ids),
        "parameters": {
            "quadrant_area": QUADRANT_AREA,
            "base_budget_quadrants": BASE_BUDGET,
            "count_ratio": COUNT_RATIO,
            "categorize_ratio": CATEGORIZE_RATIO,
            "composition_classes": CLASSES,
            "low_prior": {"shape": LOW_PRIOR.shape, "rate": LOW_PRIOR.rate},
            "high_prior": {"shape": HIGH_PRIOR.shape, "rate": HIGH_PRIOR.rate},
        },
        "files": [
            {"name": name, "sha256": _sha256(files[name].encode("utf-8")).hexdigest()}
            for name in written
        ],
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"), render_json(manifest))
    written.append("manifest.json")
    return written
