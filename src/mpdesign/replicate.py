"""One-shot regeneration of the plot data behind the reference scenarios.

Each figure id maps to a bundle of CSV files (design curves, performance
curves, or posterior density grids) produced from embedded configurations,
plus a manifest recording the inputs and a checksum per file. The bundles are
plot *data*; rendering is left to external tools.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .cost import CostModel, categorization_fraction, categorized_count
from .design import (
    DesignConfig,
    default_abundance_grid,
    optimize_design,
    performance_curve,
)
from .distributions import DirichletParams, GammaParams
from .io import atomic_write_text, render_csv, render_json
from .posterior import (
    FieldObservations,
    apportion_counts,
    density_grid,
    update_abundance,
    update_composition,
    CategorizationCounts,
)

__all__ = ["FIGURE_IDS", "replicate"]

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

SEED = 20260825
DRAWS = 100_000
QUADRANT_AREA = 0.0625
BASE_BUDGET = 12.0
COUNT_RATIO = 5e-5
CATEGORIZE_RATIO = 3e-3
CLASSES = 10

LOW_PRIOR = GammaParams.from_mode(3.0, 200.0)
HIGH_PRIOR = GammaParams.from_mode(3.0, 800.0)

# T. Tomasa beach campaign: observed polymer split PE/PP/PS/PA, rest absent.
TOMASA_PROPORTIONS = {"PE": 0.52, "PP": 0.34, "PS": 0.13, "PA": 0.01}
CLASS_NAMES = ("PE", "PP", "PET", "PS", "PA", "PVC", "PU", "AC", "PES", "NPP")


def _config(prior: GammaParams, budget: float = BASE_BUDGET, r2: float = CATEGORIZE_RATIO) -> DesignConfig:
    return DesignConfig(
        abundance_prior=prior,
        composition_prior=DirichletParams.symmetric(CLASSES, 1.0),
        cost=CostModel.from_budget_quadrants(QUADRANT_AREA, budget, COUNT_RATIO, r2),
        mc_draws=DRAWS,
        seed=SEED,
    )


def _design_csv(config: DesignConfig):
    result = optimize_design(config)
    header = ["m", "area", "L1_star", "E_L2_star", "E_L2_se", "L_star", "L_star_se"]
    rows = [
        (r.m, r.area, r.l1_star, r.e_l2_star, r.e_l2_se, r.l_star, r.l_star_se)
        for r in result.curve.rows
    ]
    text = f"# m_star: {result.m_star}\n" + render_csv(header, rows)
    return text, result


def _performance_csv(config: DesignConfig, m: int):
    curve = performance_curve(m, default_abundance_grid(config), config)
    header = ["lambda", "n", "q", "n_bar", "L2_star"]
    rows = [(r.true_abundance, r.n, r.q, r.n_bar, r.l2_star) for r in curve.rows]
    return f"# m: {m}\n" + render_csv(header, rows)


def _scenario_files(tag: str, config: DesignConfig):
    design_text, result = _design_csv(config)
    perf_text = _performance_csv(config, result.m_star)
    return {f"{tag}_design.csv": design_text, f"{tag}_performance.csv": perf_text}


def _fig1():
    files = {}
    files.update(_scenario_files("fig1_low", _config(LOW_PRIOR)))
    files.update(_scenario_files("fig1_high", _config(HIGH_PRIOR)))
    return files


def _fig2():
    files = {}
    files.update(_scenario_files("fig2_r2x2", _config(LOW_PRIOR, r2=2 * CATEGORIZE_RATIO)))
    files.update(_scenario_files("fig2_r2x1000", _config(LOW_PRIOR, r2=1000 * CATEGORIZE_RATIO)))
    return files


def _fig3():
    files = {}
    files.update(_scenario_files("fig3_low_b8", _config(LOW_PRIOR, budget=8.0)))
    files.update(_scenario_files("fig3_high_b8", _config(HIGH_PRIOR, budget=8.0)))
    return files


def _fig4():
    files = {}
    files.update(_scenario_files("fig4_low_b14", _config(LOW_PRIOR, budget=14.0)))
    files.update(_scenario_files("fig4_high_b14", _config(HIGH_PRIOR, budget=14.0)))
    return files


def _abundance_posterior_grid(prior: GammaParams, cases, grid):
    """CSV of prior plus per-case posterior abundance densities."""
    header = ["lambda", "prior"] + [tag for tag, _ in cases]
    columns = [grid, density_grid(prior, grid)]
    for _, posterior in cases:
        columns.append(density_grid(posterior, grid))
    rows = list(zip(*columns))
    return render_csv(header, rows)


def _fig5():
    grid = np.linspace(0.0, 1000.0, 1001)
    cost = CostModel.from_budget_quadrants(QUADRANT_AREA, BASE_BUDGET, COUNT_RATIO, CATEGORIZE_RATIO)
    files = {}
    for lam in (5.0, 80.0):
        cases = []
        for m in (5, 7):
            n = math.floor(m * QUADRANT_AREA * lam)
            obs = FieldObservations.evenly_spread(QUADRANT_AREA, m, n)
            cases.append((f"posterior_m{m}", update_abundance(LOW_PRIOR, obs)))
        files[f"fig5_lambda{int(lam)}.csv"] = _abundance_posterior_grid(LOW_PRIOR, cases, grid)
    return files


def _expected_categorization(n: int, area: float, cost: CostModel) -> CategorizationCounts:
    n_bar = categorized_count(n, categorization_fraction(cost, area, n))
    props = [TOMASA_PROPORTIONS.get(name, 0.0) for name in CLASS_NAMES]
    # largest-remainder split over the classes actually present
    present = [i for i, p in enumerate(props) if p > 0]
    split = apportion_counts(n_bar, [props[i] for i in present])
    counts = [0] * len(CLASS_NAMES)
    for i, c in zip(present, split):
        counts[i] = c
    return CategorizationCounts(tuple(counts))


def _fig6():
    cost = CostModel.from_budget_quadrants(QUADRANT_AREA, BASE_BUDGET, COUNT_RATIO, CATEGORIZE_RATIO)
    comp_prior = DirichletParams.symmetric(CLASSES, 1.0)
    lambda_grid = np.linspace(0.0, 1000.0, 1001)
    p_grid = np.linspace(0.0, 1.0, 501)
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
            area = m * QUADRANT_AREA
            obs = FieldObservations.evenly_spread(QUADRANT_AREA, m, n)
            abundance_cases.append((f"posterior_m{m}", update_abundance(LOW_PRIOR, obs)))
            cats = _expected_categorization(n, area, cost)
            comp_post = update_composition(comp_prior, cats)
            for name in TOMASA_PROPORTIONS:
                idx = CLASS_NAMES.index(name)
                comp_header.append(f"{name}_m{m}")
                comp_columns.append(density_grid(comp_post, p_grid, component=idx))
        files[f"fig6_{tag}_abundance.csv"] = _abundance_posterior_grid(
            LOW_PRIOR, abundance_cases, lambda_grid
        )
        files[f"fig6_{tag}_composition.csv"] = render_csv(
            comp_header, list(zip(*comp_columns))
        )
    return files


_BUILDERS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
}


def replicate(figure: str, out_dir) -> list[str]:
    """Write the CSV bundle for one figure id (or 'all') plus a manifest.

    Returns the list of files written (manifest last).
    """
    if figure != "all" and figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure!r}; expected {FIGURE_IDS + ('all',)}")
    ids = FIGURE_IDS if figure == "all" else (figure,)
    files: dict[str, str] = {}
    for fid in ids:
        files.update(_BUILDERS[fid]())

    written = []
    for name, text in sorted(files.items()):
        atomic_write_text(os.path.join(out_dir, name), text)
        written.append(name)
    manifest = {
        "figures": list(ids),
        "seed": SEED,
        "mc_draws": DRAWS,
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
            {
                "name": name,
                "sha256": hashlib.sha256(files[name].encode("utf-8")).hexdigest(),
            }
            for name in written
        ],
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"), render_json(manifest))
    written.append("manifest.json")
    return written
