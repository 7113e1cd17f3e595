"""Write the golden outputs of the design path into this directory.

Run by hand from the repository root, never by the tests:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes the fig1-fig4 design and performance CSVs of ``replicate``; the
header and every 25th row of its fig5 and fig6 density files; the CSV output
of ``design``, ``curves --m 7`` and the three ``sensitivity`` axes on the
baseline config; ``posterior --density-grid`` in CSV and JSON on three
campaigns (``CAMPAIGNS``); and ``design_grid.csv``, the optimal design of
each config of ``GRID`` (:func:`grid_text`). ``tests/test_golden.py``
recomputes the same outputs with :func:`outputs` and compares them with
these files. A change that moves these outputs on purpose reruns this script
in the same commit and states the largest move and its reason.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

if __name__ == "__main__":  # run by hand: the test helpers are in tests/
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from conftest import CliRunner  # noqa: E402
from mpdesign import CostModel, DesignConfig, DirichletParams, GammaParams  # noqa: E402
from mpdesign.cli import main as mpdesign  # noqa: E402
from mpdesign.design import _first_chunks, _optimize_designs  # noqa: E402
from mpdesign.io import render_csv  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

# The baseline config: shape 3, mode 200, budget 12, r1 5e-5, r2 3e-3.
BASELINE = {
    "abundance_prior": {"shape": 3, "mode": 200},
    "composition_prior": {"classes": 10, "symmetric_gamma": 1.0},
    "cost": {
        "quadrant_area": 0.0625,
        "budget_quadrant_equivalents": 12,
        "count_ratio": 5e-5,
        "categorize_ratio": 3e-3,
    },
}

# Output file name -> the command that writes it on the baseline config.
COMMANDS = {
    "design.csv": ["design"],
    "curves_m7.csv": ["curves", "--m", "7"],
    "sensitivity_r2.csv": ["sensitivity", "--axis", "r2", "--values", "0.5,1,2,1000"],
    "sensitivity_budget.csv": ["sensitivity", "--axis", "budget", "--values", "0.5,8,12,14"],
    "sensitivity_prior-mode.csv": [
        "sensitivity", "--axis", "prior-mode", "--values", "100,200,800",
    ],
}

# Campaign name -> (config, campaign file) for ``posterior --density-grid``:
# three quadrants with two class rows; an all-zero campaign
# under a shape-0.5 prior, whose HPD interval is left-anchored; and 20
# quadrants holding 2,962 particles.
CAMPAIGNS = {
    "ci": (
        BASELINE,
        "quadrant_id,suspected_count\n1,5\n2,4\n3,6\nclass_name,categorized_count\nPE,6\nPP,3\n",
    ),
    "zeros_shape0.5": (
        {**BASELINE, "abundance_prior": {"shape": 0.5, "rate": 0.0025}},
        "quadrant_id,suspected_count\n1,0\n2,0\n3,0\n",
    ),
    "n2962": (
        BASELINE,
        "quadrant_id,suspected_count\n"
        + "".join(f"{j},{130 + 13 * j % 37}\n" for j in range(1, 21)),
    ),
}

# The design grid: every combination of these inputs, 960 configs. A shape
# <= 1 prior has no mode; its "mode" is then its mean. The quadrant area is
# the baseline's.
GRID = {
    "shape": (0.7, 1.5, 3.0, 8.0),
    "mode": (5.0, 200.0, 800.0, 3000.0),
    "budget": (2.0, 5.0, 12.0, 20.0, 40.0),
    "r2": (3e-3, 3.0),
    "r1": (0.0, 5e-5, 2e-4),
    "gamma": (0.5, 1.0),
}
GRID_COLUMNS = tuple(GRID) + (
    "m_star", "typical_n", "typical_n_bar", "sampling", "counting", "categorization", "slack",
)

DESIGN_FIGURES = ("fig1", "fig2", "fig3", "fig4")
DENSITY_FIGURES = ("fig5", "fig6")  # 1001 or 501 rows each: every 25th is kept


def _run(runner: CliRunner, args) -> str:
    result = runner.invoke(mpdesign, args)
    if result.exit_code != 0:
        raise RuntimeError(f"mpdesign {' '.join(args)} exited {result.exit_code}: {result.output}")
    return result.stdout


def grid_config(shape, mode, budget, r2, r1, gamma) -> DesignConfig:
    """The design of one ``GRID`` point."""
    rate = (shape - 1.0) / mode if shape > 1.0 else shape / mode
    return DesignConfig(
        GammaParams(shape, rate),
        DirichletParams.symmetric(10, gamma),
        CostModel.from_budget_quadrants(0.0625, budget, r1, r2),
    )


def grid_points() -> list[tuple[float, ...]]:
    """Every ``GRID`` point, in the order of ``GRID``'s axes, the last fastest."""
    points = [()]
    for values in GRID.values():
        points = [point + (value,) for point in points for value in values]
    return points


def grid_text(m_star_only: bool = False) -> str:
    """CSV of the optimal design of every ``GRID`` point: m*, the typical count
    and its categorized count, and the budget split there. The designs are
    optimized together, as a sweep's are, by the full walk or, with
    ``m_star_only``, by the m*-only walk of ``sensitivity``."""
    points = grid_points()
    configs = [grid_config(*point) for point in points]
    sizes = [_first_chunks(config) for config in configs]
    results = _optimize_designs(configs, sizes, m_star_only=m_star_only)
    rows = [
        point + (r.m_star, r.typical_n, r.typical_n_bar, *r.budget_split.values())
        for point, r in zip(points, results)
    ]
    return render_csv(GRID_COLUMNS, rows)


def outputs(workdir) -> dict[str, str]:
    """File name -> text of every golden output, computed now in ``workdir``."""
    workdir = pathlib.Path(workdir)
    config = workdir / "baseline.json"
    config.write_text(json.dumps(BASELINE), encoding="utf-8")
    runner = CliRunner()
    texts = {name: _run(runner, ["--config", str(config)] + args) for name, args in COMMANDS.items()}
    for name, (doc, campaign) in CAMPAIGNS.items():
        config = workdir / f"config_{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        data = workdir / f"campaign_{name}.csv"
        data.write_text(campaign, encoding="utf-8")
        for fmt in ("csv", "json"):
            texts[f"posterior_{name}.{fmt}"] = _run(
                runner,
                ["--config", str(config), "--format", fmt, "posterior", "--data", str(data),
                 "--density-grid"],
            )
    for figure in DESIGN_FIGURES + DENSITY_FIGURES:
        out_dir = workdir / figure
        for name in _run(runner, ["replicate", "--figure", figure, "--out-dir", str(out_dir)]).split():
            if name != "manifest.json":
                texts[name] = (out_dir / name).read_text(encoding="utf-8")
                if figure in DENSITY_FIGURES:
                    header, *rows = texts[name].splitlines(keepends=True)
                    texts[name] = header + "".join(rows[::25])
    texts["design_grid.csv"] = grid_text()
    return texts


def golden_files() -> list[str]:
    """The names of the golden files in this directory."""
    return sorted(path.name for path in GOLDEN_DIR.iterdir() if path.suffix in (".csv", ".json"))


def main() -> None:
    for old in golden_files():
        (GOLDEN_DIR / old).unlink()
    with tempfile.TemporaryDirectory() as workdir:
        texts = outputs(workdir)
    for name, text in sorted(texts.items()):
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8", newline="")
        print(name)


if __name__ == "__main__":
    main()
