"""Write the golden outputs of the design path into this directory.

Run by hand from the repository root, never by the tests:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes the fig1-fig4 design and performance CSVs of ``replicate`` and the
CSV output of ``design``, ``curves --m 7`` and the three ``sensitivity`` axes
on the baseline config. ``tests/test_golden.py`` recomputes the same outputs
with :func:`outputs` and compares them with these files. A change that moves
these outputs on purpose reruns this script in the same commit and states
the largest move and its reason.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from click.testing import CliRunner

from mpdesign.cli import main as mpdesign

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

DESIGN_FIGURES = ("fig1", "fig2", "fig3", "fig4")


def _run(runner: CliRunner, args) -> str:
    result = runner.invoke(mpdesign, args)
    if result.exit_code != 0:
        raise RuntimeError(f"mpdesign {' '.join(args)} exited {result.exit_code}: {result.output}")
    return result.stdout


def outputs(workdir) -> dict[str, str]:
    """File name -> text of every golden output, computed now in ``workdir``."""
    workdir = pathlib.Path(workdir)
    config = workdir / "baseline.json"
    config.write_text(json.dumps(BASELINE), encoding="utf-8")
    runner = CliRunner()
    texts = {name: _run(runner, ["--config", str(config)] + args) for name, args in COMMANDS.items()}
    for figure in DESIGN_FIGURES:
        out_dir = workdir / figure
        for name in _run(runner, ["replicate", "--figure", figure, "--out-dir", str(out_dir)]).split():
            if name != "manifest.json":
                texts[name] = (out_dir / name).read_text(encoding="utf-8")
    return texts


def main() -> None:
    for old in GOLDEN_DIR.glob("*.csv"):
        old.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        texts = outputs(workdir)
    for name, text in sorted(texts.items()):
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8", newline="")
        print(name)


if __name__ == "__main__":
    main()
