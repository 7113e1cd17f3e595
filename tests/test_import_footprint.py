"""Which SciPy modules each entry point loads, checked in fresh interpreters.

Importing the package and running the design commands must not load SciPy
at all: its import costs about a second, several times a design run. Only
``posterior`` may load ``scipy.special`` (densities, HPD probabilities), and
never ``scipy.stats`` or ``scipy.optimize``. A new top-level import that
breaks this fails here by name.
"""

import json
import os
import subprocess
import sys

import pytest

from test_cli import BASE_DOC, CAMPAIGN

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the CLI with the given arguments (or only the imports, without any),
# then prints the loaded scipy modules as the last line of stderr.
CHILD = """
import json, sys
import mpdesign
from mpdesign.cli import main
if sys.argv[1:]:
    try:
        main.main(sys.argv[1:], prog_name="mpdesign")
    except SystemExit as exc:
        if exc.code:
            raise
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
"""


def scipy_modules(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(BASE_DOC))
    (tmp_path / "campaign.csv").write_text(CAMPAIGN)
    return tmp_path


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("--help",),
        ("--config", "config.json", "design"),
    ],
    ids=["import", "help", "design"],
)
def test_no_scipy_outside_posterior(args, workdir):
    assert scipy_modules(*args, cwd=workdir) == set()


def test_posterior_loads_only_scipy_special(workdir):
    loaded = scipy_modules(
        "--config", "config.json", "posterior", "--data", "campaign.csv", "--density-grid",
        cwd=workdir,
    )
    assert "scipy.special" in loaded
    assert not {"scipy.stats", "scipy.optimize"} & loaded
