"""Which modules each entry point loads, checked in fresh interpreters.

The package root and the command line import lazily: ``import mpdesign``,
``--help`` and a command's ``--help`` load no module outside the standard
library but ``mpdesign`` and ``mpdesign.cli``, and each command loads exactly
the modules it runs, and outside the standard library at most NumPy: no
command loads Click. Every command that reads a config loads the CLI,
``config``, ``io``, ``cost``, ``distributions``, ``_record`` (the base of
their value types) and ``_special`` (whose pairwise sum gives a Dirichlet's
total); ``config`` defines ``DesignConfig`` and loads no design module. No
command loads ``dataclasses``. The design commands (``design``, ``curves``,
``sensitivity``) add the design path (``design``, ``loss``); ``posterior``
adds ``posterior`` but not the design path; ``replicate`` fig1 loads the
design path and ``replicate``, and fig5 and fig6 load ``posterior`` and
``replicate`` but not the design path. No command loads a random number
generator of the package's own: it has none, and the Monte Carlo oracles
live in ``tests/oracles.py``.

``posterior`` loads no NumPy either: in CSV and JSON, with and without
``--density-grid``, and with a left-anchored HPD interval. Its posterior is
closed-form and its grid and densities are lists, so a user's campaign is
read, updated and written on ``math`` and the standard library alone (up to a posterior
shape of about 2e5, past which the HPD interval's series is NumPy's). Run by
``python -S``, so that no ``.pth`` file imports anything first, it loads none
of ``dataclasses``, ``inspect``, ``typing`` and ``tempfile`` either. Neither it
nor ``--help`` loads ``argparse``, ``gettext`` or ``locale``: the command line
is read from the CLI's own option table.

SciPy's import costs several times a whole run, and no command needs it:
importing the package, ``--help``, the design commands, ``posterior``
(whether the HPD interval is left-anchored, posterior shape <= 1, or not)
and every ``replicate`` figure load no SciPy module, and fig6, whose Beta
marginals were the last SciPy user, runs with SciPy made unimportable. A new
top-level import that breaks this fails here by name.

OpenSSL's ``_hashlib`` (which ``import hashlib`` loads) is as needless: the
replicate manifest hashes with the interpreter's built-in SHA-256, so no
command loads it. ``replicate`` fig1-fig4 load only the design path, not
``mpdesign.posterior``; fig5 and fig6 load ``posterior`` instead. fig5 takes
the ``posterior`` command's list grid and densities, and fig6 the budget rule
on single counts, so neither loads NumPy.

The design walk runs in Python up to ``design._PYTHON_WALK_TERMS`` first-chunk
terms, so the golden ``design``, ``curves`` and ``sensitivity`` commands, a
``design`` at B = 40, and ``replicate`` fig1-fig4 and ``--figure all`` load no
NumPy either; a walk past that many terms (B = 60) does. The Python walk is
fast enough for that because it takes the categorized count n_bar by runs of
equal n_bar, applying the budget rule only at the ends of each run and near
whole numbers of the run's v(n), and a guard band far wider than the rule's
rounding proves each run's n_bar at every count. Run by ``python -S``, those
golden design commands load neither ``typing`` nor ``dataclasses``,
``inspect`` or ``tempfile``: their rows are ``collections.namedtuple``'s.
Importing ``mpdesign._special`` loads no other ``mpdesign`` module, no NumPy
and no SciPy. ``budget_rule``, ``categorization_fraction`` and ``l2_expected``
take one count each, and they and ``performance_curve`` run without NumPy.

Each check that a command loads something or not also checks, by a line of
its output, that the command ran.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import mpdesign
from mpdesign import design
from mpdesign.config import parse_config
from mpdesign.design import _first_chunks

from golden.make_golden import COMMANDS
from test_cli import BASE_DOC, CAMPAIGN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs the CLI with the given arguments (or only the imports, without any),
# then prints, as the last two lines of stderr, every module outside the
# standard library that it loaded (so every mpdesign, NumPy, SciPy or Click
# module), and _hashlib if loaded, and then every standard-library module that
# it loaded. The command's output goes to stdout.
CHILD = """
import json
import sys
started = set(sys.modules)
import mpdesign
from mpdesign.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
if code:
    sys.exit(code)
stdlib = {m for m in sys.modules if m.split(".")[0] in sys.stdlib_module_names}
print(json.dumps(sorted(
    m for m in sys.modules if m == "_hashlib" or m not in started and m not in stdlib
)), file=sys.stderr)
print(json.dumps(sorted(stdlib - started)), file=sys.stderr)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(*args, cwd, flags=()):
    """(the modules loaded outside the standard library, the standard-library
    modules loaded, stdout) of ``CHILD`` run with ``args``, by an interpreter
    given ``flags``."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, *args],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outside, stdlib = proc.stderr.strip().splitlines()[-2:]
    return set(json.loads(outside)), set(json.loads(stdlib)), proc.stdout


def loaded_modules(*args, cwd):
    return run_child(*args, cwd=cwd)[0]


# Text that each command's output holds once the command has run
OUTPUT_MARKERS = {
    "design": "# m_star: ",
    "curves": "# m: ",
    "sensitivity": "axis,value,m_star,",
    "posterior": "hpd_upper",
    "replicate": "manifest.json",
}


def modules_of_command(*args, cwd, flags=()):
    """(the modules outside the standard library, the standard-library
    modules) loaded by the command that ``args`` name, after checking that it
    ran."""
    outside, stdlib, stdout = run_child(*args, cwd=cwd, flags=flags)
    command = next(arg for arg in args if arg in OUTPUT_MARKERS)
    assert OUTPUT_MARKERS[command] in stdout, stdout[:500]
    return outside, stdlib


def loaded_by_command(*args, cwd):
    """The modules outside the standard library that the command ``args``
    name loaded, after checking that it ran."""
    return modules_of_command(*args, cwd=cwd)[0]


def scipy_modules(*args, cwd):
    return {m for m in loaded_modules(*args, cwd=cwd) if m.split(".")[0] == "scipy"}


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


def left_anchored(workdir, prior_shape):
    """Give ``workdir`` a prior of ``prior_shape`` <= 1 and no particles: the
    posterior shape stays <= 1, so the HPD interval is left-anchored and its
    upper end is a quantile."""
    doc = json.loads(json.dumps(BASE_DOC))
    doc["abundance_prior"] = {"shape": prior_shape, "rate": 0.01}
    (workdir / "config.json").write_text(json.dumps(doc))
    (workdir / "campaign.csv").write_text("quadrant_id,suspected_count\n1,0\n2,0\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(), ("--density-grid",)], ids=["no-grid", "grid"])
@pytest.mark.parametrize("prior_shape", [None, 0.5, 1.0], ids=["baseline", "shape0.5", "shape1"])
def test_posterior_loads_no_numpy_and_no_scipy(prior_shape, grid, fmt, workdir):
    if prior_shape is not None:
        left_anchored(workdir, prior_shape)
    loaded = loaded_by_command(
        "--config", "config.json", "--format", fmt, "posterior", "--data", "campaign.csv", *grid,
        cwd=workdir,
    )
    assert {m for m in loaded if m == "numpy" or m.split(".")[0] == "scipy"} == set()


# Standard-library modules that the command line does without: it walks its
# arguments against its own option table, so it loads no ``argparse``, nor
# the ``gettext`` and ``locale`` that ``argparse`` imports for its messages.
PARSER_SKIPS = {"argparse", "gettext", "locale"}

# Standard-library modules that a cold posterior, or a cold design command
# under the walk's threshold, does without: the parser's
# above, the code generator of ``dataclasses`` with the ``inspect`` (and its
# ``ast``, ``dis`` and ``tokenize``) that it imports, ``typing``, and
# ``tempfile``, which only a command that writes files needs. ``python -S``
# runs no ``.pth`` file, which could import any of them before the command
# starts.
POSTERIOR_SKIPS = PARSER_SKIPS | {"dataclasses", "inspect", "typing", "tempfile"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(), ("--density-grid",)], ids=["no-grid", "grid"])
@pytest.mark.parametrize("prior_shape", [None, 0.5], ids=["baseline", "left-anchored"])
def test_posterior_loads_no_dataclasses_typing_or_tempfile(prior_shape, grid, fmt, workdir):
    if prior_shape is not None:
        left_anchored(workdir, prior_shape)
    stdlib = modules_of_command(
        "--config", "config.json", "--format", fmt, "posterior", "--data", "campaign.csv", *grid,
        cwd=workdir, flags=("-S",),
    )[1]
    assert "csv" in stdlib  # the set holds what the command loaded
    assert stdlib & POSTERIOR_SKIPS == set()


@pytest.mark.parametrize("args", list(COMMANDS.values()), ids=list(COMMANDS))
def test_design_commands_load_no_dataclasses_typing_or_tempfile(args, workdir):
    # the rows are collections.namedtuple's, and the walks run on lists
    stdlib = modules_of_command("--config", "config.json", *args, cwd=workdir, flags=("-S",))[1]
    assert "csv" in stdlib  # the set holds what the command loaded
    assert stdlib & POSTERIOR_SKIPS == set()


@pytest.mark.parametrize(
    "args", [("--help",), ("posterior", "--help")], ids=["help", "posterior-help"]
)
def test_help_loads_no_argparse(args, workdir):
    _, stdlib, stdout = run_child(*args, cwd=workdir, flags=("-S",))
    assert stdout.startswith("Usage: mpdesign ")
    assert stdlib & PARSER_SKIPS == set()


def test_replicate_fig5_loads_no_scipy(workdir):
    assert scipy_modules("replicate", "--figure", "fig5", "--out-dir", "out", cwd=workdir) == set()


def numpy_modules(*args, cwd):
    return {m for m in loaded_by_command(*args, cwd=cwd) if m.split(".")[0] == "numpy"}


def write_budget(workdir, budget, name):
    """Write the baseline config with ``budget`` quadrant equivalents to ``name``."""
    doc = json.loads(json.dumps(BASE_DOC))
    doc["cost"]["budget_quadrant_equivalents"] = budget
    (workdir / name).write_text(json.dumps(doc))
    return doc


@pytest.mark.parametrize(
    "args",
    [("--config", "config.json", *args) for args in COMMANDS.values()]
    + [("--config", "config_b40.json", "design")]
    + [("replicate", "--figure", figure, "--out-dir", "out")
       for figure in ("fig1", "fig2", "fig3", "fig4", "fig6", "all")],
    ids=list(COMMANDS) + ["design-b40", "replicate-fig1", "replicate-fig2", "replicate-fig3",
                          "replicate-fig4", "replicate-fig6", "replicate-all"],
)
def test_walks_under_the_threshold_load_no_numpy(args, workdir):
    # B = 40 puts 159,850 terms in the first chunks, and replicate's eight
    # design figures 179,226
    write_budget(workdir, 40, "config_b40.json")
    assert numpy_modules(*args, cwd=workdir) == set()


def test_walk_past_the_threshold_loads_numpy(workdir):
    # B = 60 puts 358,660 terms in the first chunks
    doc = write_budget(workdir, 60, "config.json")
    assert sum(_first_chunks(parse_config(doc).design)) > design._PYTHON_WALK_TERMS
    assert "numpy" in numpy_modules("--config", "config.json", "design", cwd=workdir)


def test_replicate_fig5_loads_no_numpy(workdir):
    # its grid and Gamma densities are lists, as in ``posterior --density-grid``
    loaded = loaded_by_command("replicate", "--figure", "fig5", "--out-dir", "out", cwd=workdir)
    assert {m for m in loaded if m.split(".")[0] == "numpy"} == set()


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("--help",),
        ("design", "--help"),
        ("replicate", "--help"),
    ],
    ids=["import", "help", "design-help", "replicate-help"],
)
def test_nothing_but_cli_before_a_command_runs(args, workdir):
    loaded = loaded_modules(*args, cwd=workdir)
    assert {m for m in loaded if m == "numpy" or m.startswith("mpdesign.")} == {"mpdesign.cli"}
    # nothing else outside the standard library: no Click, no NumPy
    assert loaded == {"mpdesign", "mpdesign.cli"}


# the modules every command loads: the CLI, its config and output layers and
# the prior and cost types that the config holds
COMMAND_MODULES = {
    "mpdesign",
    "mpdesign._record",
    "mpdesign._special",
    "mpdesign.cli",
    "mpdesign.config",
    "mpdesign.cost",
    "mpdesign.distributions",
    "mpdesign.io",
}
DESIGN_PATH = {"mpdesign.design", "mpdesign.loss"}
POSTERIOR_PATH = {"mpdesign.posterior"}


@pytest.mark.parametrize(
    "args, extra",
    [
        (("--config", "config.json", "design"), DESIGN_PATH),
        (("--config", "config.json", "curves", "--m", "3"), DESIGN_PATH),
        (("--config", "config.json", "sensitivity", "--axis", "r2", "--values", "1,2"),
         DESIGN_PATH),
        (("--config", "config.json", "posterior", "--data", "campaign.csv"), POSTERIOR_PATH),
        (("replicate", "--figure", "fig1", "--out-dir", "out"),
         DESIGN_PATH | {"mpdesign.replicate"}),
        (("replicate", "--figure", "fig5", "--out-dir", "out"),
         POSTERIOR_PATH | {"mpdesign.replicate"}),
        (("replicate", "--figure", "fig6", "--out-dir", "out"),
         POSTERIOR_PATH | {"mpdesign.replicate"}),
    ],
    ids=["design", "curves", "sensitivity", "posterior", "replicate-fig1", "replicate-fig5",
         "replicate-fig6"],
)
def test_command_loads_only_what_it_runs(args, extra, workdir):
    loaded, stdlib = modules_of_command(*args, cwd=workdir)
    assert {m for m in loaded if m.split(".")[0] == "mpdesign"} == COMMAND_MODULES | extra
    # outside the standard library, NumPy at most: no Click
    assert {m.split(".")[0] for m in loaded} <= {"mpdesign", "numpy"}
    # the value types are records, and NumPy does not import dataclasses
    assert "dataclasses" not in stdlib


@pytest.mark.parametrize(
    "args",
    [
        ("--config", "config.json", "design"),
        ("--config", "config.json", "curves", "--m", "3"),
        ("--config", "config.json", "sensitivity", "--axis", "r2", "--values", "1,2"),
        ("--config", "config.json", "posterior", "--data", "campaign.csv", "--density-grid"),
        ("replicate", "--figure", "fig1", "--out-dir", "out"),
        ("replicate", "--figure", "fig5", "--out-dir", "out"),
    ],
    ids=["design", "curves", "sensitivity", "posterior", "replicate-fig1", "replicate-fig5"],
)
def test_no_openssl(args, workdir):
    assert "_hashlib" not in loaded_by_command(*args, cwd=workdir)


def test_config_loads_no_design_module():
    # DesignConfig is defined next to its parser, so reading a config runs
    # none of the optimizer
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, mpdesign.config; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'mpdesign')))"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "mpdesign.config" in loaded
    assert not loaded & {"mpdesign.design", "mpdesign.loss"}


def test_replicate_design_figure_loads_no_posterior(workdir):
    loaded = loaded_modules("replicate", "--figure", "fig1", "--out-dir", "out", cwd=workdir)
    assert "mpdesign.replicate" in loaded
    assert "mpdesign.posterior" not in loaded


def test_replicate_fig6_loads_no_scipy_and_no_openssl(workdir):
    loaded = loaded_by_command("replicate", "--figure", "fig6", "--out-dir", "out", cwd=workdir)
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == set()
    assert "_hashlib" not in loaded


def test_replicate_fig6_runs_without_scipy(workdir):
    # None in sys.modules makes every ``import scipy...`` raise ImportError
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['scipy'] = None\n" + CHILD,
         "replicate", "--figure", "fig6", "--out-dir", "out"],
        cwd=workdir, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (workdir / "out").iterdir())
    assert written == [
        "fig6_lambda382_abundance.csv", "fig6_lambda382_composition.csv",
        "fig6_n200_280_abundance.csv", "fig6_n200_280_composition.csv", "manifest.json",
    ]


# The public functions on one count, and the performance curve, called in a
# fresh interpreter: their answers, then whether NumPy was loaded.
ONE_COUNT_CHILD = """
import json, sys
from mpdesign import (
    CostModel, DesignConfig, DirichletParams, GammaParams, budget_rule,
    categorization_fraction, l2_expected, performance_curve,
)
cost = CostModel.from_budget_quadrants(0.0625, 12.0, 5e-5, 3e-3)
prior = DirichletParams.symmetric(10, 1.0)
config = DesignConfig(GammaParams.from_mode(3.0, 200.0), prior, cost)
rows = performance_curve(7, [0.0, 382.0, 1e5], config)
print(json.dumps([budget_rule(cost, 0.4375, 167), categorization_fraction(cost, 0.4375, 0),
                  l2_expected(101, prior), [list(row) for row in rows],
                  "numpy" in sys.modules]))
"""


def test_one_count_functions_load_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", ONE_COUNT_CHILD],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rule, q0, l2, rows, numpy_loaded = json.loads(proc.stdout)
    assert rule == [0.6070858283433134, 101] and q0 == 1.0
    assert l2 == rows[1][4] == 0.09009009009009009  # g0 / (g0 + n_bar) = 10/111
    assert [row[:4] for row in rows] == [[0.0, 0, 1.0, 0], [382.0, 167, 0.6070858283433134, 101],
                                         [1e5, 43750, 0.0, 0]]
    assert not numpy_loaded


def test_special_functions_are_a_leaf():
    # the design path and fig6 can use them without loading mpdesign.posterior
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, mpdesign._special; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpdesign'))))"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["mpdesign", "mpdesign._special"]


# The lazy package root, seen from a fresh interpreter: dir() before any
# access, then every public name, the star import, an unknown name, the
# Monte Carlo names that moved to tests/oracles.py and the names that no
# command called, which are gone.
PUBLIC_API_CHILD = """
import sys
import mpdesign
assert len(mpdesign.__all__) == 23, len(mpdesign.__all__)
assert set(mpdesign.__all__) <= set(dir(mpdesign)), set(mpdesign.__all__) - set(dir(mpdesign))
assert "__all__" in dir(mpdesign)
namespace = {}
exec("from mpdesign import *", namespace)
for name in mpdesign.__all__:
    value = getattr(mpdesign, name)
    module = value.__module__
    assert module.startswith("mpdesign."), (name, module)
    assert value is getattr(sys.modules[module], name), name
    assert namespace[name] is value, name
try:
    mpdesign.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("mpdesign.no_such_name resolved")
for name in ("RandomStream", "gamma_sample", "poisson_sample", "predictive_total_count",
             "dirichlet_sample", "mc_oracle_l1", "mc_oracle_l2",
             "normalized_cost", "feasible_designs", "predictive_l2", "expected_total_loss",
             "predictive_log_pmf", "dirichlet_cov_trace", "density_grid"):
    try:
        getattr(mpdesign, name)
    except AttributeError as exc:
        assert name in str(exc), exc
    else:
        raise AssertionError(f"mpdesign.{name} resolved")
"""


def test_lazy_root_public_api():
    proc = subprocess.run(
        [sys.executable, "-c", PUBLIC_API_CHILD],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_lists_the_public_api():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)` — \S", section, flags=re.M)
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == set(mpdesign.__all__)
    assert f"holds {len(mpdesign.__all__)} names" in section
