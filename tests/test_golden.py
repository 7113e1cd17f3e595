"""The design and posterior outputs against the golden files in ``tests/golden``.

Each output is recomputed and compared cell by cell with its golden file:
text (headers, axis names, JSON keys that are not numbers), integers (m, m*,
counts) exactly, and floats within ``REL_TOL``. The design curves take no
SIMD or BLAS routine of NumPy's: their pmf is a product of basic operations,
summed in NumPy's pairwise order, so their bytes do not move with NumPy's
dispatch or the BLAS core, which a subprocess test checks. Their anchor, p^a,
and the Gamma densities take the C library's ``log1p``, ``exp`` and
``lgamma``, which glibc picks by CPU: with its FMA variant masked off, one
density cell of the golden files moves by 1 ulp. So a bound of 2e-14 holds on
any CPU and still catches a real change. A subnormal density has fewer bits,
so floats are compared as if they were at least the smallest normal double. A change
that moves these outputs on purpose regenerates the files by hand with
``tests/golden/make_golden.py``. Among the files is ``design_grid.csv``, m*,
the typical counts and the budget split of 960 designs (``GRID``), which
take about three seconds to recompute on a 2-vCPU Xeon; they are recomputed
a second time by the m*-only walk of ``sensitivity``, which must give the
same file.

``posterior`` needs no NumPy: it is also run in a fresh interpreter in which
``import numpy`` fails, on the golden campaigns, against the same files, and
so are the golden ``design``, ``curves`` and ``sensitivity`` commands, whose
design walks run on lists.
"""

import json
import math
import os
import platform
import random
import re
import subprocess
import sys

import pytest

import mpdesign
from mpdesign import design
from mpdesign.config import parse_config
from mpdesign.design import _first_chunks
from golden.make_golden import (
    BASELINE, CAMPAIGNS, COMMANDS, GOLDEN_DIR, GRID_COLUMNS, golden_files, grid_config,
    grid_points, grid_text, outputs,
)

REL_TOL = 2e-14

GOLDEN_FILES = golden_files()


def cells(text):
    """Each line's cells: split at commas, at the spaces and '=' of the
    ``#`` summary lines, and at the quotes and colons of JSON."""
    return [re.split(r'[, =":]', line) for line in text.splitlines()]


def cell_matches(expected, actual):
    if expected == actual:
        return True
    if re.fullmatch(r"-?\d+", expected) or re.fullmatch(r"-?\d+", actual):
        return False  # an integer, m or m*: exact
    try:
        x, y = float(expected), float(actual)
    except ValueError:
        return False  # text
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=REL_TOL * sys.float_info.min)


def differences(expected, actual):
    """Where ``actual`` departs from the golden ``expected`` text, one line each."""
    want, got = cells(expected), cells(actual)
    if len(want) != len(got):
        yield f"{len(got)} lines, golden has {len(want)}"
    for number, (want_line, got_line) in enumerate(zip(want, got), 1):
        if len(want_line) != len(got_line):
            yield f"line {number}: {len(got_line)} cells, golden has {len(want_line)}"
        for e, a in zip(want_line, got_line):
            if not cell_matches(e, a):
                yield f"line {number}: {a!r}, golden {e!r}"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_every_output_has_a_golden_file(fresh):
    assert len(GOLDEN_FILES) == 34
    assert sorted(fresh) == GOLDEN_FILES


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(fresh, name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    found = list(differences(expected, fresh[name]))
    assert not found, f"{name}: " + "; ".join(found[:5])


def test_m_star_only_walk_matches_the_grid():
    # the walk of ``sensitivity``, which skips the design points that cannot
    # be m*, gives every GRID design's m*, typical counts and budget split
    found = list(differences(
        (GOLDEN_DIR / "design_grid.csv").read_text(encoding="utf-8"), grid_text(m_star_only=True)
    ))
    assert not found, "design_grid.csv: " + "; ".join(found[:5])


def test_m_star_only_walk_rows_have_the_full_walks_bits():
    points = random.Random(35).sample(grid_points(), 60)
    configs = [grid_config(*point) for point in points]
    sizes = [_first_chunks(config) for config in configs]
    full = design._optimize_designs(configs, sizes)
    bounded = design._optimize_designs(configs, sizes, m_star_only=True)
    skipped = 0
    for point, a, b in zip(points, full, bounded):
        assert (b.m_star, b.typical_n, b.typical_n_bar) == (a.m_star, a.typical_n, a.typical_n_bar)
        assert [v.hex() for v in b.budget_split.values()] == [
            v.hex() for v in a.budget_split.values()
        ]
        assert len(b.curve.rows) == len(a.curve.rows)
        assert b.curve.rows[0] is not None and b.optimal_row == a.optimal_row
        for row, walked in zip(a.curve.rows, b.curve.rows):
            if walked is None:
                skipped += 1
            else:
                assert list(map(float.hex, walked[1:])) == list(map(float.hex, row[1:])), (
                    point, row.m,
                )
    assert skipped > 0


# Runs the command line with NumPy made unimportable: None in sys.modules
# makes every ``import numpy`` raise ImportError.
NUMPY_FREE_CHILD = """
import sys
sys.modules["numpy"] = None
from mpdesign.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_posterior_runs_without_numpy(campaign, fmt, tmp_path):
    doc, data = CAMPAIGNS[campaign]
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "campaign.csv").write_text(data, encoding="utf-8")
    # the child imports the mpdesign that this test imported: the checkout
    # or an installed package
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(mpdesign.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, "--config", "config.json", "--format", fmt,
         "posterior", "--data", "campaign.csv", "--density-grid"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    name = f"posterior_{campaign}.{fmt}"
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    found = list(differences(golden, proc.stdout))
    assert not found, f"{name}: " + "; ".join(found[:5])
    # the summary (HPD ends, moments, counts) takes no exp of the C library's
    # or NumPy's: it keeps every bit
    assert summary(proc.stdout, fmt) == summary(golden, fmt)


# Runs the command line, then reports on stderr whether the command loaded
# NumPy and which CPU features NumPy's dispatch had on.
DISPATCH_CHILD = """
import sys
from mpdesign.cli import main
code = main(sys.argv[1:])
walked_in_numpy = "numpy" in sys.modules
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1
    from numpy.core._multiarray_umath import __cpu_features__
print(walked_in_numpy, *sorted(f for f, on in __cpu_features__.items() if on), file=sys.stderr)
sys.exit(code)
"""


def dispatch_levels():
    """NumPy's dispatched SIMD levels that this CPU has on: all of them, and
    the AVX512 ones."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    levels = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return levels, [f for f in levels if f.startswith("AVX512") or f == "X86_V4"]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the BLAS cores and SIMD levels named are x86's",
)
def test_design_bytes_do_not_depend_on_blas_or_simd(tmp_path):
    # B = 60 puts 358,660 terms in the first pmf chunks, so the walk is
    # NumPy's; its bytes must not move with OpenBLAS's core or NumPy's SIMD level
    doc = {**BASELINE, "cost": {**BASELINE["cost"], "budget_quadrant_equivalents": 60}}
    assert sum(_first_chunks(parse_config(doc).design)) > design._PYTHON_WALK_TERMS
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(mpdesign.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    variants = [{}] + [{"OPENBLAS_CORETYPE": core} for core in ("Prescott", "Haswell", "SkylakeX")]
    variants += [
        {"NPY_DISABLE_CPU_FEATURES": " ".join(levels)} for levels in dispatch_levels() if levels
    ]
    outputs = set()
    for variant in variants:
        proc = subprocess.run(
            [sys.executable, "-c", DISPATCH_CHILD, "--config", "config.json", "design"],
            cwd=tmp_path, env={**env, **variant}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        walked_in_numpy, *features = proc.stderr.split()
        assert walked_in_numpy == "True"
        masked = variant.get("NPY_DISABLE_CPU_FEATURES", "").split()
        assert not set(masked) & set(features), variant  # the mask took
        assert proc.stdout.startswith("# m_star: ")
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_design_commands_run_without_numpy(name, tmp_path):
    # their walks hold at most design._PYTHON_WALK_TERMS terms, so they run on lists
    (tmp_path / "config.json").write_text(json.dumps(BASELINE), encoding="utf-8")
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(mpdesign.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, "--config", "config.json", *COMMANDS[name]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = list(differences((GOLDEN_DIR / name).read_text(encoding="utf-8"), proc.stdout))
    assert not found, f"{name}: " + "; ".join(found[:5])


def summary(text, fmt):
    """A posterior output without its density rows."""
    if fmt == "json":
        doc = json.loads(text)
        del doc["abundance_density"]
        return doc
    return [line for line in text.splitlines() if not line.startswith("abundance_density,")]


def test_comparison_catches_a_moved_cell_and_a_changed_m_star():
    golden = "# m_star: 7\nm,L_star\n7,0.5\n"

    def curve(m_star="7", m="7", l_star=0.5):
        return f"# m_star: {m_star}\nm,L_star\n{m},{l_star!r}\n"

    assert curve() == golden
    assert not list(differences(golden, curve(l_star=0.5 * (1 + 1e-14))))
    assert list(differences(golden, curve(l_star=0.5 * (1 + 4e-14))))
    assert list(differences(golden, curve(m_star="6")))
    assert list(differences(golden, curve(m="7.0")))
    assert list(differences(golden, "# m_star: 7\nm,L_star\n"))


def test_grid_comparison_catches_a_changed_count():
    golden = (GOLDEN_DIR / "design_grid.csv").read_text(encoding="utf-8")
    header, *rows = golden.splitlines(keepends=True)
    assert header.rstrip("\n").split(",") == list(GRID_COLUMNS)
    assert len(rows) == 960
    column = GRID_COLUMNS.index("typical_n_bar")
    cells = rows[-1].split(",")
    for step in (1, -1):
        moved = cells[:column] + [str(int(cells[column]) + step)] + cells[column + 1:]
        found = list(differences(golden, header + "".join(rows[:-1]) + ",".join(moved)))
        assert found == [f"line 961: {moved[column]!r}, golden {cells[column]!r}"]


def test_comparison_catches_a_moved_density_and_a_changed_hpd_end():
    def posterior(upper=133.984320292621, key=0.5370113037780401, density=1.357676791572819e-32):
        return (
            f'{{\n  "abundance": {{\n    "hpd_upper": {upper!r}\n  }},\n'
            f'  "abundance_density": {{\n    "{key!r}": {density!r}\n  }}\n}}\n'
        )

    golden = posterior()
    assert '"0.5370113037780401": 1.357676791572819e-32' in golden
    assert not list(differences(golden, posterior(key=0.5370113037780401 * (1 + 1e-14))))
    assert not list(differences(golden, posterior(density=1.357676791572819e-32 * (1 + 1e-14))))
    assert list(differences(golden, posterior(density=1.357676791572819e-32 * (1 + 4e-14))))
    assert list(differences(golden, posterior(upper=133.984320292621 * (1 + 1e-12))))
    # a subnormal density may move by a few of its last bits (here ten), not by 10%
    assert not list(differences(posterior(density=5e-320), posterior(density=5.005e-320)))
    assert list(differences(posterior(density=5e-320), posterior(density=5.5e-320)))
