"""The design and posterior outputs against the golden files in ``tests/golden``.

Each output is recomputed and compared cell by cell with its golden file:
text (headers, axis names, JSON keys that are not numbers), integers (m, m*,
counts) exactly, and floats within ``REL_TOL``. The design curves take
NumPy's SIMD ``exp``/``log1p`` and a BLAS ``np.dot``, which move cells in the
last bits between CPUs; the largest move measured across dispatch paths is
7.6e-15 relative. The Gamma densities take the C library's ``exp``, which
glibc picks by CPU too: with its FMA variant masked off, one density cell of
the golden files moves by 1 ulp. So a bound of 2e-14 holds on any CPU and
still catches a real change. A subnormal density has fewer bits, so floats
are compared as if they were at least the smallest normal double. A change
that moves these outputs on purpose regenerates the files by hand with
``tests/golden/make_golden.py``.

``posterior`` needs no NumPy: it is also run in a fresh interpreter in which
``import numpy`` fails, on the golden campaigns, against the same files.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import mpdesign
from golden.make_golden import CAMPAIGNS, GOLDEN_DIR, golden_files, outputs

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
    assert len(GOLDEN_FILES) == 33
    assert sorted(fresh) == GOLDEN_FILES


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(fresh, name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    found = list(differences(expected, fresh[name]))
    assert not found, f"{name}: " + "; ".join(found[:5])


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
