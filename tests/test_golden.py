"""The design and posterior outputs against the golden files in ``tests/golden``.

Each output is recomputed and compared cell by cell with its golden file:
text (headers, axis names, JSON keys that are not numbers), integers (m, m*,
counts) exactly, and floats within ``REL_TOL``. The design curves and the
Gamma densities take NumPy's SIMD ``exp``/``log1p`` and a BLAS ``np.dot``,
which move cells in the last bits between CPUs; the largest move measured
across dispatch paths is 7.6e-15 relative, so a bound of 2e-14 holds on any
CPU and still catches a real change. A subnormal density has fewer bits, so
floats are compared as if they were at least the smallest normal double. A
change that moves these outputs on purpose regenerates the files by hand
with ``tests/golden/make_golden.py``.
"""

import math
import re
import sys

import pytest

from golden.make_golden import GOLDEN_DIR, golden_files, outputs

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
