import contextlib
import io
import math
import sys
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np
import pytest

from mpdesign import CostModel, DesignConfig, DirichletParams, GammaParams


def dirichlet_multinomial_enumeration(gamma, n):
    """Exact per-class (mean, variance) by summing the DM pmf over all
    compositions of n into k parts. Independent oracle for the closed-form
    moments; practical for small k and n only.
    """
    gamma = np.asarray(gamma, dtype=float)
    k = len(gamma)
    g0 = gamma.sum()
    mean = np.zeros(k)
    second = np.zeros(k)
    total_p = 0.0
    for bars in combinations_with_replacement(range(n + 1), k - 1):
        # compositions via stars and bars
        cuts = (0,) + bars + (n,)
        s = np.diff(sorted(cuts))
        logp = (
            math.lgamma(n + 1)
            - sum(math.lgamma(si + 1) for si in s)
            + math.lgamma(g0)
            - math.lgamma(g0 + n)
            + sum(math.lgamma(gi + si) - math.lgamma(gi) for gi, si in zip(gamma, s))
        )
        p = math.exp(logp)
        total_p += p
        mean += p * s
        second += p * s.astype(float) ** 2
    assert abs(total_p - 1.0) < 1e-9
    return mean, second - mean**2


def dirichlet_cov_matrix(gamma):
    """Numerically assembled Dirichlet covariance (1/(1+g0))(diag(t) - t t^T)."""
    gamma = np.asarray(gamma, dtype=float)
    theta = gamma / gamma.sum()
    return (np.diag(theta) - np.outer(theta, theta)) / (1.0 + gamma.sum())


BASELINE_COST = CostModel.from_budget_quadrants(0.0625, 12.0, 5e-5, 3e-3)


def baseline_config(beta=0.01, budget=12.0, r2=3e-3):
    return DesignConfig(
        abundance_prior=GammaParams(3.0, beta),
        composition_prior=DirichletParams.symmetric(10, 1.0),
        cost=CostModel.from_budget_quadrants(0.0625, budget, 5e-5, r2),
    )


@pytest.fixture
def low_config():
    return baseline_config()


@pytest.fixture
def high_config():
    return baseline_config(beta=0.0025)


# "ACCEPTANCE n ...: PASS|FAIL" lines from test_acceptance.report, printed in
# the terminal summary so they appear whatever pytest's capture mode is.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a nonzero exit, or the uncaught error


class _Tee(io.StringIO):
    def __init__(self, merged):
        super().__init__()
        self.merged = merged

    def write(self, text):
        self.merged.write(text)
        return super().write(text)


class CliRunner:
    """Runs a command line's ``main`` in this process, as its console script
    does (``sys.exit(main(args))``), and captures what it writes."""

    def invoke(self, main, args) -> CliResult:
        merged = io.StringIO()
        out, err = _Tee(merged), _Tee(merged)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                sys.exit(main(args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
                exception = exc if code else None
            except Exception as exc:  # a bug: the console script prints its traceback
                code, exception = 1, exc
        return CliResult(code, merged.getvalue(), out.getvalue(), err.getvalue(), exception)
