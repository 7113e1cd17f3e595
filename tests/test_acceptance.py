"""End-to-end acceptance checks.

Each test records a single ``ACCEPTANCE n ...: PASS|FAIL`` line and then
asserts. The lines are printed in an "acceptance" section of pytest's terminal
summary (see ``conftest.py``), so they appear in the run log with or without
output capture.
Tolerances are pinned; see the numbers inline.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mpdesign import (
    CategorizationCounts,
    CostModel,
    DesignConfig,
    DirichletParams,
    FieldObservations,
    GammaParams,
    categorization_fraction,
    dirichlet_multinomial_moments,
    hpd_interval,
    l1_expected,
    l2_expected,
    optimize_design,
    performance_curve,
    sensitivity_sweep,
    update_abundance,
    update_composition,
)
from mpdesign.cli import main
from mpdesign.design import default_abundance_grid
from oracles import RandomStream, mc_oracle_l1, mc_oracle_l2
from conftest import (
    ACCEPTANCE_LINES,
    BASELINE_COST,
    CliRunner,
    baseline_config,
    dirichlet_multinomial_enumeration,
)


def report(number, title, passed):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:2d} {title}: {verdict}")
    assert passed, f"acceptance criterion {number} ({title}) failed"


def test_01_baseline_design_replication():
    low = optimize_design(baseline_config()).m_star
    high = optimize_design(baseline_config(beta=0.0025)).m_star
    report(
        1,
        f"baseline m*={low} (low prior), m*={high} (high prior) vs 7/4",
        low == 7 and high == 4,
    )


def test_02_abundance_loss_closed_form_values():
    prior = GammaParams(3.0, 0.01)
    v5 = l1_expected(5, prior, 0.0625)
    v7 = l1_expected(7, prior, 0.0625)
    report(
        2,
        f"L1*(5)={v5:.5f}, L1*(7)={v7:.5f} vs 0.03101/0.02235 (abs 1e-4)",
        abs(v5 - 0.03101) < 1e-4 and abs(v7 - 0.02235) < 1e-4,
    )


def test_03_budget_implied_categorization_fraction():
    area = 7 * 0.0625  # 0.4375 m^2
    q167 = categorization_fraction(BASELINE_COST, area, 167)
    q280 = categorization_fraction(BASELINE_COST, area, 280)
    ok = (
        abs(q167 - 0.6071) < 1e-3
        and math.floor(167 * q167) == 101
        and abs(q280 - 0.3554) < 1e-3
        and math.floor(280 * q280) == 99
    )
    report(3, f"q(167)={q167:.4f}->101, q(280)={q280:.4f}->99", ok)


def test_04_composition_loss_closed_form_values():
    prior = DirichletParams.symmetric(10, 1.0)
    v280 = float(l2_expected(280, prior))
    v99 = float(l2_expected(99, prior))
    report(
        4,
        f"L2*(280)={v280:.4f} (0.0344 +- 5e-4), L2*(99)={v99:.4f} (0.092 +- 2e-3)",
        abs(v280 - 0.0344) < 5e-4 and abs(v99 - 0.092) < 2e-3,
    )


def test_05_oracle_equivalence():
    rng = np.random.default_rng(20_260_825)
    failures = []
    for i in range(20):
        prior = GammaParams(rng.uniform(0.5, 8.0), rng.uniform(1e-3, 0.05))
        m = int(rng.integers(1, 13))
        est, se = mc_oracle_l1(m, prior, 0.0625, 100_000, RandomStream(101, (i,)))
        if abs(est - l1_expected(m, prior, 0.0625)) > 3 * se:
            failures.append(("l1", i))
    for i in range(20):
        k = int(rng.integers(2, 11))
        prior = DirichletParams(tuple(rng.uniform(0.2, 4.0, size=k)))
        n_bar = int(rng.integers(1, 501))
        est, se = mc_oracle_l2(n_bar, prior, 100_000, RandomStream(102, (i,)))
        if abs(est - float(l2_expected(n_bar, prior))) > 3 * se:
            failures.append(("l2", i))
    report(5, f"MC oracles within 3 SE on 20+20 random configs ({failures})", not failures)


def test_06_robustness_scenarios():
    low = baseline_config()
    high = baseline_config(beta=0.0025)
    low_rows = sensitivity_sweep(low, "budget", [8.0, 14.0])
    high_rows = sensitivity_sweep(high, "budget", [8.0, 14.0])
    r2_row = sensitivity_sweep(low, "r2", [1000.0])[0]
    checks = [
        (low_rows[0].m_star == 5, abs(low_rows[0].typical_n_bar - 60) <= 10),
        (high_rows[0].m_star == 3, abs(high_rows[0].typical_n_bar - 100) <= 15),
        (low_rows[1].m_star == 8, abs(low_rows[1].typical_n_bar - 125) <= 15),
        (high_rows[1].m_star == 5, abs(high_rows[1].typical_n_bar - 200) <= 20),
        (r2_row.typical_n_bar == 0, True),
    ]
    detail = (
        f"B8 low (m*={low_rows[0].m_star}, n~{low_rows[0].typical_n_bar}), "
        f"B8 high (m*={high_rows[0].m_star}, n~{high_rows[0].typical_n_bar}), "
        f"B14 low (m*={low_rows[1].m_star}, n~{low_rows[1].typical_n_bar}), "
        f"B14 high (m*={high_rows[1].m_star}, n~{high_rows[1].typical_n_bar}), "
        f"r2x1000 (n~{r2_row.typical_n_bar})"
    )
    report(6, f"robustness scenarios: {detail}", all(a and b for a, b in checks))


def budget_plateau(budget, area, r1, r2, m):
    """(n_full, peak n_bar) for m quadrants, in exact rational arithmetic.

    The residual after sampling is R = (B - m)*A. Every counted particle is
    categorized (q = 1) up to n_full = floor(R/(r1 + r2)); the peak is
    max over n of min(n, floor((R - n*r1)/r2)), scanned up to n = R/r1 where
    counting alone spends the residual.
    """
    residual = (budget - m) * area
    n_full = math.floor(residual / (r1 + r2))
    peak = max(
        min(n, math.floor((residual - n * r1) / r2))
        for n in range(math.floor(residual / r1) + 1)
    )
    return n_full, peak


def test_07_performance_curve_shape():
    # Cost inputs are the baseline that acceptance 3 pins (B = 12, A = 0.0625,
    # r1 = 5e-5, r2 = 3e-3), taken as exact decimals. At m = 7 the residual is
    # R = 12A - 7A = 5/16 m^2, so every n_bar <= (R - n*r1)/r2 < R/r2 = 104.17:
    # the plateau is 102, and the former target of 120 +- 10% could not be
    # reached. At m = 4, R = 1/2 and the peak is 163. Both are derived here
    # without the package's budget rule.
    budget, area = Fraction(12), Fraction("0.0625")
    r1, r2 = Fraction("5e-5"), Fraction("3e-3")
    parts, ok = [], True
    for m, config in ((7, baseline_config()), (4, baseline_config(beta=0.0025))):
        n_full, peak = budget_plateau(budget, area, r1, r2, m)
        rows = performance_curve(m, default_abundance_grid(config, points=400), config)
        got = max(r.n_bar for r in rows)
        q_shape = all((r.q == 1.0) == (r.n <= n_full) for r in rows)
        reaches = max(r.n for r in rows) >= n_full
        ok &= got == peak and q_shape and reaches
        parts.append(
            f"m={m}: q=1 exactly for n<={n_full} ({q_shape}), "
            f"peak n_bar {got} == {peak} ({got == peak}), grid reaches n={n_full} ({reaches})"
        )
    report(7, "; ".join(parts), ok)


def test_08_posterior_validity():
    prior = GammaParams(3.0, 0.01)
    hpd_ok = True
    for post in (
        prior,
        GammaParams(28.0, 0.3225),
        GammaParams(361.0, 0.9475),
        GammaParams(0.7, 0.2),
        GammaParams(1.0, 2.0),
    ):
        lower, upper = hpd_interval(post, 0.95)
        hpd_ok &= 0.0 <= lower < upper

    first = FieldObservations(0.0625, (3, 9))
    second = FieldObservations(0.0625, (1, 0, 7))
    joint = FieldObservations(0.0625, (3, 9, 1, 0, 7))
    seq_ok = update_abundance(update_abundance(prior, first), second) == update_abundance(
        prior, joint
    )
    d_prior = DirichletParams((0.5, 1.5, 2.0))
    seq_ok &= update_composition(
        update_composition(d_prior, CategorizationCounts((3, 0, 2))),
        CategorizationCounts((1, 4, 0)),
    ) == update_composition(d_prior, CategorizationCounts((4, 4, 2)))

    moments_ok = True
    for gamma in ((1.0, 1.0, 1.0), (0.5, 1.5, 2.0), (3.0, 0.3, 1.2)):
        for n in range(1, 7):
            mean, var = dirichlet_multinomial_moments(DirichletParams(gamma), n)
            ref_mean, ref_var = dirichlet_multinomial_enumeration(gamma, n)
            moments_ok &= np.allclose(mean, ref_mean, rtol=0, atol=1e-9)
            moments_ok &= np.allclose(var, ref_var, rtol=0, atol=1e-9)

    report(
        8,
        f"HPD nonnegative ({hpd_ok}), sequential=joint ({seq_ok}), "
        f"DM moments vs enumeration ({moments_ok})",
        hpd_ok and seq_ok and moments_ok,
    )


def test_09_determinism_and_scale_invariance(tmp_path):
    runner = CliRunner()
    config = tmp_path / "config.json"
    config.write_text(
        '{"abundance_prior": {"shape": 3, "mode": 200},'
        ' "composition_prior": {"classes": 10, "symmetric_gamma": 1.0},'
        ' "cost": {"quadrant_area": 0.0625, "budget_quadrant_equivalents": 12,'
        ' "count_ratio": 5e-05, "categorize_ratio": 0.003}}'
    )
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = runner.invoke(
            main, ["--config", str(config), "--out", str(out), "design"]
        ).exit_code
        assert code == 0
        blobs.append(out.read_bytes())
    bytes_ok = blobs[0] == blobs[1]

    def scaled(factor):
        return DesignConfig(
            abundance_prior=GammaParams(3.0, 0.01),
            composition_prior=DirichletParams.symmetric(10, 1.0),
            cost=CostModel.from_raw_costs(
                0.0625, factor * 80.0, factor * 4e-3, factor * 0.24, factor * 60.0
            ),
        )

    scale_ok = optimize_design(scaled(1.0)) == optimize_design(scaled(7.3))
    report(
        9,
        f"byte-identical reruns ({bytes_ok}), cost rescale x7.3 bit-identical ({scale_ok})",
        bytes_ok and scale_ok,
    )


def test_10_u_shape():
    curve = optimize_design(baseline_config()).curve
    e2 = np.array([row.e_l2_star for row in curve.rows])
    se = np.array([row.e_l2_se for row in curve.rows])
    diffs = np.diff(e2)
    band = 2.0 * np.sqrt(se[:-1] ** 2 + se[1:] ** 2)
    signs = [d > 0 for d, b in zip(diffs, band) if abs(d) > b]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    ok = flips == 1 and not signs[0] and signs[-1]
    report(10, f"E[L2*] U-shape, one sign change outside 2 SE ({flips} flip)", ok)
