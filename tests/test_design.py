import itertools
import math
import random
import re
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from mpdesign import (
    CostModel,
    DesignConfig,
    DirichletParams,
    GammaParams,
    l1_expected,
    optimize_design,
    performance_curve,
    sensitivity_sweep,
)
from mpdesign import design
from mpdesign.cost import (
    _categorizable, _categorized, _categorized_bounds, _categorized_list, _categorized_runs,
    _fractions,
)
from mpdesign.design import (
    MAX_CURVE_TERMS,
    MAX_MEAN_COUNT,
    MAX_QUADRANTS,
    TAIL_MASS,
    _MAX_CHUNK,
    _ArrayWalk,
    _ListWalk,
    _anchor,
    _expected_l2,
    _first_chunk,
    _first_chunks,
    _pmf_chunk,
    _predictive_median,
    default_abundance_grid,
)
from mpdesign.loss import _l2
from oracles import RandomStream, budget_fraction, categorized_count, predictive_total_count
from conftest import BASELINE_COST, baseline_config

N = 100_000  # Monte Carlo draws behind an oracle mean


def own_tables(m, config):
    """The first-chunk size at m and per-count arrays built for that point alone."""
    size = _first_chunk(m, config)
    return size, _ArrayWalk.tables(config, size)


def expected_l2(m, config, size, tables):
    """``_expected_l2`` at m >= 1 over a first chunk of ``size`` counts read from ``tables``."""
    area = m * config.cost.quadrant_area
    first = _pmf_chunk(_ArrayWalk, tables, config.abundance_prior, area, 0, size)
    return _expected_l2(m, config, first, tables, _ArrayWalk)


def median_alone(m, config):
    """The predictive median at m, read over that point's own arrays."""
    return _predictive_median(m, config, *own_tables(m, config), _ArrayWalk)


def no_tables(monkeypatch):
    """Make building any walk's tables fail, so a test shows that a check
    rejects its input before any table is built."""
    for walk in (_ArrayWalk, _ListWalk):
        monkeypatch.setattr(walk, "tables", None)


class TestExpectedTotalLoss:
    """The composite expected loss L*(m) and its error bound, the design curve's rows."""

    def test_zero_quadrants_is_total_loss(self, low_config):
        row = optimize_design(low_config).curve.rows[0]
        assert (row.m, row.l_star, row.l_star_se) == (0, 1.0, 0.0)

    def test_infeasible_m_rejected(self, low_config):
        # the curve holds m = 0 .. 12 and nothing past it
        assert [row.m for row in optimize_design(low_config).curve.rows] == list(range(13))
        with pytest.raises(ValueError, match=r"^m=13 outside the feasible set 0\.\.12$"):
            performance_curve(13, [100.0], low_config)

    def test_budget_exhaustion_pushes_loss_up(self, low_config):
        # at the feasibility boundary nothing is left for categorization
        value = optimize_design(low_config).curve.rows[12].l_star
        l1 = 1.0 / (1.0 + 12 * 0.0625 / 0.01)
        assert value == pytest.approx((l1 + 1.0) / 2.0, abs=1e-12)

    def test_components_bounded(self, low_config):
        rows = optimize_design(low_config).curve.rows
        for m in (1, 5, 9, 12):
            assert 0.0 < rows[m].l_star <= 1.0
            assert rows[m].l_star_se >= 0.0


class TestOptimizeDesign:
    def test_baseline_low_prior(self, low_config):
        assert optimize_design(low_config).m_star == 7

    def test_baseline_high_prior(self, high_config):
        assert optimize_design(high_config).m_star == 4

    def test_reduced_budget_low_prior(self):
        assert optimize_design(baseline_config(budget=8.0)).m_star == 5

    def test_nan_loss_named_by_m(self, low_config, monkeypatch):
        # argmin would pick the first NaN as m*
        l1 = design.l1_expected
        monkeypatch.setattr(
            design, "l1_expected", lambda m, *args: math.nan if m == 3 else l1(m, *args)
        )
        with pytest.raises(ValueError, match=r"^the expected loss L\* is NaN at m=3;"):
            optimize_design(low_config)

    def test_ties_break_toward_smaller_m(self, low_config, monkeypatch):
        curve_row = design._curve_row

        def tied(m, *args):  # the two least L*, at m = 4 and m = 9, are equal
            row = curve_row(m, *args)
            return row._replace(l_star=0.0) if m in (4, 9) else row

        monkeypatch.setattr(design, "_curve_row", tied)
        result = optimize_design(low_config)
        assert result.m_star == 4
        assert result.optimal_row == result.curve.rows[4]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"beta": 0.0025}, {"budget": 8.0}, {"r2": 3.0}, {"budget": 20.0, "r2": 6e-3}],
        ids=["low", "high", "b8", "r2x1000", "b20-r2x2"],
    )
    def test_typical_summary_recomputed(self, kwargs):
        # independent of budget_rule: the scalar q, floor(n*q) and the
        # normalized cost at the predictive-median count of m*
        config = baseline_config(**kwargs)
        result = optimize_design(config)
        row = result.optimal_row
        cost, n = config.cost, result.typical_n
        a, b = config.abundance_prior.shape, config.abundance_prior.rate
        assert n == int(stats.nbinom(a, b / (b + row.area)).median())
        q = budget_fraction(cost, row.area, n)
        n_bar = math.floor(n * q)
        c = cost.budget_coefficient
        assert result.typical_n_bar == n_bar
        assert type(result.typical_n_bar) is int
        assert result.budget_split == {
            "sampling": c * row.area,
            "counting": c * cost.count_ratio * n,
            "categorization": c * cost.categorize_ratio * n_bar,
            "slack": 1.0 - c * (row.area + cost.count_ratio * n + cost.categorize_ratio * n_bar),
        }

    def test_typical_summary_without_sampling(self):
        result = optimize_design(baseline_config(budget=0.5))
        assert (result.m_star, result.typical_n, result.typical_n_bar) == (0, 0, 0)
        assert result.budget_split == {
            "sampling": 0.0, "counting": 0.0, "categorization": 0.0, "slack": 1.0,
        }

    def test_rerun_bit_identical(self, low_config):
        a = optimize_design(low_config)
        b = optimize_design(low_config)
        assert a.m_star == b.m_star
        assert a.curve == b.curve

    def test_curve_invariants(self, low_config):
        curve = optimize_design(low_config).curve
        l1 = np.array([row.l1_star for row in curve.rows])
        assert np.all(np.diff(l1) < 0)
        for row in curve.rows:
            combined = 0.5 * row.l1_star + 0.5 * row.e_l2_star
            assert abs(row.l_star - combined) < 1e-12
            assert 0.0 < row.l_star <= 1.0

    def test_u_shape_of_l2_component(self, low_config):
        curve = optimize_design(low_config).curve
        e2 = np.array([row.e_l2_star for row in curve.rows])
        se = np.array([row.e_l2_se for row in curve.rows])
        diffs = np.diff(e2)
        band = 2.0 * np.sqrt(se[:-1] ** 2 + se[1:] ** 2)
        signs = [d > 0 for d, b in zip(diffs, band) if abs(d) > b]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1
        assert not signs[0] and signs[-1]

    def test_more_budget_never_hurts_fixed_m(self):
        curves = [optimize_design(baseline_config(budget=b)).curve for b in (10.0, 12.0, 14.0)]
        for m in (3, 6, 8):
            losses = [curve.rows[m].l_star for curve in curves]
            # weakly larger budget -> weakly larger q -> smaller L2 term
            assert losses[0] >= losses[1] - 3e-3 >= losses[2] - 6e-3

    def test_scale_invariant_under_raw_cost_rescaling(self):
        def config(factor):
            cost = CostModel.from_raw_costs(
                0.0625, factor * 80.0, factor * 4e-3, factor * 0.24, factor * 60.0
            )
            return DesignConfig(
                abundance_prior=GammaParams(3.0, 0.01),
                composition_prior=DirichletParams.symmetric(10, 1.0),
                cost=cost,
            )

        assert optimize_design(config(1.0)) == optimize_design(config(7.3))


class TestPerformanceCurve:
    def test_low_count_region_fully_categorized(self, low_config):
        rows = performance_curve(7, np.linspace(4.0, 800.0, 200), low_config)
        for row in rows:
            if row.n <= 100:
                assert row.q == 1.0
                assert row.n_bar == row.n

    def test_categorized_count_plateaus(self, low_config):
        rows = performance_curve(7, default_abundance_grid(low_config), low_config)
        n_bar = np.array([r.n_bar for r in rows])
        # once the budget binds, n_bar stays within a few particles of its peak
        peak = n_bar.max()
        binding = n_bar[np.array([r.q for r in rows]) < 1.0]
        assert np.all(binding > 0.9 * peak)

    def test_zero_abundance_row(self, low_config):
        (row,) = performance_curve(7, [0.0], low_config)
        assert (row.n, row.q, row.n_bar, row.l2_star) == (0, 1.0, 0, 1.0)

    def test_high_prior_peak_larger_with_smaller_area(self, high_config):
        rows = performance_curve(4, default_abundance_grid(high_config), high_config)
        assert max(r.n_bar for r in rows) > 150

    def test_infeasible_m_rejected(self, low_config):
        for m in (13, -1, 2.5):
            with pytest.raises(ValueError, match=rf"^m={m} outside the feasible set 0\.\.12$"):
                performance_curve(m, [100.0], low_config)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_grid_point_named(self, low_config, bad):
        with pytest.raises(ValueError, match=f"grid point {bad} is not a finite number >= 0"):
            performance_curve(7, [1.0, bad], low_config)


class TestSensitivitySweep:
    def test_prohibitive_categorization_cost(self):
        base = baseline_config()
        rows = sensitivity_sweep(base, "r2", [1.0, 1000.0])
        assert rows[1].typical_n_bar == 0

    def test_budget_axis_matches_direct_runs(self):
        base = baseline_config()
        rows = sensitivity_sweep(base, "budget", [8.0, 12.0, 14.0])
        assert [r.m_star for r in rows] == [5, 7, 8]

    def test_prior_mode_axis(self):
        base = baseline_config()
        rows = sensitivity_sweep(base, "prior-mode", [200.0, 800.0])
        assert [r.m_star for r in rows] == [7, 4]

    @pytest.mark.parametrize(
        "axis,values",
        [("r2", [0.5, 1.0, 1000.0]), ("budget", [4.0, 8.0, 13.0, 20.0]),
         ("prior-mode", [50.0, 200.0, 3000.0])],
    )
    def test_rows_equal_direct_runs(self, axis, values):
        base = baseline_config()
        cost = base.cost
        for value, row in zip(values, sensitivity_sweep(base, axis, values)):
            if axis == "r2":
                cfg = baseline_config(r2=cost.categorize_ratio * value)
            elif axis == "budget":
                cfg = baseline_config(budget=value)
            else:
                cfg = DesignConfig(
                    GammaParams.from_mode(3.0, value), base.composition_prior, base.cost
                )
            result = optimize_design(cfg)
            assert (row.axis, row.value) == (axis, value)
            assert (row.m_star, row.typical_n_bar) == (result.m_star, result.typical_n_bar)
            assert row.budget_slack == result.budget_split["slack"]

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sensitivity_sweep(baseline_config(), "area", [1.0])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            sensitivity_sweep(baseline_config(), "r2", [])

    @pytest.mark.parametrize(
        "axis,value",
        [("budget", math.inf), ("prior-mode", math.nan), ("prior-mode", math.inf),
         ("r2", math.inf)],
    )
    def test_bad_value_named(self, axis, value):
        with pytest.raises(ValueError, match=f"^{axis} value {value}: "):
            sensitivity_sweep(baseline_config(), axis, [8.0, value])

    @pytest.mark.parametrize(
        "values,named,error",
        [([200.0, 1e-300, 1e-200], 1e-300, "2.3e-07"), ([1e-200, 1e-300], 1e-200, "1.1e-07")],
    )
    def test_log_pmf_rounding_names_the_first_failing_value(self, values, named, error):
        # with shape 1e6, modes this small put an ulp of log(rate) times the
        # shape past the log pmf's tolerance
        cfg = baseline_config()
        base = DesignConfig(GammaParams.from_mode(1e6, 200.0), cfg.composition_prior, cfg.cost)
        with pytest.raises(ValueError) as info:
            sensitivity_sweep(base, "prior-mode", values)
        assert str(info.value) == (
            f"prior-mode value {named}: abundance_prior shape 1000000.0 is too large: "
            f"rounding log(rate) moves the log pmf by up to {error}, past 1e-08"
        )


class TestDesignConfig:
    def test_draws_and_seed_do_not_change_the_design(self):
        base = baseline_config()
        names = ("abundance_prior", "composition_prior", "cost")
        assert DesignConfig.__slots__ == DesignConfig.__match_args__ == names
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            few = DesignConfig(
                base.abundance_prior, base.composition_prior, base.cost, mc_draws=500, seed=1
            )
            assert few == base
            assert optimize_design(few) == optimize_design(base)


def mc_curve(config, draws, seed):
    """Independent Monte Carlo estimate (mean, se) of E[L2*] at every m.

    Draws the predictive total count by compound sampling and applies the
    scalar budget rule and the closed-form L2*.
    """
    out = []
    for m in range(config.cost.max_quadrants + 1):
        area = m * config.cost.quadrant_area
        counts = predictive_total_count(
            config.abundance_prior, area, RandomStream(seed, (m,)), size=draws
        )
        values, index = np.unique(counts, return_inverse=True)
        n_bar = [categorized_count(config.cost, area, int(n)) for n in values]
        vals = _l2(np.array(n_bar, dtype=np.float64), config.composition_prior.total)[index]
        out.append((float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))))
    return out


class TestExactQuadrature:
    @pytest.mark.parametrize("beta", [0.01, 0.0025])
    def test_within_three_se_of_monte_carlo(self, beta):
        config = baseline_config(beta=beta)
        curve = optimize_design(config).curve
        reference = mc_curve(config, draws=40_000, seed=20_261_017)
        assert len(reference) == len(curve.rows)
        for row, (mean, se) in zip(curve.rows, reference):
            assert abs(row.e_l2_star - mean) <= 3 * se + 1e-12, (row.m, row.e_l2_star, mean, se)

    @pytest.mark.parametrize("beta", [0.01, 0.0025])
    def test_matches_scipy_negative_binomial(self, beta):
        config = baseline_config(beta=beta)
        a, b = config.abundance_prior.shape, config.abundance_prior.rate
        rows = optimize_design(config).curve.rows
        for m in (1, 4, 7, 11):
            area = m * config.cost.quadrant_area
            dist = stats.nbinom(a, b / (b + area))
            n = np.arange(int(dist.isf(1e-15)) + 1)
            n_bar = np.array([categorized_count(config.cost, area, int(k)) for k in n], dtype=float)
            ref = float(np.dot(dist.pmf(n), _l2(n_bar, config.composition_prior.total)))
            assert abs(rows[m].e_l2_star - ref) < 1e-12
            assert median_alone(m, config) == int(dist.median())

    def test_reported_tail_below_threshold(self, low_config, high_config):
        for config in (low_config, high_config, baseline_config(budget=20.0)):
            for row in optimize_design(config).curve.rows:
                assert 0.0 <= row.e_l2_se <= TAIL_MASS
                assert row.l_star_se == 0.5 * row.e_l2_se

    def test_no_counting_cost_sums_to_tail_bound(self):
        config = DesignConfig(
            abundance_prior=GammaParams(3.0, 0.01),
            composition_prior=DirichletParams.symmetric(10, 1.0),
            cost=CostModel.from_budget_quadrants(0.0625, 12.0, 0.0, 3e-3),
        )
        rows = optimize_design(config).curve.rows
        for m in (1, 7, 11):
            assert 0.0 < rows[m].e_l2_se <= TAIL_MASS
            assert 0.0 < rows[m].e_l2_star < 1.0

    def test_huge_predicted_count_has_bounded_support(self):
        # mean total count 1.9e6 at m = 1 and 7.5e6 at m = 4
        config = DesignConfig(
            abundance_prior=GammaParams.from_mode(3.0, 2e7),
            composition_prior=DirichletParams.symmetric(10, 1.0),
            cost=CostModel.from_budget_quadrants(0.0625, 4.0, 5e-5, 3e-3),
        )
        a, b = config.abundance_prior.shape, config.abundance_prior.rate
        rows = optimize_design(config).curve.rows
        for m in (1, 4):
            area = m * config.cost.quadrant_area
            assert a * area / b > 1e6
            assert expected_l2(m, config, *own_tables(m, config))[2] <= _MAX_CHUNK
            assert rows[m].e_l2_se == 0.0
            assert 1.0 - 1e-6 < rows[m].e_l2_star <= 1.0
            assert median_alone(m, config) == int(stats.nbinom(a, b / (b + area)).median())

    def test_implausible_prior_rejected_by_name(self):
        config = DesignConfig(
            abundance_prior=GammaParams(3.0, 1e-12),
            composition_prior=DirichletParams.symmetric(10, 1.0),
            cost=CostModel.from_budget_quadrants(0.0625, 4.0, 5e-5, 3e-3),
        )
        assert 3.0 * 0.0625 / 1e-12 > MAX_MEAN_COUNT
        with pytest.raises(ValueError, match="abundance_prior"):
            optimize_design(config)


def brute_log_pmf(prior, area, n):
    """Negative binomial log pmf straight from log-gamma functions."""
    a, b = prior.shape, prior.rate
    return (
        math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1)
        + a * math.log(b / (b + area)) + n * math.log(area / (b + area))
    )


def predictive_pmf(prior, area, stop, walk=_ArrayWalk):
    """The design curve's pmf of N for n = 0 .. stop - 1, one chunk."""
    config = DesignConfig(prior, DirichletParams.symmetric(10), BASELINE_COST)
    return _pmf_chunk(walk, walk.tables(config, stop), prior, area, 0, stop)


def mp_pmf(prior, area, stop):
    """The pmf of N for n = 0 .. stop - 1 at 40 digits: p^a, then the exact
    ratio (n - 1 + a) / n * (1 - p), from the float inputs."""
    with mpmath.workdps(40):
        a, b, area = mpmath.mpf(prior.shape), mpmath.mpf(prior.rate), mpmath.mpf(area)
        omp = area / (b + area)
        pmf = [(b / (b + area)) ** a]
        for n in range(1, stop):
            pmf.append(pmf[-1] * (n - 1 + a) / n * omp)
        return pmf


def relative_errors(pmf, exact):
    """(max, mass-weighted mean) relative error of ``pmf`` against ``exact``."""
    with mpmath.workdps(40):
        errors = [abs(mpmath.mpf(float(x)) / e - 1) for x, e in zip(pmf, exact)]
        weighted = mpmath.fsum(e * x for e, x in zip(errors, exact)) / mpmath.fsum(exact)
        return float(max(errors)), float(weighted)


class TestPredictivePmf:
    @pytest.mark.parametrize(
        "prior,area",
        [
            (GammaParams(3.0, 0.01), 0.4375),
            (GammaParams(3.0, 0.0025), 0.75),
            (GammaParams(0.7, 0.2), 0.0625),
            (GammaParams(40.0, 0.05), 1.5),
        ],
    )
    def test_matches_lgamma_brute_force(self, prior, area):
        rng = np.random.default_rng(5)
        pmf = predictive_pmf(prior, area, 23_000)
        for start in (0, 1, 777, 20_000):
            for k in rng.integers(0, 3000, size=25):
                n = start + int(k)
                ref = math.exp(brute_log_pmf(prior, area, n))
                assert pmf[n] == pytest.approx(ref, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize(
        "shape,mode,m,size,worst,weighted",
        [(3.0, 200.0, 7, 1696, 5.2e-14, 9.5e-15), (3.0, 3000.0, 30, 65_536, 1.7e-12, 2.5e-13),
         (1.5, 3000.0, 36, 65_536, 8.8e-12, 2.6e-12)],
    )
    def test_no_less_accurate_than_the_log_space_pmf(self, shape, mode, m, size, worst, weighted):
        # worst and weighted are the relative errors against 40 digits of the
        # pmf that exponentiated a running sum of log ratios, measured on
        # these points
        prior = GammaParams.from_mode(shape, mode)
        area = m * 0.0625
        got = relative_errors(predictive_pmf(prior, area, size), mp_pmf(prior, area, size))
        assert got[0] <= worst and got[1] <= weighted, got

    def test_sums_to_one_and_matches_scipy(self):
        prior, area = GammaParams(3.0, 0.01), 0.4375
        pmf = predictive_pmf(prior, area, 20_000)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        ref = stats.nbinom(prior.shape, prior.rate / (prior.rate + area)).pmf(np.arange(20_000))
        assert np.allclose(pmf, ref, rtol=1e-10, atol=0.0)

    def test_mean_matches_monte_carlo_draws(self):
        prior, area = GammaParams(3.0, 0.01), 0.4375
        n = np.arange(20_000)
        mean = float(np.dot(predictive_pmf(prior, area, 20_000), n))
        draws = predictive_total_count(prior, area, RandomStream(8), size=N)
        assert abs(draws.mean() - mean) < 4 * draws.std(ddof=1) / np.sqrt(N)

    def test_late_anchor_where_p_to_the_shape_underflows(self):
        # a * log1p(mA/b) = 1e4 * log1p(7.5 / 49.995), about 1398, so P(0)
        # underflows; the product starts where the log pmf reaches -700
        prior, area = GammaParams.from_mode(1e4, 200.0), 7.5
        assert prior.shape * math.log1p(area / prior.rate) > 1300
        n0, value = _anchor(prior, area)
        assert 0 < n0 < prior.shape * area / prior.rate
        assert brute_log_pmf(prior, area, n0 - 1) < -700.0 <= brute_log_pmf(prior, area, n0)
        size = 3000
        exact = mp_pmf(prior, area, size)
        # the anchor's log-gamma terms, of about 8e4, are rounded to an ulp
        # (1.5e-11), which every later count inherits: 1.2e-11 here
        for walk in (_ArrayWalk, _ListWalk):
            pmf = list(predictive_pmf(prior, area, size, walk))
            assert pmf[:n0] == [0.0] * n0 and pmf[n0] == value
            assert max(exact[:n0]) < 1e-304
            assert relative_errors(pmf[n0:], exact[n0:])[0] < 2e-11
        assert math.fsum(pmf) == pytest.approx(1.0, abs=2e-11)

    def test_invalid_arguments(self):
        # a shape whose log pmf would be silently wrong is rejected by name
        # when the design walk is admitted, not while the pmf is computed; the
        # rate equals the shape, so the mean count at m*A = 0.5 passes the
        # walk's other bounds
        cost = CostModel.from_budget_quadrants(0.5, 1.0, 5e-5, 3e-3)
        cases = [(1e308, "too large for log-gamma"), (1e16, "too large: rounding log(rate)")]
        for shape, message in cases:
            config = DesignConfig(GammaParams(shape, shape), DirichletParams.symmetric(10), cost)
            pattern = rf"^abundance_prior shape \S+ is {re.escape(message)}"
            with pytest.raises(ValueError, match=pattern):
                _first_chunks(config)


class TestWalkBound:
    @pytest.mark.parametrize("beta", [0.01, 0.0025], ids=["low", "high"])
    def test_large_budget_experiments_within_bound(self, beta):
        # the B = 800 tail runs of the baseline priors
        config = baseline_config(beta=beta, budget=800.0)
        assert config.cost.max_quadrants == 800 <= MAX_QUADRANTS
        sizes = [_first_chunk(m, config) for m in range(801)]
        assert sum(sizes) <= MAX_CURVE_TERMS

    def test_quadrant_bound_checked_first(self, low_config, monkeypatch):
        monkeypatch.setattr(design, "MAX_QUADRANTS", 11)
        monkeypatch.setattr(design, "_first_chunk", None)  # no per-m work at all
        with pytest.raises(
            ValueError,
            match=r"^cost\.budget_quadrant_equivalents 12 affords 12 quadrants; "
            r"the exact design supports at most 11$",
        ):
            optimize_design(low_config)

    def test_term_bound_names_budget_and_bound(self, low_config, monkeypatch):
        terms = sum(_first_chunk(m, low_config) for m in range(13))
        monkeypatch.setattr(design, "MAX_CURVE_TERMS", terms)
        assert optimize_design(low_config).m_star == 7
        monkeypatch.setattr(design, "MAX_CURVE_TERMS", terms - 1)
        no_tables(monkeypatch)
        with pytest.raises(ValueError) as info:
            optimize_design(low_config)
        message = str(info.value)
        assert message.startswith("a budget of 12 quadrant equivalents ")
        assert f" puts {terms:.3g} pmf terms " in message
        assert message.endswith(f"; the exact design supports at most {terms - 1:.0e}")

    def test_log_pmf_rounding_checked_before_any_table(self, monkeypatch):
        config = _config(GammaParams.from_mode(1e6, 1e-300))
        no_tables(monkeypatch)
        with pytest.raises(
            ValueError,
            match=r"^abundance_prior shape 1000000\.0 is too large: rounding log\(rate\) "
            r"moves the log pmf by up to 2\.3e-07, past 1e-08$",
        ):
            optimize_design(config)


def _config(prior, count_ratio=5e-5, budget=12.0):
    return DesignConfig(
        abundance_prior=prior,
        composition_prior=DirichletParams.symmetric(10, 1.0),
        cost=CostModel.from_budget_quadrants(0.0625, budget, count_ratio, 3e-3),
    )


class TestSharedCountArrays:
    """``optimize_design`` builds the per-count arrays once and slices them;
    arrays built for one design point alone must give the same bits."""

    @pytest.mark.parametrize(
        "config",
        [
            # m = 12 exhausts the budget early and walks on to its median
            _config(GammaParams.from_mode(3.0, 800.0)),
            # first chunks capped at _MAX_CHUNK: later chunks pass the tables
            _config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0),
            # shape < 1: the log ratio steps are negative
            _config(GammaParams(0.8, 0.8 / 200.0)),
            _config(GammaParams.from_mode(3.0, 200.0), count_ratio=0.0),
        ],
        ids=["baseline-high", "capped-chunk", "shape-below-one", "no-count-cost"],
    )
    def test_rows_equal_points_computed_alone(self, config):
        result = optimize_design(config)
        assert result.typical_n == median_alone(result.m_star, config)
        sizes = [_first_chunk(m, config) for m in range(config.cost.max_quadrants + 1)]
        shared = _ArrayWalk.tables(config, max(sizes))
        assert result.curve.rows[0][2:] == (1.0, 1.0, 0.0, 1.0, 0.0)
        for row, size in zip(result.curve.rows[1:], sizes[1:]):
            alone = expected_l2(row.m, config, *own_tables(row.m, config))
            assert expected_l2(row.m, config, size, shared) == alone, row.m
            assert (row.e_l2_star, row.e_l2_se) == alone[:2], row.m
            l1 = l1_expected(row.m, config.abundance_prior, config.cost.quadrant_area)
            assert row.l1_star == l1, row.m
            assert row.l_star == 0.5 * l1 + 0.5 * row.e_l2_star, row.m
            assert row.l_star_se == 0.5 * row.e_l2_se, row.m

    def test_configs_reach_every_path(self):
        baseline = _config(GammaParams.from_mode(3.0, 800.0))
        assert median_alone(12, baseline) > 8 * _first_chunk(12, baseline)
        capped = _config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0)
        assert _first_chunk(1, capped) == _MAX_CHUNK
        assert expected_l2(1, capped, *own_tables(1, capped))[2] > _MAX_CHUNK

    @given(
        budget=st.floats(1.0, 40.0),
        r1=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
        r2=st.floats(1e-4, 1.0),
        size=st.integers(1, 3000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_path_is_the_budget_rule(self, budget, r1, r2, size, data):
        # the curve's two n_bar paths, a slice of the shared counts and a float
        # arange for a chunk that starts past them, against the scalar oracle
        cost = CostModel.from_budget_quadrants(0.0625, budget, r1, r2)
        config = DesignConfig(GammaParams(3.0, 0.01), DirichletParams.symmetric(10, 1.0), cost)
        lo = data.draw(st.one_of(st.just(0), st.integers(0, size - 1)), label="lo")
        hi = data.draw(st.integers(lo + 1, size), label="hi")
        # a sampled area, or one at which counting alone exhausts the budget
        # exactly at a count inside either chunk or at its last count
        shift = data.draw(st.sampled_from([0, size]), label="shift")
        edge = shift + data.draw(st.one_of(st.integers(lo, hi - 1), st.just(hi - 1)), label="edge")
        area = data.draw(
            st.one_of(
                st.integers(0, cost.max_quadrants).map(lambda m: m * cost.quadrant_area),
                st.just(cost.budget_area - edge * r1),
                st.just(cost.budget_area),
            ),
            label="area",
        )
        assume(area >= 0.0)
        inside = _ArrayWalk.tables(config, size)[0][lo:hi]
        past = np.arange(size + lo, size + hi, dtype=np.float64)
        for n in (inside, past):
            q_rule = np.array([budget_fraction(cost, area, int(k)) for k in n])
            n_bar_rule = [categorized_count(cost, area, int(k)) for k in n]
            q = np.empty(hi - lo)
            got = _categorized(cost, area, n, q, np.empty(hi - lo))
            assert np.array_equal(got, n_bar_rule)
            assert np.array_equal(q[n > 0], q_rule[n > 0])
            # the list walk's rule, on int counts, has the array rule's bits
            counts = range(int(n[0]), int(n[-1]) + 1)
            assert _fractions(cost, area, counts) == q.tolist()

    def test_count_tables_are_read_only(self):
        config = _config(GammaParams.from_mode(3.0, 800.0))
        *arrays, g0 = _ArrayWalk.tables(config, 100)
        assert g0 == config.composition_prior.total  # a float, not a table
        for table in arrays:
            with pytest.raises(ValueError, match="read-only"):
                table[:1] = 0.0
        assert 1 <= optimize_design(config).m_star <= config.cost.max_quadrants

    @pytest.mark.parametrize(
        "config,size",
        [
            (baseline_config(), 10),  # sized by the chunk: size + 2 weights
            (baseline_config(), 1000),  # sized by the budget: 1/(c*r2) = 250
            (baseline_config(r2=3.0), 50),  # 1/(c*r2) = 0.25
            (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0), _MAX_CHUNK),
        ],
        ids=["chunk-sized", "budget-sized", "r2x1000", "capped-chunk"],
    )
    def test_both_walks_build_the_same_gain_table(self, config, size):
        lists, arrays = _ListWalk.tables(config, size), _ArrayWalk.tables(config, size)
        assert len(lists[1]) == len(arrays[2]) == int(min(_categorizable(config.cost), size)) + 2
        assert list(map(float.hex, lists[1])) == list(map(float.hex, arrays[2].tolist()))
        assert lists[2] == arrays[3] == config.composition_prior.total

    def test_gain_tables_reach_the_largest_n_bar(self):
        # r1 = 0 and 1/(c*r2) = 59 - 2**-47, just below the size, 60; yet 59*r2
        # rounds to 1/c, so with nothing sampled the rule gives q = 1 and
        # n_bar = 59 = int(1/(c*r2)) + 1 at n = 59, the last weight of the
        # gain tables, which both walks read
        cost = CostModel.from_budget_quadrants(0.0625, 12.0, 0.0, 0.75 / 59)
        config = DesignConfig(GammaParams.from_mode(3.0, 200.0), DirichletParams.symmetric(10), cost)
        size = 60
        assert 58 < _categorizable(cost) < 59
        n_bar = _categorized_list(cost, 0.0, range(size))[1]
        assert max(n_bar) == 59 == len(_ListWalk.tables(config, size)[1]) - 1
        gains = []
        for walk in (_ListWalk, _ArrayWalk):
            tables = walk.tables(config, size)
            pmf = _pmf_chunk(walk, tables, config.abundance_prior, 0.75, 0, size)
            gain, q_last = walk.gain(config, 0.0, pmf, 0, tables)
            gains.append((gain.hex(), q_last.hex()))
        assert gains[0] == gains[1]

    @pytest.mark.parametrize(
        "config,walks_past_first_chunk",
        [
            (_config(GammaParams.from_mode(3.0, 800.0)), False),
            (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0), False),
            (_config(GammaParams(0.8, 0.8 / 200.0)), False),
            (_config(GammaParams.from_mode(3.0, 200.0), count_ratio=0.0), False),
            # m* = 12 spends the whole budget on sampling: the first chunk
            # holds 2 counts and the median lies chunks beyond it
            (baseline_config(r2=3.0), True),
        ],
        ids=["baseline-high", "capped-chunk", "shape-below-one", "no-count-cost", "r2x1000"],
    )
    def test_typical_n_is_the_predictive_median(self, config, walks_past_first_chunk):
        result = optimize_design(config)
        a, b = config.abundance_prior.shape, config.abundance_prior.rate
        area = result.m_star * config.cost.quadrant_area
        assert result.typical_n == int(stats.nbinom(a, b / (b + area)).median())
        past = result.typical_n >= _first_chunk(result.m_star, config)
        assert past == walks_past_first_chunk

    def test_median_walked_once_at_m_star(self, monkeypatch):
        calls = []
        walk = design._predictive_median

        def counted(m, *args):
            calls.append(m)
            return walk(m, *args)

        monkeypatch.setattr(design, "_predictive_median", counted)
        result = optimize_design(_config(GammaParams.from_mode(3.0, 800.0)))
        assert calls == [result.m_star]

    def test_memory_does_not_grow_with_the_prior(self):
        peaks = []
        for mode in (2e4, 1e5):
            config = _config(GammaParams.from_mode(3.0, mode), count_ratio=0.0)
            tracemalloc.start()
            try:
                optimize_design(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8e6
        assert abs(peaks[0] - peaks[1]) <= 0.1 * min(peaks)


def result_bits(result):
    """Everything a design result writes, by the repr of each value."""
    rows = [tuple(map(repr, row)) for row in result.curve.rows]
    return rows, result.m_star, result.typical_n, result.typical_n_bar, repr(result.budget_split)


def optimized_together(configs):
    return design._optimize_designs(configs, [design._first_chunks(c) for c in configs])


class TestDesignsTogether:
    """Designs optimized together share one pmf chunk per group at each m and
    one set of per-count arrays per group; each must hold the bits it has
    when optimized alone."""

    @pytest.mark.parametrize(
        "base,axis,values",
        [
            (baseline_config(beta=0.0025), "r2", [1.0, 2.0, 1000.0]),
            # the exhaustion count cuts the first chunks at different sizes
            (baseline_config(r2=6e-3), "budget", [8.0, 12.0, 14.0, 20.0]),
            # a repeated mode shares, the others do not
            (baseline_config(), "prior-mode", [200.0, 800.0, 200.0]),
            # first chunks capped at _MAX_CHUNK: later chunks pass the tables
            (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0), "r2",
             [1.0, 2.0, 1000.0]),
            (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0), "budget",
             [2.0, 4.0]),
        ],
        ids=["r2", "budget", "prior-mode", "capped-r2", "capped-budget"],
    )
    def test_sweep_points_equal_designs_alone(self, base, axis, values):
        configs = [design._apply_axis(base, axis, value) for value in values]
        together = optimized_together(configs)
        for config, result in zip(configs, together):
            assert result_bits(result) == result_bits(optimize_design(config))
        rows = sensitivity_sweep(base, axis, values)
        assert [(r.m_star, r.typical_n_bar, repr(r.budget_slack)) for r in rows] == [
            (r.m_star, r.typical_n_bar, repr(r.budget_split["slack"])) for r in together
        ]

    def test_sweeps_reach_every_path(self):
        sizes = [
            design._first_chunks(design._apply_axis(baseline_config(r2=6e-3), "budget", b))
            for b in (8.0, 12.0)
        ]
        assert sizes[0][8] == 2 < sizes[1][8]  # exhausted at m = 8 by the smaller budget
        capped = _config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0)
        assert set(design._first_chunks(capped)[1:]) == {_MAX_CHUNK}

    def test_composition_prior_is_not_shared(self):
        base = baseline_config()
        configs = [base, DesignConfig(
            base.abundance_prior, DirichletParams((0.5,) * 10), base.cost
        )]
        together = optimized_together(configs)
        assert result_bits(together[0]) != result_bits(together[1])
        for config, result in zip(configs, together):
            assert result_bits(result) == result_bits(optimize_design(config))

    def test_replicate_figures_equal_designs_alone(self):
        from mpdesign import replicate

        configs = [
            replicate._config(prior, budget, r2)
            for fid in ("fig1", "fig2", "fig3", "fig4")
            for _, prior, budget, r2 in replicate.DESIGN_SCENARIOS[fid]
        ]
        assert len({(c.abundance_prior, c.cost.quadrant_area) for c in configs}) == 2
        for config, result in zip(configs, optimized_together(configs)):
            assert result_bits(result) == result_bits(optimize_design(config))

    def test_memory_does_not_grow_with_the_values(self):
        base = _config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0)
        peaks = []
        for values in ([1.0], [1.0, 2.0, 4.0, 1000.0]):
            tracemalloc.start()
            try:
                sensitivity_sweep(base, "r2", values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


# The sweeps of TestDesignsTogether.test_sweep_points_equal_designs_alone
BOUND_SWEEPS = [
    (baseline_config(beta=0.0025), "r2", [1.0, 2.0, 1000.0]),
    (baseline_config(r2=6e-3), "budget", [8.0, 12.0, 14.0, 20.0]),
    (baseline_config(), "prior-mode", [200.0, 800.0, 200.0]),
    (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0), "r2",
     [1.0, 2.0, 1000.0]),
    (_config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=4.0), "budget",
     [2.0, 4.0]),
]


class TestMStarOnlyWalk:
    """``sensitivity`` walks only the design points whose lower bound on L*
    (``design._loss_bounds``) does not pass the least L* found so far: the
    bound must lie below every row's L*, and the sweep must give the full
    walk's results."""

    def test_bound_lies_below_every_row(self):
        from golden.make_golden import grid_config, grid_points

        configs = [grid_config(*point) for point in random.Random(20).sample(grid_points(), 48)]
        assert {0.7, 8.0} <= {c.abundance_prior.shape for c in configs}
        assert {0.0, 5e-5, 2e-4} == {c.cost.count_ratio for c in configs}
        for base, axis, values in BOUND_SWEEPS:
            configs += [design._apply_axis(base, axis, value) for value in values]
        assert _MAX_CHUNK in _first_chunks(configs[-1])  # later chunks pass the tables
        for config, result in zip(configs, optimized_together(configs)):
            bounds = design._loss_bounds(config, config.composition_prior.total)
            assert len(bounds) == len(result.curve.rows)
            for row, bound in zip(result.curve.rows, bounds):
                assert math.isfinite(bound) and bound <= row.l_star, (config, row.m)

    def test_count_bound_covers_a_rule_that_rounds_up(self):
        # r1 = 0, B = 12, m = 5: the residual buys K = 100 - 2**-46
        # categorizations in floats, but floor(n*q) rounds up to 100 at some
        # counts, and the mean count, 375, is past K
        cost = CostModel.from_budget_quadrants(0.0625, 12.0, 0.0, 0.004375)
        config = DesignConfig(
            GammaParams.from_mode(3.0, 800.0), DirichletParams.symmetric(10, 1.0), cost
        )
        area = 5 * 0.0625
        assert (cost.budget_area - area) / cost.categorize_ratio == 100.0 - 2**-46
        counts = range(_first_chunk(5, config))
        n_bar = [math.floor(n * q) for n, q in zip(counts, _fractions(cost, area, counts))]
        mean = 3.0 * area / config.abundance_prior.rate
        assert max(n_bar) == 100 < mean
        assert _categorized_bounds(cost, [area], [mean]) >= [max(n_bar)]

    def test_sweeps_skip_points_and_keep_the_full_walks_results(self):
        for base, axis, values in BOUND_SWEEPS:
            configs = [design._apply_axis(base, axis, value) for value in values]
            sizes = [_first_chunks(config) for config in configs]
            full = design._optimize_designs(configs, sizes)
            bounded = design._optimize_designs(configs, sizes, m_star_only=True)
            for a, b in zip(full, bounded):
                assert (b.m_star, b.typical_n, b.typical_n_bar) == (
                    a.m_star, a.typical_n, a.typical_n_bar
                )
                assert repr(b.budget_split) == repr(a.budget_split)
                assert b.optimal_row == a.optimal_row
                for row, walked in zip(a.curve.rows, b.curve.rows):
                    assert walked is None or tuple(map(repr, walked)) == tuple(map(repr, row))
            assert None in bounded[0].curve.rows, axis

    def test_nan_loss_at_m_star_named(self, monkeypatch):
        # m* = 7 of the baseline is always walked, so its NaN is found
        l1 = design.l1_expected
        monkeypatch.setattr(
            design, "l1_expected", lambda m, *args: math.nan if m == 7 else l1(m, *args)
        )
        with pytest.raises(ValueError, match=r"^the expected loss L\* is NaN at m=7;"):
            sensitivity_sweep(baseline_config(), "r2", [1.0])


def grid_config(shape, mode, budget, r1, r2, area=0.0625):
    """A design on the invariance grid; a shape <= 1 prior takes ``mode`` as its mean."""
    rate = (shape - 1.0) / mode if shape > 1 else shape / mode
    return DesignConfig(
        GammaParams(shape, rate),
        DirichletParams.symmetric(10, 1.0),
        CostModel.from_budget_quadrants(area, budget, r1, r2),
    )


GRID = {
    "shape": st.sampled_from((0.7, 1.5, 3.0, 8.0)),
    "mode": st.sampled_from((5.0, 200.0, 800.0, 3000.0)),
    "r1": st.sampled_from((0.0, 5e-5, 2e-4)),
    "r2": st.sampled_from((3e-3, 3.0)),
}


class TestInvariances:
    """The model sees the sampled area only through m*A, and more budget can
    only help: checks that need no oracle."""

    @given(budget=st.sampled_from((4.0, 12.0, 20.0, 40.0)), **GRID)
    @settings(max_examples=40, deadline=None)
    def test_splitting_quadrants(self, shape, mode, budget, r1, r2):
        # m quadrants of area A with budget B are m/2 quadrants of area 2A
        # with B/2: every point of the coarse curve holds the bits of the
        # fine curve's point of the same sampled area
        fine = optimize_design(grid_config(shape, mode, budget, r1, r2)).curve.rows
        split = grid_config(shape, mode, budget / 2, r1, r2, area=0.125)
        coarse = optimize_design(split).curve.rows
        assert len(fine) == 2 * len(coarse) - 1
        for row in coarse:
            assert tuple(map(repr, row[1:])) == tuple(map(repr, fine[2 * row.m][1:])), row.m

    @given(budgets=st.lists(st.integers(1, 40), min_size=2, max_size=2, unique=True), **GRID)
    @settings(max_examples=40, deadline=None)
    def test_more_budget_never_raises_the_optimal_loss(self, shape, mode, budgets, r1, r2):
        low, high = (
            optimize_design(grid_config(shape, mode, float(b), r1, r2)).optimal_row
            for b in sorted(budgets)
        )
        assert high.l_star <= low.l_star + low.l_star_se + high.l_star_se


def hex_bits(result):
    """Everything a design result writes, each float by ``float.hex``."""
    rows = [(row.m, *map(float.hex, row[1:])) for row in result.curve.rows]
    split = [(key, value.hex()) for key, value in result.budget_split.items()]
    return rows, result.m_star, result.typical_n, result.typical_n_bar, split


def golden_configs():
    """The designs behind the golden files: the baseline, its three
    sensitivity sweeps and the eight scenarios of replicate's fig1-fig4."""
    from mpdesign import replicate

    base = baseline_config()
    configs = [base]
    for axis, values in (("r2", (0.5, 1.0, 2.0, 1000.0)), ("budget", (0.5, 8.0, 12.0, 14.0)),
                         ("prior-mode", (100.0, 200.0, 800.0))):
        configs += [design._apply_axis(base, axis, value) for value in values]
    configs += [
        replicate._config(prior, budget, r2)
        for scenarios in replicate.DESIGN_SCENARIOS.values()
        for _, prior, budget, r2 in scenarios
    ]
    return configs


def grid_sample(count, seed):
    """``count`` configs of the golden design grid whose walks take Python's
    path, drawn by a seeded stream."""
    from golden.make_golden import grid_config, grid_points

    rng = random.Random(seed)
    points = grid_points()
    rng.shuffle(points)
    configs = (grid_config(*point) for point in points)
    small = (c for c in configs if sum(_first_chunks(c)) <= design._PYTHON_WALK_TERMS)
    return list(itertools.islice(small, count))


class TestWalkParity:
    """The list walk and the array walk take the same steps in the same order,
    so every design they give holds the same bits."""

    def assert_same_bits(self, configs):
        sizes = [_first_chunks(config) for config in configs]
        lists = design._optimize_designs(configs, sizes, _ListWalk)
        arrays = design._optimize_designs(configs, sizes, _ArrayWalk)
        for config, a, b in zip(configs, lists, arrays):
            assert hex_bits(a) == hex_bits(b), config

    def test_golden_configs(self):
        self.assert_same_bits(golden_configs())

    def test_grid_sample_under_the_threshold(self):
        configs = grid_sample(64, seed=33)
        assert len(configs) == 64
        assert {c.cost.count_ratio for c in configs} == {0.0, 5e-5, 2e-4}
        for config in configs:
            self.assert_same_bits([config])

    def test_budget_rule_saturates(self):
        # r2 = 5e-324: the quotient overflows to inf and q saturates at 1
        config = _config(GammaParams.from_mode(3.0, 200.0))
        cost = config.cost
        config = DesignConfig(config.abundance_prior, config.composition_prior, CostModel(
            cost.quadrant_area, cost.budget_coefficient, 0.0, 5e-324))
        assert _fractions(config.cost, 0.0625, [5.0]) == [1.0]
        result = optimize_design(config)
        assert result.typical_n_bar == result.typical_n > 0
        self.assert_same_bits([config])

    def test_late_anchor(self):
        # shape 1e4: from m = 59 on, a * log1p(mA/b) passes 700 and P(0)
        # underflows, so the walks start from the log-gamma anchor
        config = _config(GammaParams.from_mode(1e4, 200.0), budget=80.0)
        prior = config.abundance_prior
        anchors = [_anchor(prior, m * 0.0625)[0] for m in range(1, 81)]
        assert anchors[57] == 0 < anchors[58]
        self.assert_same_bits([config])

    def test_chunks_past_the_tables(self):
        # first chunks capped at _MAX_CHUNK: later chunks compute their own ratios
        capped = _config(GammaParams.from_mode(3.0, 1e5), count_ratio=0.0, budget=2.0)
        assert _first_chunks(capped)[1:] == [_MAX_CHUNK] * 2
        self.assert_same_bits([capped])

    def test_benchmark_design_sweep_configs(self):
        # shape 3, mode 200 or 800, B in {8, 12, 14, 20}, r2 = 3e-3 x {1, 2,
        # 1000}: every design of the benchmark's design-sweep, its sweeps too
        configs = [
            DesignConfig(
                GammaParams.from_mode(3.0, mode), DirichletParams.symmetric(10, 1.0),
                CostModel.from_budget_quadrants(0.0625, budget, 5e-5, 3e-3 * r2),
            )
            for mode in (200.0, 800.0) for budget in (8.0, 12.0, 14.0, 20.0)
            for r2 in (1.0, 2.0, 1000.0)
        ]
        self.assert_same_bits(configs)

    def test_budget_40(self):
        config = baseline_config(budget=40.0)
        assert sum(_first_chunks(config)) == 159_850
        self.assert_same_bits([config])

    @pytest.mark.parametrize("m, r2, v", [(7, 0.003125, 100.0), (5, 0.004375, 100.0 - 2**-46)])
    def test_whole_residual_without_count_cost(self, m, r2, v):
        # r1 = 0, B = 12: the residual at m buys exactly 100 categorizations,
        # and v = residual/r2 is constant, 100 at m = 7 and just below it at
        # m = 5 in floats, while floor(n*q) is 99 at some counts and 100 at
        # others: the guard band sends those counts through the rule one by one
        config = DesignConfig(
            GammaParams.from_mode(3.0, 200.0), DirichletParams.symmetric(10, 1.0),
            CostModel.from_budget_quadrants(0.0625, 12.0, 0.0, r2),
        )
        area = m * 0.0625
        assert (config.cost.budget_area - area) / r2 == v
        counts = range(101, _first_chunk(m, config))
        n_bar = {math.floor(n * q) for n, q in zip(counts, _fractions(config.cost, area, counts))}
        assert n_bar == {99, 100}
        self.assert_same_bits([config])

    def test_walk_choice(self, monkeypatch):
        small, large = [[0, 10]], [[0, design._PYTHON_WALK_TERMS + 1]]
        assert design._choose_walk(small) is design._choose_walk(large) is _ArrayWalk
        monkeypatch.setitem(sys.modules, "numpy", None)  # as if NumPy were not loaded
        assert design._choose_walk(small) is _ListWalk
        assert design._choose_walk([[0, design._PYTHON_WALK_TERMS]]) is _ListWalk
        assert design._choose_walk(large) is _ArrayWalk


def chunk_bits(walk, config, m, lo, hi, size, prev=0.0):
    """The pmf over n = lo .. hi - 1 at m, from ``walk``'s tables built for
    ``size`` counts, and the chunk's gain and q at its last count, each float
    by ``float.hex``."""
    tables = walk.tables(config, size)
    area = m * config.cost.quadrant_area
    pmf = _pmf_chunk(walk, tables, config.abundance_prior, area, lo, hi, prev)
    gain, q_last = walk.gain(config, area, pmf, lo, tables)
    return [float(x).hex() for x in pmf], gain.hex(), q_last.hex()


def run_widths(config, m, lo, hi):
    """The widths of the list walk's n_bar runs over n = lo .. hi - 1 at m."""
    area = m * config.cost.quadrant_area
    runs = [lo] + [stop for stop, _ in _categorized_runs(config.cost, area, lo, hi)]
    return [b - a for a, b in zip(runs, runs[1:])]


def walked_bits(result):
    """``hex_bits`` of a result whose curve may hold None at skipped points."""
    rows = [None if row is None else (row.m, *map(float.hex, row[1:])) for row in result.curve.rows]
    split = [(key, value.hex()) for key, value in result.budget_split.items()]
    return rows, result.m_star, result.typical_n, result.typical_n_bar, split


def same_walks(configs, m_star_only=False):
    """The list walk's and the array walk's results for ``configs``, optimized
    together, as ``walked_bits``; they must be equal."""
    sizes = [_first_chunks(config) for config in configs]
    lists, arrays = (
        [walked_bits(r) for r in design._optimize_designs(configs, sizes, walk, m_star_only)]
        for walk in (_ListWalk, _ArrayWalk)
    )
    assert lists == arrays
    return lists


class TestListWalkBranches:
    """Each branch of the list walk's pmf, weights and n_bar runs gives the
    array walk's bits (``float.hex``), and each case reaches its branch."""

    def same_chunk(self, *args):
        lists, arrays = (chunk_bits(walk, *args) for walk in (_ListWalk, _ArrayWalk))
        assert lists == arrays
        return lists

    def test_anchor_inside_a_later_chunk(self):
        # shape 1e4 at m = 70: P(0) underflows and the product starts at the
        # log-gamma anchor n0, inside a chunk that starts 10 counts before it
        config = _config(GammaParams.from_mode(1e4, 200.0), budget=80.0)
        n0 = _anchor(config.abundance_prior, 70 * 0.0625)[0]
        assert n0 > 10
        pmf, _, _ = self.same_chunk(config, 70, n0 - 10, n0 + 500, n0 + 500)
        assert pmf[:10] == [(0.0).hex()] * 10 and float.fromhex(pmf[10]) > 0.0

    @staticmethod
    def pmf_before(config, m, lo):
        """P(N = lo - 1) at m, which a chunk from lo carries the product on from."""
        tables = _ArrayWalk.tables(config, lo)
        return float(_pmf_chunk(_ArrayWalk, tables, config.abundance_prior, m * 0.0625, 0, lo)[-1])

    @pytest.mark.parametrize("lo", [50, 100])
    def test_chunk_past_the_ratio_table(self, lo):
        # tables for 100 counts: a chunk to 400 computes its own ratios
        config = baseline_config()
        assert len(_ListWalk.tables(config, 100)[0]) == 100
        self.same_chunk(config, 5, lo, 400, 100, self.pmf_before(config, 5, lo))

    def test_n_bar_equal_to_n_past_the_gain_table(self):
        # tables for 50 counts hold 52 gains, and at m = 1 n_bar = n up to
        # count 225: the weights past the table come from L2* itself
        config = baseline_config()
        gains = _ListWalk.tables(config, 50)[1]
        assert len(gains) == 52 < run_widths(config, 1, 0, 400)[0] == 226
        self.same_chunk(config, 1, 50, 400, 50, self.pmf_before(config, 1, 50))

    def test_one_count_guard_bands(self):
        # r2 = 60 r1: v crosses a whole number at every 60th count, and each
        # crossing is a guard band of one count
        config = _config(GammaParams.from_mode(3.0, 800.0))
        widths = run_widths(config, 5, 0, 4754)
        assert widths[1:6] == [26, 1, 59, 1, 59]
        self.same_chunk(config, 5, 0, 4754, 4754)

    @pytest.mark.parametrize("r1", [0.0, 1e-12])
    def test_guard_band_wider_than_one_count(self, r1):
        # B = 12, m = 5: the residual buys 100 - 2**-46 categorizations, and v
        # stays within the guard band of 100 for many counts (all of them when
        # r1 = 0), which the rule takes one by one
        cost = CostModel.from_budget_quadrants(0.0625, 12.0, r1, 0.004375)
        prior = GammaParams.from_mode(3.0, 800.0)
        config = DesignConfig(prior, DirichletParams.symmetric(10), cost)
        widths = run_widths(config, 5, 0, 3000)
        assert widths[0] == 100 and widths[1:40] == [1] * 39
        self.same_chunk(config, 5, 0, 3000, 3000)
        same_walks([config])

    def test_counts_one_by_one_where_a_step_leaves_the_normal_floats(self):
        # a subnormal r1: n * r1 is subnormal, so the middle band goes to the
        # rule count by count
        config = baseline_config()
        cost = CostModel(0.0625, config.cost.budget_coefficient, 1e-310, 3e-3)
        config = DesignConfig(config.abundance_prior, config.composition_prior, cost)
        widths = run_widths(config, 5, 0, 3000)
        assert widths[0] == 146 and widths[1:] == [1] * (3000 - 146)
        self.same_chunk(config, 5, 0, 3000, 3000)
        same_walks([config])

    @pytest.mark.parametrize("r1", [0.0, 1e-12, 5e-5])
    def test_designs_with_little_or_no_count_cost(self, r1):
        configs = [
            DesignConfig(
                prior, DirichletParams.symmetric(10),
                CostModel.from_budget_quadrants(0.0625, budget, r1, 3e-3),
            )
            for prior, budget in ((GammaParams.from_mode(3.0, 200.0), 12.0),
                                  (GammaParams.from_mode(1.5, 200.0), 20.0),
                                  (GammaParams(0.7, 0.7 / 200.0), 8.0))
        ]
        same_walks(configs)

    def test_m_star_only_walk_grows_the_list_tables(self):
        # the m*-only walk on lists builds its tables for the chunks it visits,
        # growing them in place; every row and result keeps the array walk's bits
        for base, axis, values in BOUND_SWEEPS:
            configs = [design._apply_axis(base, axis, value) for value in values]
            results = same_walks(configs, m_star_only=True)
            assert None in results[0][0], axis

    def test_grown_tables_equal_tables_built_at_once(self):
        config = baseline_config(r2=6e-3)
        grown = _ListWalk.tables(config, 10)
        for size in (10, 40, 40, 300, 2000):
            assert _ListWalk.tables(config, size, grown) is grown
            built = _ListWalk.tables(config, size)
            assert [list(map(float.hex, table)) for table in grown[:2]] == [
                list(map(float.hex, table)) for table in built[:2]
            ]

    def test_median_read_from_the_walked_chunk(self):
        # a design walked alone reads its median from the first chunk it
        # summed at m*; it must be the median read over fresh arrays
        for base, axis, values in BOUND_SWEEPS[:3]:
            config = design._apply_axis(base, axis, values[-1])
            sizes = [_first_chunks(config)]
            for walk in (_ListWalk, _ArrayWalk):
                for m_star_only in (False, True):
                    (result,) = design._optimize_designs([config], sizes, walk, m_star_only)
                    assert result.typical_n == median_alone(result.m_star, config), axis
