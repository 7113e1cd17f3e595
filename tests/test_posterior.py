import math

import numpy as np
import pytest
from scipy import optimize, stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdesign import (
    CategorizationCounts,
    DirichletParams,
    FieldObservations,
    GammaParams,
    density_grid,
    hpd_interval,
    naive_abundance_estimate,
    synthesize_expected_data,
    update_abundance,
    update_composition,
)
from mpdesign.posterior import apportion_counts
from conftest import BASELINE_COST

LOW_PRIOR = GammaParams(3.0, 0.01)
A = 0.0625


def brentq_hpd(shape, rate, mass, tol=1e-8):
    """Reference HPD interval: the same bisection over the density level, with
    each endpoint found by ``scipy.optimize.brentq`` on ``scipy.stats`` pdf
    (to 1e-14 absolute and relative)."""
    dist = stats.gamma(shape, scale=1.0 / rate)
    mode = (shape - 1.0) / rate
    cap = dist.isf(min(1e-15, (1.0 - mass) / 10))
    lo_level, hi_level = 0.0, dist.pdf(mode)
    for _ in range(200):
        level = 0.5 * (lo_level + hi_level)
        lower, upper = (
            optimize.brentq(lambda x: dist.pdf(x) - level, a, b, xtol=1e-14, rtol=1e-14)
            for a, b in ((0.0, mode), (mode, cap))
        )
        contained = dist.cdf(upper) - dist.cdf(lower)
        if abs(contained - mass) < tol:
            return lower, upper
        if contained > mass:
            lo_level = level
        else:
            hi_level = level
    raise AssertionError("reference HPD search did not converge")


class TestUpdateAbundance:
    def test_reference_posterior(self):
        obs = FieldObservations(A, (5, 5, 5, 5, 5))
        post = update_abundance(LOW_PRIOR, obs)
        assert post == GammaParams(28.0, 0.3225)

    def test_zero_counts(self):
        post = update_abundance(LOW_PRIOR, FieldObservations(A, (0,)))
        assert post == GammaParams(3.0, 0.01 + A)

    def test_sequential_equals_joint(self):
        first = FieldObservations(A, (3, 9))
        second = FieldObservations(A, (1, 0, 7))
        joint = FieldObservations(A, (3, 9, 1, 0, 7))
        assert update_abundance(update_abundance(LOW_PRIOR, first), second) == update_abundance(
            LOW_PRIOR, joint
        )

    def test_sufficiency_under_permutation(self):
        a = update_abundance(LOW_PRIOR, FieldObservations(A, (9, 0, 4)))
        b = update_abundance(LOW_PRIOR, FieldObservations(A, (4, 9, 0)))
        assert a == b

    @given(counts=st.lists(st.integers(0, 300), min_size=1, max_size=15))
    @settings(max_examples=100)
    def test_posterior_mean_shrinks_toward_data(self, counts):
        obs = FieldObservations(A, tuple(counts))
        post_mean = update_abundance(LOW_PRIOR, obs).mean()
        bounds = sorted((LOW_PRIOR.mean(), naive_abundance_estimate(obs)))
        assert bounds[0] - 1e-9 <= post_mean <= bounds[1] + 1e-9


class TestUpdateComposition:
    def test_reference_split(self):
        prior = DirichletParams.symmetric(10, 1.0)
        counts = CategorizationCounts((53, 34, 0, 13, 1, 0, 0, 0, 0, 0))
        post = update_composition(prior, counts)
        assert post.concentration == (54.0, 35.0, 1.0, 14.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert post.total == prior.total + counts.categorized_total

    def test_no_counts_keeps_prior(self):
        prior = DirichletParams.symmetric(10, 1.0)
        assert update_composition(prior, CategorizationCounts((0,) * 10)) == prior

    def test_sequential_equals_joint(self):
        prior = DirichletParams((0.5, 1.5, 2.0))
        a = CategorizationCounts((3, 0, 2))
        b = CategorizationCounts((1, 4, 0))
        joint = CategorizationCounts((4, 4, 2))
        assert update_composition(update_composition(prior, a), b) == update_composition(
            prior, joint
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            update_composition(DirichletParams.symmetric(3), CategorizationCounts((1, 2)))


class TestNaiveEstimate:
    def test_reference_values(self):
        obs = FieldObservations(A, (24,) * 14 + (22,))  # 358 over 15 quadrants
        assert obs.total_count == 358
        assert naive_abundance_estimate(obs) == pytest.approx(381.87, abs=0.01)
        assert naive_abundance_estimate(FieldObservations(A, (5, 5, 5, 5, 5))) == 80.0

    def test_zero(self):
        assert naive_abundance_estimate(FieldObservations(A, (0, 0))) == 0.0


class TestEvenlySpread:
    def test_remainder_goes_to_first_quadrants(self):
        assert FieldObservations.evenly_spread(A, 7, 167).counts == (24, 24, 24, 24, 24, 24, 23)
        assert FieldObservations.evenly_spread(A, 3, 2).counts == (1, 1, 0)

    @given(m=st.integers(1, 40), total=st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_sums_and_differs_by_at_most_one(self, m, total):
        obs = FieldObservations.evenly_spread(A, m, total)
        assert obs.m == m and obs.total_count == total and obs.quadrant_area == A
        assert max(obs.counts) - min(obs.counts) <= 1
        assert list(obs.counts) == sorted(obs.counts, reverse=True)


class TestHpdInterval:
    def test_exponential_left_anchored(self):
        lower, upper = hpd_interval(GammaParams(1.0, 2.0), 0.95)
        assert lower == 0.0
        assert upper == pytest.approx(-math.log(0.05) / 2.0, rel=1e-9)

    def test_density_equal_at_endpoints(self):
        params = GammaParams(28.0, 0.3225)
        lower, upper = hpd_interval(params, 0.95)
        f = density_grid(params, [lower, upper])
        assert abs(f[0] - f[1]) / f[0] < 1e-8

    def test_mass_is_exact(self):
        params = GammaParams(28.0, 0.3225)
        for mass in (0.5, 0.9, 0.95, 0.99):
            lower, upper = hpd_interval(params, mass)
            dist = stats.gamma(28.0, scale=1.0 / 0.3225)
            assert lower >= 0.0
            assert abs((dist.cdf(upper) - dist.cdf(lower)) - mass) < 1e-6

    def test_nested_in_mass(self):
        params = GammaParams(28.0, 0.3225)
        widths = [
            hpd_interval(params, mass)[1] - hpd_interval(params, mass)[0]
            for mass in (0.5, 0.8, 0.95, 0.999, 0.99999)
        ]
        assert widths == sorted(widths)

    def test_shorter_than_equal_tails(self):
        params = GammaParams(5.0, 0.1)
        lower, upper = hpd_interval(params, 0.95)
        dist = stats.gamma(5.0, scale=10.0)
        eq = dist.ppf([0.025, 0.975])
        assert upper - lower < eq[1] - eq[0]

    def test_bad_mass(self):
        with pytest.raises(ValueError):
            hpd_interval(GammaParams(2.0, 1.0), 1.5)

    @given(
        shape=st.floats(0.05, 1.0),
        rate=st.floats(1e-4, 1e3),
        mass=st.floats(0.01, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_left_anchored_upper_is_the_quantile(self, shape, rate, mass):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        assert lower == 0.0
        assert upper == stats.gamma.ppf(mass, shape, scale=1.0 / rate)

    @given(
        shape=st.floats(1.5, 5000.0),
        rate=st.floats(1e-3, 10.0),
        mass=st.floats(0.05, 0.999),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brentq_reference(self, shape, rate, mass):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        dist = stats.gamma(shape, scale=1.0 / rate)
        assert abs((dist.cdf(upper) - dist.cdf(lower)) - mass) < 1e-8
        f_lower, f_upper = dist.pdf([lower, upper])
        assert f_lower == pytest.approx(f_upper, rel=1e-9)
        # the reference endpoints are only good to its absolute xtol of 1e-14
        ref_lower, ref_upper = brentq_hpd(shape, rate, mass)
        assert lower == pytest.approx(ref_lower, rel=1e-10, abs=1e-13)
        assert upper == pytest.approx(ref_upper, rel=1e-10, abs=1e-13)


class TestDensityGrid:
    def test_unit_exponential_at_zero(self):
        assert density_grid(GammaParams(1.0, 1.0), [0.0])[0] == pytest.approx(1.0)

    def test_beta_marginal_normalizes(self):
        prior = DirichletParams.symmetric(10, 1.0)
        grid = np.linspace(0.0, 1.0, 20_001)
        dens = density_grid(prior, grid, component=2)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_grid_argmax_at_mode(self):
        grid = np.linspace(0.0, 1000.0, 2001)
        dens = density_grid(GammaParams(3.0, 0.01), grid)
        assert grid[np.argmax(dens)] == pytest.approx(200.0, abs=0.5)

    def test_out_of_support_named(self):
        with pytest.raises(ValueError, match="-3.0"):
            density_grid(GammaParams(2.0, 1.0), [1.0, -3.0])
        with pytest.raises(ValueError, match="1.5"):
            density_grid(DirichletParams.symmetric(3), [0.2, 1.5], component=0)

    def test_component_required_for_dirichlet(self):
        with pytest.raises(ValueError):
            density_grid(DirichletParams.symmetric(3), [0.5])

    @given(
        shape=st.floats(0.05, 1e4),
        rate=st.floats(1e-4, 1e3),
        grid=st.lists(st.floats(0.0, 1e7), min_size=1, max_size=50),
        top=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_equals_scipy_stats_exactly(self, shape, rate, grid, top):
        grid = np.concatenate([grid, np.linspace(0.0, top * shape / rate, 101)])
        np.testing.assert_array_equal(
            density_grid(GammaParams(shape, rate), grid),
            stats.gamma.pdf(grid, shape, scale=1.0 / rate),
        )

    @given(
        concentration=st.lists(st.floats(0.05, 500.0), min_size=2, max_size=10),
        grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_beta_marginal_equals_scipy_stats_exactly(self, concentration, grid, data):
        params = DirichletParams(tuple(concentration))
        i = data.draw(st.integers(0, params.k - 1))
        grid = np.concatenate([grid, np.linspace(0.0, 1.0, 101)])
        gi = params.concentration[i]
        try:
            expected = stats.beta.pdf(grid, gi, params.total - gi)
        except OverflowError:
            # scipy's Beta pdf overflows at some subnormal points; so must we
            with pytest.raises(OverflowError):
                density_grid(params, grid, component=i)
            return
        np.testing.assert_array_equal(density_grid(params, grid, component=i), expected)


class TestSynthesizeExpectedData:
    proportions = (0.52, 0.34, 0.0, 0.13, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_expected_counts_floor(self):
        obs, _ = synthesize_expected_data(382.0, self.proportions, 7, A, BASELINE_COST)
        assert obs.total_count == 167
        obs, _ = synthesize_expected_data(80.0, self.proportions, 5, A, BASELINE_COST)
        assert obs.total_count == 25
        obs, _ = synthesize_expected_data(5.0, self.proportions, 5, A, BASELINE_COST)
        assert obs.total_count == 1

    def test_categorized_split(self):
        _, cats = synthesize_expected_data(382.0, self.proportions, 7, A, BASELINE_COST)
        assert cats.categorized_total == 101  # floor(167 * 0.6071)
        assert cats.class_counts[0] == 53  # dominant class

    def test_class_counts_sum_exact(self):
        for lam in (5.0, 80.0, 382.0, 600.0, 997.3):
            obs, cats = synthesize_expected_data(lam, self.proportions, 7, A, BASELINE_COST)
            from mpdesign import categorization_fraction

            q = categorization_fraction(BASELINE_COST, obs.total_area, obs.total_count)
            assert cats.categorized_total == math.floor(obs.total_count * q)

    def test_total_count_override(self):
        obs, cats = synthesize_expected_data(
            600.0, self.proportions, 7, A, BASELINE_COST, total_count=280
        )
        assert obs.total_count == 280
        assert cats.categorized_total == 99

    def test_invalid_proportions(self):
        with pytest.raises(ValueError):
            synthesize_expected_data(10.0, (0.5, 0.4), 3, A, BASELINE_COST)


class TestApportionCounts:
    @given(
        total=st.integers(0, 500),
        weights=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=10),
    )
    @settings(max_examples=200)
    def test_sums_exactly(self, total, weights):
        counts = apportion_counts(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)

    def test_largest_remainder(self):
        assert apportion_counts(101, (0.52, 0.34, 0.13, 0.01)) == (53, 34, 13, 1)
