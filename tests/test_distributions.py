import math

import numpy as np
import pytest
from scipy import stats

from mpdesign import (
    DirichletParams,
    GammaParams,
    dirichlet_cov_trace,
    dirichlet_multinomial_moments,
    predictive_log_pmf,
)
from oracles import (
    RandomStream,
    dirichlet_sample,
    gamma_sample,
    poisson_sample,
    predictive_total_count,
)
from conftest import dirichlet_cov_matrix, dirichlet_multinomial_enumeration

N = 100_000


class TestGammaParams:
    def test_moments(self):
        p = GammaParams(3.0, 0.01)
        assert p.mean() == 300.0
        assert p.variance() == 30_000.0
        assert p.mode() == 200.0

    def test_mode_undefined_below_shape_one(self):
        with pytest.raises(ValueError):
            GammaParams(0.5, 1.0).mode()

    @pytest.mark.parametrize("shape,rate", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_invalid_params(self, shape, rate):
        with pytest.raises(ValueError):
            GammaParams(shape, rate)

    def test_from_mode(self):
        assert GammaParams.from_mode(3.0, 200.0).rate == 0.01
        assert GammaParams.from_mode(3.0, 800.0).rate == 0.0025


class TestDirichletParams:
    def test_mean_sums_to_one(self):
        p = DirichletParams((0.3, 2.0, 5.5))
        assert abs(p.mean().sum() - 1.0) < 1e-12
        assert p.total == 7.8

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            DirichletParams((1.0,))

    def test_positive_concentration(self):
        with pytest.raises(ValueError):
            DirichletParams((1.0, 0.0))

    def test_total_must_be_finite(self):
        with pytest.raises(ValueError, match="^total concentration"):
            DirichletParams((1e308, 1e308))


class TestGammaSample:
    def test_mean(self):
        x = gamma_sample(GammaParams(3, 0.01), RandomStream(1), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 300.0) < 3 * se

    def test_variance(self):
        x = gamma_sample(GammaParams(3, 0.01), RandomStream(2), size=N)
        assert abs(x.var(ddof=1) - 30_000.0) / 30_000.0 < 0.05

    def test_rate_parametrization_is_exponential_at_one_one(self):
        x = gamma_sample(GammaParams(1, 1), RandomStream(3), size=N)
        assert stats.kstest(x, "expon").pvalue > 0.01


class TestPoissonSample:
    def test_zero_mean(self):
        assert np.all(poisson_sample(0.0, RandomStream(4), size=1000) == 0)

    def test_mean_and_variance(self):
        x = poisson_sample(18.75, RandomStream(5), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 18.75) < 3 * se
        assert abs(x.var(ddof=1) - 18.75) / 18.75 < 0.05

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_sample(-1.0, RandomStream(6))


class TestPredictiveTotalCount:
    prior = GammaParams(3, 0.01)

    def test_mean_matches_area_times_prior_mean(self):
        x = predictive_total_count(self.prior, 0.0625, RandomStream(7), size=N)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - 18.75) < 3 * se

    def test_zero_area_gives_zero(self):
        assert np.all(predictive_total_count(self.prior, 0.0, RandomStream(8), size=1000) == 0)

    def test_variance_by_law_of_total_variance(self):
        # Var N = area*mean + area^2*variance of the rate prior
        area = 0.0625
        expected = area * 300.0 + area**2 * 30_000.0
        x = predictive_total_count(self.prior, area, RandomStream(9), size=N)
        assert abs(x.var(ddof=1) - expected) / expected < 0.05


def brute_log_pmf(prior, area, n):
    """Negative binomial log pmf straight from log-gamma functions."""
    a, b = prior.shape, prior.rate
    return (
        math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1)
        + a * math.log(b / (b + area)) + n * math.log(area / (b + area))
    )


class TestPredictiveLogPmf:
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
        for start in (0, 1, 777, 20_000):
            log_pmf = predictive_log_pmf(prior, area, start, start + 3000)
            for k in rng.integers(0, 3000, size=25):
                n = start + int(k)
                ref = brute_log_pmf(prior, area, n)
                assert log_pmf[k] == pytest.approx(ref, rel=1e-11, abs=1e-9)

    def test_sums_to_one_and_matches_scipy(self):
        prior, area = GammaParams(3.0, 0.01), 0.4375
        pmf = np.exp(predictive_log_pmf(prior, area, 0, 20_000))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        ref = stats.nbinom(prior.shape, prior.rate / (prior.rate + area)).pmf(np.arange(20_000))
        assert np.allclose(pmf, ref, rtol=1e-10, atol=0.0)

    def test_mean_matches_monte_carlo_draws(self):
        prior, area = GammaParams(3.0, 0.01), 0.4375
        n = np.arange(20_000)
        mean = float(np.dot(np.exp(predictive_log_pmf(prior, area, 0, 20_000)), n))
        draws = predictive_total_count(prior, area, RandomStream(8), size=N)
        assert abs(draws.mean() - mean) < 4 * draws.std(ddof=1) / np.sqrt(N)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            predictive_log_pmf(GammaParams(3.0, 0.01), 0.0, 0, 10)
        with pytest.raises(ValueError):
            predictive_log_pmf(GammaParams(3.0, 0.01), 0.5, 10, 10)


class TestDirichletSample:
    def test_two_class_uniform(self):
        x = dirichlet_sample(DirichletParams((1.0, 1.0)), RandomStream(10), size=N)
        assert stats.kstest(x[:, 0], "uniform").pvalue > 0.01

    def test_simplex_and_symmetry(self):
        p = DirichletParams.symmetric(10, 1.0)
        x = dirichlet_sample(p, RandomStream(11), size=N)
        assert np.all(np.abs(x.sum(axis=1) - 1.0) < 1e-12)
        se = x.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(x.mean(axis=0) - 0.1) < 3 * se)

    def test_empirical_cov_trace(self):
        p = DirichletParams.symmetric(10, 1.0)
        x = dirichlet_sample(p, RandomStream(12), size=N)
        dev2 = ((x - x.mean(axis=0)) ** 2).sum(axis=1)
        se = dev2.std(ddof=1) / np.sqrt(N)
        assert abs(dev2.mean() - dirichlet_cov_trace(p)) < 3 * se


class TestDirichletCovTrace:
    def test_symmetric_ten_classes(self):
        assert abs(dirichlet_cov_trace(DirichletParams.symmetric(10, 1.0)) - 0.9 / 11) < 1e-15

    def test_two_class_uniform(self):
        assert abs(dirichlet_cov_trace(DirichletParams((1.0, 1.0))) - 1.0 / 6.0) < 1e-15

    def test_concentrated_prior_shrinks(self):
        gamma = (1000.0,) + (1.0,) * 9
        assert dirichlet_cov_trace(DirichletParams(gamma)) < 1e-4

    def test_matches_assembled_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.integers(2, 21)
            gamma = rng.uniform(0.05, 8.0, size=k)
            p = DirichletParams(tuple(gamma))
            assert abs(dirichlet_cov_trace(p) - np.trace(dirichlet_cov_matrix(gamma))) < 1e-12


class TestDirichletMultinomialMoments:
    def test_zero_n(self):
        mean, var = dirichlet_multinomial_moments(DirichletParams.symmetric(3), 0)
        assert np.all(mean == 0) and np.all(var == 0)

    def test_symmetric_hand_value(self):
        mean, var = dirichlet_multinomial_moments(DirichletParams.symmetric(10, 1.0), 100)
        assert np.allclose(mean, 10.0)
        assert np.allclose(var, 90.0)

    def test_against_compound_simulation(self):
        p = DirichletParams((2.0, 1.0, 0.5))
        n = 40
        g = RandomStream(13).generator()
        probs = g.dirichlet(p.as_array(), size=N)
        counts = g.multinomial(n, probs)
        mean, var = dirichlet_multinomial_moments(p, n)
        mean_se = counts.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(counts.mean(axis=0) - mean) < 3 * mean_se)
        # variance of the sample variance via fourth central moments
        dev = counts - counts.mean(axis=0)
        var_se = np.sqrt(((dev**2 - dev.var(axis=0)) ** 2).mean(axis=0) / N)
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) < 3 * var_se)

    @pytest.mark.parametrize("n", range(7))
    def test_against_exact_enumeration(self, n):
        gamma = (0.7, 1.3, 2.5)
        mean, var = dirichlet_multinomial_moments(DirichletParams(gamma), n)
        mean_ref, var_ref = dirichlet_multinomial_enumeration(gamma, n)
        assert np.all(np.abs(mean - mean_ref) < 1e-9)
        assert np.all(np.abs(var - var_ref) < 1e-9)
