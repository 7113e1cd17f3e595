import math
import random
import sys
from unittest import mock

import mpmath

import numpy as np
import pytest
from scipy import optimize, special, stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpdesign import (
    CategorizationCounts,
    DirichletParams,
    FieldObservations,
    GammaParams,
    hpd_interval,
    naive_abundance_estimate,
    synthesize_expected_data,
    update_abundance,
    update_composition,
)
from mpdesign import _special, posterior
from mpdesign._special import _gammainc, _lgamma
from mpdesign.posterior import (
    _beta_marginal, _gamma_density, _linspace_from_zero, apportion_counts,
)
from conftest import BASELINE_COST

LOW_PRIOR = GammaParams(3.0, 0.01)
A = 0.0625


def beta_density_mpmath(x, a, b):
    """The Beta(a, b) density at each point of ``x``, to 40 digits."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        norm = 1 / mpmath.beta(a, b)
        exact = []
        for xi in map(mpmath.mpf, x):
            if xi in (0, 1):
                edge, other = (a, b) if xi == 0 else (b, a)
                exact.append(mpmath.inf if edge < 1 else other if edge == 1 else mpmath.mpf(0))
            else:
                exact.append(norm * xi ** (a - 1) * (1 - xi) ** (b - 1))
        return exact


def assert_beta_density(values, x, a, b, rel):
    """``values`` are the Beta(a, b) density at ``x`` to ``rel`` against
    40-digit mpmath, up to half the smallest subnormal; inf where the
    density passes the largest double."""
    half_subnormal = mpmath.mpf(2) ** -1075
    for xi, value, exact in zip(x, values, beta_density_mpmath(x, a, b)):
        if exact > sys.float_info.max:
            assert value == math.inf, (xi, a, b, value)
        else:
            assert abs(value - exact) <= rel * exact + half_subnormal, (
                xi, a, b, value, float(exact)
            )


# (a, b) of the 16 Beta marginals that ``replicate`` fig6 plots: PE, PP, PS
# and PA at m = 5 and 7 in its two scenarios
FIG6_BETA_SHAPES = [
    (63.0, 66.0), (41.0, 88.0), (17.0, 112.0), (2.0, 127.0),
    (54.0, 57.0), (35.0, 76.0), (14.0, 97.0), (2.0, 109.0),
    (75.0, 77.0), (49.0, 103.0), (20.0, 132.0), (2.0, 150.0),
    (52.0, 57.0), (35.0, 74.0), (14.0, 95.0), (2.0, 107.0),
]


def brentq_hpd(shape, rate, mass, tol=1e-14):
    """Reference HPD interval by bisection over the log-density drop
    d = log(f(mode) / level), with the mass from ``scipy.stats`` cdf.

    At each drop both endpoints come from ``scipy.optimize.brentq`` on
    (shape - 1) * (u - log1p(u)) = d with x = mode * (1 + u), to 4 ulp. SciPy's
    own pdf is off by up to 1.4e-11 relative at shape 4000, which moves a
    root found on it far enough to stop the mass near 1e-13; written relative
    to the mode the drop has no such cancellation."""
    dist = stats.gamma(shape, scale=1.0 / rate)
    mode = (shape - 1.0) / rate
    u_cap = dist.isf(min(1e-15, (1.0 - mass) / 10)) / mode - 1.0

    def ends(drop):
        def excess(u):
            return (shape - 1.0) * (u - math.log1p(u)) - drop

        rtol = 4 * np.finfo(float).eps
        lower = optimize.brentq(excess, -1.0 + 1e-12, 0.0, xtol=1e-17, rtol=rtol)
        upper = optimize.brentq(excess, 0.0, u_cap, xtol=1e-17, rtol=rtol)
        return mode * (1.0 + lower), mode * (1.0 + upper)

    lo_drop, hi_drop = 0.0, 1.0
    while True:
        lower, upper = ends(hi_drop)
        if dist.cdf(upper) - dist.cdf(lower) >= mass:
            break
        lo_drop, hi_drop = hi_drop, 2.0 * hi_drop
    for _ in range(200):
        drop = 0.5 * (lo_drop + hi_drop)
        lower, upper = ends(drop)
        contained = dist.cdf(upper) - dist.cdf(lower)
        if abs(contained - mass) < tol:
            return lower, upper
        if contained < mass:
            lo_drop = drop
        else:
            hi_drop = drop
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

    @pytest.mark.parametrize("area", [math.nan, math.inf, -1.0])
    def test_bad_quadrant_area_named(self, area):
        with pytest.raises(
            ValueError, match=f"quadrant_area must be positive and finite, got {area!r}"
        ):
            FieldObservations(area, (1, 2))

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

    @pytest.mark.parametrize("m", [0, -2])
    def test_no_quadrants_named(self, m):
        with pytest.raises(ValueError, match=f"m must be at least 1 quadrant, got {m}"):
            FieldObservations.evenly_spread(A, m, 5)


class TestHpdInterval:
    def test_exponential_left_anchored(self):
        lower, upper = hpd_interval(GammaParams(1.0, 2.0), 0.95)
        assert lower == 0.0
        assert upper == pytest.approx(-math.log(0.05) / 2.0, rel=1e-9)

    def test_density_equal_at_endpoints(self):
        params = GammaParams(28.0, 0.3225)
        lower, upper = hpd_interval(params, 0.95)
        f = _gamma_density(params, [lower, upper])
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

    def test_left_anchored_quantile_underflow_is_zero(self):
        assert hpd_interval(GammaParams(0.05, 1.0), 1e-300) == (0.0, 0.0)

    def test_shape_bound(self, monkeypatch):
        # at the bound the interval is computed to its stated mass error;
        # the next double is refused before the series of _gamma_tail, whose
        # length grows like sqrt(78 shape), allocates anything
        bound = posterior._MAX_HPD_SHAPE
        lower, upper = hpd_interval(GammaParams(bound, 0.5), 0.5)
        with mpmath.workdps(50):
            contained = mpmath.gammainc(bound, lower * 0.5, upper * 0.5, regularized=True)
            assert abs(contained - 0.5) <= 1e-11
        monkeypatch.setattr(_special, "_gamma_tail", lambda *args: pytest.fail("series summed"))
        past = math.nextafter(bound, math.inf)
        with pytest.raises(ValueError) as info:
            hpd_interval(GammaParams(past, 0.5), 0.95)
        assert str(info.value) == (
            "Gamma shape 10000000000.000002 is past 1e+10, the largest whose HPD interval "
            "is computed"
        )

    @given(
        shape=st.floats(0.05, 1.0),
        rate=st.floats(1e-4, 1e3),
        mass=st.floats(0.01, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_left_anchored_upper_is_the_quantile(self, shape, rate, mass):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        assert lower == 0.0
        with mpmath.workdps(50):
            contained = mpmath.gammainc(shape, 0, mpmath.mpf(upper) * rate, regularized=True)
            assert abs(contained - mass) <= 5e-15
        # SciPy's own quantile is off by up to 85 ulp here, so it is only a
        # cross-check
        assert upper == pytest.approx(stats.gamma.ppf(mass, shape, scale=1.0 / rate), rel=1e-12)

    @given(
        shape=st.floats(1.5, 5000.0),
        rate=st.floats(1e-3, 10.0),
        mass=st.floats(0.05, 0.999),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brentq_reference(self, shape, rate, mass):
        self.check_against_brentq(shape, rate, mass)

    def test_matches_brentq_reference_stored_example(self):
        # the reference used to stop at a mass error of 1e-8, which moved
        # its lower end 8.3e-7 from this one
        self.check_against_brentq(3759.0, 1.0, 0.0546875)

    @staticmethod
    def check_against_brentq(shape, rate, mass):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        dist = stats.gamma(shape, scale=1.0 / rate)
        assert abs((dist.cdf(upper) - dist.cdf(lower)) - mass) < 1e-12
        f_lower, f_upper = dist.pdf([lower, upper])
        assert f_lower == pytest.approx(f_upper, rel=1e-9)
        ref_lower, ref_upper = brentq_hpd(shape, rate, mass)
        assert lower == pytest.approx(ref_lower, rel=1e-10)
        assert upper == pytest.approx(ref_upper, rel=1e-10)

    @given(
        shape=st.floats(1.05, 1e5),
        rate=st.floats(1e-3, 10.0),
        mass=st.floats(0.01, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_mpmath_oracle(self, shape, rate, mass):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        assert 0.0 < lower < upper
        with mpmath.workdps(50):
            a, b = mpmath.mpf(shape), mpmath.mpf(rate)
            lo, up = mpmath.mpf(lower), mpmath.mpf(upper)
            contained = mpmath.gammainc(a, b * lo, b * up, regularized=True)
            assert abs(contained - mass) <= 1e-13
            # equal log-density, up to what rounding each end to a double
            # allows: the log-density's slope times an ulp, at either end
            drop = (a - 1) * (mpmath.log(lo) - mpmath.log(up)) - b * (lo - up)
            slack = sum(abs((a - 1) / x - b) * math.ulp(x) for x in (lower, upper))
            assert abs(drop) <= 8 * slack

    @given(
        shape=st.floats(1.0001, 1e5),
        mass=st.floats(1e-6, 1.0 - 1e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_few_mass_evaluations(self, shape, mass):
        calls = []

        def counted(a, x):
            calls.append(x)
            return _gammainc(a, x)

        with mock.patch.object(posterior, "_gammainc", counted):
            hpd_interval(GammaParams(shape, 1.0), mass)
        assert 0 < len(calls) <= 16  # 8 masses, each the difference of two


def neighbours(x, k=3):
    """x and the k doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above


class TestLogGamma:
    @given(x=st.floats(0.0, 1e9, exclude_min=True))
    @settings(max_examples=2000)
    def test_equals_scipy_gammaln(self, x):
        assert _lgamma(x) == special.gammaln(x)

    @pytest.mark.parametrize("edge", [1.0, 2.0, 3.0, 13.0, 1000.0, 1e8])
    def test_equals_scipy_gammaln_at_branch_edges(self, edge):
        xs = neighbours(edge)
        assert [_lgamma(x) for x in xs] == special.gammaln(xs).tolist()


class TestIncompleteGamma:
    @given(a=st.floats(1.0, 1e5, exclude_min=True), z=st.floats(-8.0, 8.0))
    @settings(max_examples=1000)
    def test_matches_scipy_gammainc(self, a, z):
        x = max(a + z * math.sqrt(a), 0.0)
        assert abs(_gammainc(a, x) - special.gammainc(a, x)) <= 1e-13

    @given(a=st.floats(0.05, 1e4), x=st.floats(0.0, 1e6))
    @settings(max_examples=300)
    def test_matches_scipy_gammainc_far_from_the_mean(self, a, x):
        assert abs(_gammainc(a, x) - special.gammainc(a, x)) <= 1e-13

    def test_endpoints(self):
        assert _gammainc(3.0, 0.0) == 0.0
        assert _gammainc(1.0, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-15)
        assert _gammainc(2.5, 1e6) == 1.0


class TestDensityGrid:
    def test_unit_exponential_at_zero(self):
        assert _gamma_density(GammaParams(1.0, 1.0), [0.0])[0] == pytest.approx(1.0)

    def test_beta_marginal_normalizes(self):
        prior = DirichletParams.symmetric(10, 1.0)
        grid = np.linspace(0.0, 1.0, 20_001)
        dens = _beta_marginal(prior, 2, grid.tolist())
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_grid_argmax_at_mode(self):
        grid = np.linspace(0.0, 1000.0, 2001)
        dens = _gamma_density(GammaParams(3.0, 0.01), grid.tolist())
        assert grid[np.argmax(dens)] == pytest.approx(200.0, abs=0.5)

    def test_out_of_support_named(self):
        with pytest.raises(ValueError, match="-3.0"):
            _gamma_density(GammaParams(2.0, 1.0), [1.0, -3.0])
        with pytest.raises(ValueError, match="1.5"):
            _beta_marginal(DirichletParams.symmetric(3), 0, [0.2, 1.5])
        with pytest.raises(ValueError, match="nan"):
            _gamma_density(GammaParams(3.0, 0.01), [math.nan, 1.0])
        with pytest.raises(ValueError, match="nan"):
            _beta_marginal(DirichletParams.symmetric(3), 0, [0.2, math.nan])

    @given(
        shape=st.floats(0.05, 1e4),
        rate=st.floats(1e-4, 1e3),
        grid=st.lists(st.floats(0.0, 1e7), min_size=1, max_size=50),
        top=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_exponential_within_one_ulp_of_scipy_stats(self, shape, rate, grid, top):
        # SciPy's density is np.exp(arg) / scale with arg = xlogy(shape - 1, y)
        # - y - gammaln(shape) and y = x / scale. This one takes the same arg
        # and the same scale, but libm's exp for NumPy's SIMD one: the
        # exponential is within 1 ulp of SciPy's, and the density is it over
        # the scale. (That division can make 1 ulp of the exponential 2 ulp of
        # the density, where the exponential lies low in its binade and the
        # density high in its.)
        grid = np.concatenate([grid, np.linspace(0.0, top * shape / rate, 101)])
        scale = 1.0 / rate
        y = grid / scale
        arg = special.xlogy(shape - 1.0, y) - y - special.gammaln(shape)
        with np.errstate(over="ignore"):
            theirs = np.exp(arg)
        assert stats.gamma.pdf(grid, shape, scale=scale).tolist() == (theirs / scale).tolist()
        got = _gamma_density(GammaParams(shape, rate), grid.tolist())
        for x, exponent, ref, value in zip(grid.tolist(), arg.tolist(), theirs.tolist(), got):
            try:
                ours = math.exp(exponent)
            except OverflowError:
                ours = math.inf
            assert ours == ref or abs(ours - ref) <= math.ulp(ref) < math.inf, (x, ours, ref)
            assert value == ours / scale, (x, value, ours)

    @given(
        shape=st.floats(0.05, 1e4),
        rate=st.floats(1e-4, 1e3),
        grid=st.lists(st.floats(0.0, 1e7), min_size=1, max_size=20),
        top=st.floats(0.1, 10.0),
    )
    @example(shape=0.9718742204453347, rate=533.1656167975044, grid=[3.645674776565538e-05],
             top=1.0)
    @settings(max_examples=60, deadline=None)
    def test_gamma_matches_mpmath(self, shape, rate, grid, top):
        # The density is exp of a sum of terms as large as
        # cond = 1 + |shape - 1| |log y| + y + |log Gamma(shape)| (y = x
        # rate), so its relative error grows with cond. Over 160,000 seeded
        # draws of this domain (points with a normal density and a normal y:
        # below, x / scale keeps only an absolute 2^-1075 or rounds to 0, in
        # SciPy's steps as in these, and no relative bound holds) SciPy's own
        # relative error reached 4.6243 eps cond, at the example above, where
        # cond is 1.15 and log Gamma(shape) a difference of two terms near
        # 0.65; this one's worst was the same, at the same point. The bound
        # is SciPy's worst, rounded up in its fourth digit.
        grid = grid + np.linspace(0.0, top * shape / rate, 41).tolist()
        got = _gamma_density(GammaParams(shape, rate), grid)
        log_gamma = abs(_lgamma(shape))
        with mpmath.workdps(40):
            a, b = mpmath.mpf(shape), mpmath.mpf(rate)
            log_norm = a * mpmath.log(b) - mpmath.loggamma(a)
            for x, value in zip(grid, got):
                if x == 0.0:
                    at_zero = pytest.approx(rate, rel=2.0**-51) if shape == 1 else 0.0
                    assert value == (math.inf if shape < 1 else at_zero)
                    continue
                exact = mpmath.exp(log_norm + (a - 1) * mpmath.log(x) - b * x)
                y = x * rate
                if exact > sys.float_info.max:
                    assert value == math.inf, (x, value)
                elif exact >= sys.float_info.min and y >= sys.float_info.min:
                    cond = 1.0 + abs(shape - 1.0) * abs(math.log(y)) + y + log_gamma
                    bound = 4.625 * 2.0**-53 * cond * exact
                    assert abs(value - exact) <= bound, (x, value, exact)

    @given(
        concentration=st.lists(st.floats(0.05, 500.0), min_size=2, max_size=10),
        grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_beta_marginal_matches_mpmath(self, concentration, grid, data):
        # SciPy's Beta density is off by up to 5.4e-13 on such shapes
        # (test_beta_marginal_no_worse_than_scipy); this bound is 135 times
        # stricter
        params = DirichletParams(tuple(concentration))
        i = data.draw(st.integers(0, params.k - 1))
        grid = np.concatenate([grid, np.linspace(0.0, 1.0, 101)])
        a = params.concentration[i]
        b = math.fsum(params.concentration[:i] + params.concentration[i + 1:])
        got = _beta_marginal(params, i, grid.tolist())
        assert_beta_density(got, grid.tolist(), a, b, rel=4e-15)

    def test_beta_marginal_no_worse_than_scipy(self):
        # fig6's 16 marginals, 40 seeded shapes over the concentrations
        # above (b up to the sum of nine of them) and, for each shape, the
        # grid's neighbours of 0 and 1 down to the subnormals: against
        # mpmath, the worst relative error of each set is at most SciPy's
        rng = random.Random(1)
        sets = {
            "fig6": FIG6_BETA_SHAPES,
            "random": [
                (math.exp(rng.uniform(math.log(0.05), math.log(500.0))),
                 math.exp(rng.uniform(math.log(0.05), math.log(5000.0))))
                for _ in range(40)
            ],
        }
        ends = [5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-100, 1e-20, 2.0**-53, 1e-10, 1e-3]
        grid = np.concatenate(
            [np.linspace(0.0, 1.0, 501), ends, [1.0 - x for x in ends[6:]], [1.0 - 2.0**-53]]
        )
        # SciPy's raises OverflowError at and below the smallest normal double
        normal = (grid == 0.0) | (grid >= 1e-300)
        for name, shapes in sets.items():
            ours = theirs = 0.0
            for a, b in shapes:
                got = _beta_marginal(DirichletParams((a, b)), 0, grid.tolist())
                scipy_values = np.full(len(grid), math.nan)
                scipy_values[normal] = stats.beta.pdf(grid[normal], a, b)
                exact = beta_density_mpmath(grid.tolist(), a, b)
                with mpmath.workdps(40):
                    for value, scipy_value, e in zip(got, scipy_values.tolist(), exact):
                        if 1e-300 <= e <= sys.float_info.max:
                            ours = max(ours, float(abs(value / e - 1)))
                            if not math.isnan(scipy_value):
                                theirs = max(theirs, float(abs(scipy_value / e - 1)))
            assert ours <= theirs, (name, ours, theirs)
            assert ours <= 1.3e-15, (name, ours)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_beta_marginal_at_the_ends_equals_scipy(self, a, b):
        # inf below 1, the other shape at 1 (1 / B(1, b) = b) and 0 above
        got = _beta_marginal(DirichletParams((a, b)), 0, [0.0, 1.0])
        np.testing.assert_array_equal(got, stats.beta.pdf([0.0, 1.0], a, b))
        assert got[0] == (math.inf if a < 1 else b if a == 1 else 0.0)

    def test_beta_marginal_at_a_subnormal_point(self):
        # SciPy raises OverflowError here
        got = _beta_marginal(DirichletParams((1.0, 4.0)), 0, [1.1125e-308])
        assert got[0] == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("a", [0.01, 0.05, 0.5, 0.99])
    @pytest.mark.parametrize("b", [0.5, 3.0, 400.0])
    def test_beta_marginal_below_one_at_subnormal_points(self, a, b):
        # the density passes the largest double near 0 for some shapes: inf
        # then, else the density, but never an exception
        grid = [5e-324, 1e-320, 1e-310, 1.1125e-308, 2.0**-1022]
        got = _beta_marginal(DirichletParams((a, b)), 0, grid)
        assert_beta_density(got, grid, a, b, rel=4e-15)

    def test_beta_second_shape_is_the_sum_of_the_others(self):
        # 1000.001 - 1000 would give b = 0.0009999999999763531, 2.4e-11
        # off, which moves the density by 2.4e-11 relative
        params = DirichletParams((1000.0, 1e-3))
        grid = np.linspace(0.98, 1.0, 21)
        for i, (a, b, x) in enumerate([(1000.0, 1e-3, grid), (1e-3, 1000.0, 1.0 - grid)]):
            got = _beta_marginal(params, i, x.tolist())
            assert_beta_density(got, x.tolist(), a, b, rel=4e-15)

    @pytest.mark.parametrize(
        "concentration,a,b",
        [
            ((1e-310, 1.0), 1e-310, 1.0),  # below 1 / the largest double
            ((1e-300, 1e10), 1e-300, 1e10),  # (a + b) / a overflows
            ((1.0, 1e-310), 1.0, 1e-310),  # (a + b) / b overflows
            ((1e300, 1e290), 1e300, 1e290),  # the ratio powers' correction underflows
        ],
    )
    def test_beta_marginal_names_shapes_out_of_range(self, concentration, a, b):
        with pytest.raises(ValueError) as info:
            _beta_marginal(DirichletParams(concentration), 0, [0.5])
        assert str(info.value) == (
            f"component 0: Beta shapes a={a!r}, b={b!r} are out of range: "
            "1/B(a, b) cannot be formed"
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 50.0])
    def test_beta_marginal_with_b_near_its_bound(self, a):
        # b = 6e18: the factor that corrects the rounding of 1 - x reaches
        # e^+-330 at these points, where the density is still a double
        grid = [k * 2.0**-55 for k in range(1, 40, 3)] + [1e-19, 1e-17, 0.3]
        got = _beta_marginal(DirichletParams((a, 6e18)), 0, grid)
        assert_beta_density(got, grid, a, 6e18, rel=4e-15)

    @pytest.mark.parametrize("b", [1e300, 6.4e18])
    def test_beta_marginal_names_shapes_past_the_b_bound(self, b):
        # past 700 * 2^53 the rounding correction can leave the double range
        # (at x = 0.3 for b = 1e300), so such a b is refused at every point
        with pytest.raises(ValueError) as info:
            _beta_marginal(DirichletParams((1.0, b)), 0, [0.3])
        assert str(info.value) == (
            f"component 0: Beta shapes a=1.0, b={b!r} are out of range: "
            "(1 - x)^(b - 1) cannot be formed for b past 6.31e+18"
        )


def grid_stops():
    """(stop, points) pairs: the lambda and p grids of replicate's fig5 and
    fig6, zero and subnormal stops, where the step underflows or has few
    bits, two points, and random stops and lengths."""
    rng = random.Random(28)
    yield from [(1000.0, 1001), (1.0, 501),
                (0.0, 2), (0.0, 500), (5e-324, 2), (5e-324, 3), (1e-322, 100), (1e-310, 7),
                (2.0**-1022, 2000), (1.0, 2), (267.96864058524203, 500), (1e308, 3)]
    for _ in range(300):
        yield math.exp(rng.uniform(-750.0, 709.0)), rng.randint(2, 3000)


def test_density_grid_is_numpy_linspace():
    for stop, points in grid_stops():
        expected = np.linspace(0.0, stop, points).tolist()
        got = _linspace_from_zero(stop, points)
        assert [x.hex() for x in got] == [x.hex() for x in expected], (stop, points)


# shapes from 0.05 to 5000, log-uniform, and exactly 1
UNIT_SHAPES = st.one_of(
    st.just(1.0), st.floats(math.log(0.05), math.log(5000.0)).map(math.exp)
)


class TestChangeOfUnit:
    """The abundance posterior under a change of area unit by a power of two.

    Measuring area in units 2^k times smaller multiplies the rate by 2^k and
    divides every abundance by it. The HPD interval's ends are the mode or a
    rate-1 quantile divided by the rate, and the density is a rate-1 value at
    x * rate divided by the scale, so both change by a power of two, which is
    exact in binary floating point: the checks are bit for bit.
    """

    @given(
        shape=UNIT_SHAPES,
        rate=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
        mass=st.floats(0.01, 0.999),
        k=st.sampled_from((-3, -2, -1, 1, 2, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_hpd_ends_scale_exactly(self, shape, rate, mass, k):
        lower, upper = hpd_interval(GammaParams(shape, rate), mass)
        scaled = hpd_interval(GammaParams(shape, math.ldexp(rate, k)), mass)
        assert scaled == (math.ldexp(lower, -k), math.ldexp(upper, -k))

    @given(
        shape=UNIT_SHAPES,
        rate=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
        k=st.sampled_from((-3, -2, -1, 1, 2, 3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_density_scales_exactly(self, shape, rate, k):
        grid = np.linspace(0.0, 4.0 * (shape + 1.0) / rate, 201)
        density = np.array(_gamma_density(GammaParams(shape, rate), grid.tolist()))
        scaled = np.array(
            _gamma_density(GammaParams(shape, math.ldexp(rate, k)), np.ldexp(grid, -k).tolist())
        )
        expected = np.ldexp(density, k)
        # a subnormal density keeps fewer bits, so scaling it by 2^k rounds
        # (or flushes it to 0) and the two sides may differ in the last kept
        # bit; every cell where neither side is subnormal must match
        tiny = np.finfo(float).tiny
        subnormal = np.zeros(grid.shape, dtype=bool)
        for values in (density, scaled, expected):
            subnormal |= (values != 0) & (np.abs(values) < tiny)
        assert np.array_equal(scaled[~subnormal], expected[~subnormal])


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

    def test_zero_total_count_without_abundance(self):
        obs, cats = synthesize_expected_data(
            None, self.proportions, 7, A, BASELINE_COST, total_count=0
        )
        assert obs.counts == (0,) * 7
        assert cats.categorized_total == 0
        assert cats.class_counts == (0,) * 10

    def test_negative_total_count_named(self):
        with pytest.raises(ValueError, match="total_count"):
            synthesize_expected_data(None, self.proportions, 7, A, BASELINE_COST, total_count=-1)

    def test_missing_abundance_named(self):
        with pytest.raises(ValueError, match="true_abundance"):
            synthesize_expected_data(None, self.proportions, 7, A, BASELINE_COST)

    def test_invalid_proportions(self):
        with pytest.raises(ValueError):
            synthesize_expected_data(10.0, (0.5, 0.4), 3, A, BASELINE_COST)


class TestApportionCounts:
    @given(
        total=st.integers(0, 500),
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0)), min_size=2, max_size=10)
        .filter(any),
    )
    @settings(max_examples=200)
    def test_sums_exactly(self, total, weights):
        counts = apportion_counts(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        assert all(c == 0 for c, w in zip(counts, weights) if w == 0.0)

    def test_largest_remainder(self):
        assert apportion_counts(101, (0.52, 0.34, 0.13, 0.01)) == (53, 34, 13, 1)

    @given(
        total=st.integers(0, 10**6),
        weights=st.lists(
            st.one_of(st.sampled_from((0.0, 0.1, 0.25, 1.0 / 3.0)), st.floats(1e-6, 1e6)),
            min_size=1, max_size=12,
        ).filter(any),
    )
    @settings(max_examples=300)
    def test_same_split_as_numpy(self, total, weights):
        # the NumPy form it replaced, ties broken by a stable argsort
        p = np.asarray(weights, dtype=float)
        raw = total * p / p.sum()
        base = np.floor(raw).astype(int)
        short = total - int(base.sum())
        if short:
            base[np.argsort(-(raw - base), kind="stable")[:short]] += 1
        assert apportion_counts(total, weights) == tuple(base.tolist())


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: FieldObservations(A, ()), ValueError, "need at least one quadrant"),
        (lambda: FieldObservations(A, (3, -1)), ValueError, "counts must be nonnegative"),
        (lambda: CategorizationCounts((3, -1)), ValueError, "class counts must be nonnegative"),
        (lambda: _beta_marginal(DirichletParams.symmetric(3), 3, [0.5]), ValueError,
         "component 3 out of range for k=3"),
        (lambda: apportion_counts(-1, [0.5, 0.5]), ValueError, "total must be nonnegative"),
        (lambda: apportion_counts(10.5, [0.5, 0.5]), ValueError,
         "total must be an integer, got 10.5"),
        # below 2**53, yet the shares floor to one more than the total
        (lambda: apportion_counts(7485798736127770, [643930922149846.0, 566833729445614.1]),
         ValueError, "total 7485798736127770 is too large to apportion in floating point"),
        (lambda: apportion_counts(10, []), ValueError, "proportions must not be empty, got []"),
        (lambda: apportion_counts(10, [math.nan, 1.0]), ValueError,
         "proportions must be finite and >= 0, got nan"),
        (lambda: apportion_counts(10, [1.0, math.inf]), ValueError,
         "proportions must be finite and >= 0, got inf"),
        (lambda: apportion_counts(10, [-1, 2]), ValueError,
         "proportions must be finite and >= 0, got -1.0"),
        (lambda: apportion_counts(10, [0, 0]), ValueError,
         "proportions must have a positive, finite sum, got 0.0"),
        (lambda: apportion_counts(10, [1e308, 1e308]), ValueError,
         "proportions must have a positive, finite sum, got inf"),
        # a share of 10 * 1e308 / s is inf, and floor(inf) overflows
        (lambda: apportion_counts(10, [1e308, 1.0]), ValueError,
         "total 10 times a proportion overflows a float"),
        # a total past the largest float
        (lambda: apportion_counts(10**309, [1.0, 1.0]), ValueError,
         f"total {10**309} times a proportion overflows a float"),
        (lambda: synthesize_expected_data(100.0, [0.5, 0.5], 0, A, BASELINE_COST), ValueError,
         "m must be at least 1, got 0"),
        (lambda: synthesize_expected_data(10.0, [math.nan, 0.5], 3, A, BASELINE_COST),
         ValueError, "true_proportions must be finite and >= 0, got nan"),
        (lambda: synthesize_expected_data(10.0, [-0.5, 1.5], 3, A, BASELINE_COST),
         ValueError, "true_proportions must be finite and >= 0, got -0.5"),
        (lambda: synthesize_expected_data(10.0, (), 3, A, BASELINE_COST), ValueError,
         "true_proportions must not be empty, got ()"),
        (lambda: synthesize_expected_data(10.0, (0.5, 0.4), 3, A, BASELINE_COST), ValueError,
         "true_proportions must sum to 1, got a sum of 0.9"),
    ],
    ids=["no-quadrants", "negative-count", "negative-class-count", "component-out-of-range",
         "negative-total", "non-integer-total", "total-too-large", "no-proportions",
         "nan-proportion", "infinite-proportion", "negative-proportion", "zero-sum", "infinite-sum",
         "infinite-share", "total-past-float",
         "no-quadrants-synthesized", "nan-true-proportion", "negative-true-proportion",
         "no-true-proportions", "true-proportions-off-one"],
)
def test_bad_input_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
