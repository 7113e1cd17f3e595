import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdesign import (
    DirichletParams,
    GammaParams,
    l1_expected,
    l1_realized,
    l2_expected,
    l2_realized,
)
from mpdesign.loss import _l2
from oracles import RandomStream, mc_oracle_l1, mc_oracle_l2
from conftest import dirichlet_cov_matrix

LOW_PRIOR = GammaParams(3.0, 0.01)
A = 0.0625


class TestL1Realized:
    def test_fixed_point_equals_one(self):
        # shape + n = (rate + mA)^2 * shape / rate^2 with rate=A=m=1, shape=1: n=3
        assert l1_realized(1, 3, GammaParams(1.0, 1.0), 1.0) == pytest.approx(1.0)

    def test_reference_value(self):
        # (rate^2/shape)*(shape+n)/(rate+mA)^2 = (1e-4/3)*28/0.3225^2
        assert l1_realized(5, 25, LOW_PRIOR, A) == pytest.approx(0.0089738, abs=1e-6)

    def test_vanishing_data_tends_to_one(self):
        assert l1_realized(1, 0, LOW_PRIOR, 1e-12) == pytest.approx(1.0, abs=1e-9)


class TestL1Expected:
    def test_reference_values(self):
        assert l1_expected(5, LOW_PRIOR, A) == pytest.approx(0.031008, abs=1e-5)
        assert l1_expected(7, LOW_PRIOR, A) == pytest.approx(0.022346, abs=1e-5)

    def test_no_sampling(self):
        assert l1_expected(0, LOW_PRIOR, A) == 1.0

    def test_strictly_decreasing_in_m_and_area(self):
        vals = [l1_expected(m, LOW_PRIOR, A) for m in range(13)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)
        assert l1_expected(5, LOW_PRIOR, 2 * A) < l1_expected(5, LOW_PRIOR, A)

    def test_closed_form_identity(self):
        # 1/(1 + mA * prior_variance/prior_mean)
        for m in (1, 4, 9):
            expected = 1.0 / (1.0 + m * A * LOW_PRIOR.variance() / LOW_PRIOR.mean())
            assert l1_expected(m, LOW_PRIOR, A) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("area", [math.nan, math.inf, -1.0, 0.0])
def test_bad_quadrant_area_named(area):
    message = f"quadrant_area must be positive and finite, got {area!r}"
    with pytest.raises(ValueError, match=message):
        l1_expected(3, LOW_PRIOR, area)
    with pytest.raises(ValueError, match=message):
        l1_realized(3, 10, LOW_PRIOR, area)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: l1_realized(-1, 10, LOW_PRIOR, A),
         "m and total_count must be nonnegative, got -1 and 10"),
        (lambda: l1_realized(3, -2, LOW_PRIOR, A),
         "m and total_count must be nonnegative, got 3 and -2"),
        (lambda: l1_expected(-1, LOW_PRIOR, A), "m must be nonnegative, got -1"),
        (lambda: l2_realized((1, 2), DirichletParams.symmetric(3)),
         "expected 3 class counts, got shape (2,)"),
        (lambda: l2_realized((1, -1), DirichletParams.symmetric(2)),
         "class counts must be nonnegative"),
        # the second class's share of the prior rounds to 0
        (lambda: l2_realized((0, 0), DirichletParams((1.0, 1e-20))),
         "degenerate prior: zero prior covariance trace"),
        (lambda: l2_expected(-1.0, DirichletParams.symmetric(2)),
         "n_bar must be finite and >= 0, got -1.0"),
        # NaN fails every comparison, so it is refused by name, not passed on as L2* = NaN
        (lambda: l2_expected(math.nan, DirichletParams.symmetric(10)),
         "n_bar must be finite and >= 0, got nan"),
        (lambda: l2_expected(math.inf, DirichletParams.symmetric(10)),
         "n_bar must be finite and >= 0, got inf"),
    ],
    ids=["l1-realized-m", "l1-realized-count", "l1-expected-m", "l2-realized-length",
         "l2-realized-negative", "l2-realized-degenerate", "l2-expected-negative",
         "l2-expected-nan", "l2-expected-inf"],
)
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestL2Realized:
    def test_no_data_is_one(self):
        assert l2_realized((0, 0, 0), DirichletParams.symmetric(3)) == pytest.approx(1.0)

    def test_reference_value(self):
        val = l2_realized((2, 1, 0), DirichletParams.symmetric(3))
        assert val == pytest.approx(11.0 / 21.0, abs=1e-12)

    def test_n_bar_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l2_realized((2, 1, 0), DirichletParams.symmetric(3), n_bar=5)

    def test_symmetric_prior_permutation_invariant(self):
        prior = DirichletParams.symmetric(4, 0.8)
        a = l2_realized((5, 1, 0, 2), prior)
        b = l2_realized((2, 0, 5, 1), prior)
        assert a == pytest.approx(b, rel=1e-14)

    @given(st.data())
    @settings(max_examples=100)
    def test_matches_covariance_trace_ratio(self, data):
        k = data.draw(st.integers(2, 10))
        gamma = np.array(data.draw(
            st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k)
        ))
        counts = np.array(data.draw(
            st.lists(st.integers(0, 50), min_size=k, max_size=k)
        ))
        prior = DirichletParams(tuple(gamma))
        ref = np.trace(dirichlet_cov_matrix(gamma + counts)) / np.trace(
            dirichlet_cov_matrix(gamma)
        )
        assert l2_realized(tuple(counts), prior) == pytest.approx(ref, abs=1e-12)


class TestL2Expected:
    def test_reference_values(self):
        prior = DirichletParams.symmetric(10, 1.0)
        assert l2_expected(280, prior) == pytest.approx(0.034483, abs=1e-5)
        assert l2_expected(99, prior) == pytest.approx(0.091743, abs=1e-5)

    def test_no_data_is_one(self):
        assert l2_expected(0, DirichletParams.symmetric(10)) == 1.0

    def test_unit_total_reduces_to_reciprocal(self):
        prior = DirichletParams.symmetric(5, 0.2)  # gamma0 = 1
        assert l2_expected(9, prior) == pytest.approx(0.1, abs=1e-12)
        for n in range(0, 400, 7):
            assert l2_expected(n, prior) == pytest.approx(1.0 / (1.0 + n), abs=1e-12)

    def test_strictly_decreasing(self):
        # over the formula's array core, which has the bits of every one count
        prior = DirichletParams.symmetric(10, 1.0)
        vals = _l2(np.arange(500, dtype=np.float64), prior.total)
        assert vals.tolist() == [l2_expected(n, prior) for n in range(500)]
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1))

    @pytest.mark.parametrize(
        "n_bar,name",
        [([3.0, -1.0], "list"), ((3, 4), "tuple"), (np.arange(3.0), "ndarray")],
    )
    def test_refuses_an_array_or_a_list(self, n_bar, name):
        with pytest.raises(TypeError, match=rf"^n_bar must be one count, got {name}$"):
            l2_expected(n_bar, DirichletParams.symmetric(2))

    def test_takes_one_numpy_scalar(self):
        prior = DirichletParams.symmetric(10, 1.0)
        for n_bar in (np.int64(99), np.float64(99.0), np.array(99.0)):
            got = l2_expected(n_bar, prior)
            assert type(got) is float and got == l2_expected(99, prior)


class TestMcOracleL1:
    def test_zero_design(self):
        assert mc_oracle_l1(0, LOW_PRIOR, A, 10_000, RandomStream(1)) == (1.0, 0.0)

    def test_agrees_with_closed_form(self):
        est, se = mc_oracle_l1(5, LOW_PRIOR, A, 100_000, RandomStream(2))
        assert abs(est - l1_expected(5, LOW_PRIOR, A)) < 3 * se

    def test_randomized_configurations(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            prior = GammaParams(rng.uniform(0.5, 8.0), rng.uniform(1e-3, 0.05))
            m = int(rng.integers(1, 13))
            est, se = mc_oracle_l1(m, prior, A, 20_000, RandomStream(4, (i,)))
            assert abs(est - l1_expected(m, prior, A)) < 3 * se + 1e-12

    def test_min_draws_enforced(self):
        with pytest.raises(ValueError):
            mc_oracle_l1(5, LOW_PRIOR, A, 100, RandomStream(5))


class TestMcOracleL2:
    def test_zero_n_bar(self):
        prior = DirichletParams.symmetric(10)
        assert mc_oracle_l2(0, prior, 10_000, RandomStream(6)) == (1.0, 0.0)

    def test_agrees_with_closed_form(self):
        prior = DirichletParams.symmetric(10, 1.0)
        est, se = mc_oracle_l2(280, prior, 100_000, RandomStream(7))
        assert abs(est - l2_expected(280, prior)) < 3 * se

    def test_randomized_configurations(self):
        rng = np.random.default_rng(8)
        for i in range(10):
            k = int(rng.integers(2, 11))
            prior = DirichletParams(tuple(rng.uniform(0.2, 4.0, size=k)))
            n_bar = int(rng.integers(1, 501))
            est, se = mc_oracle_l2(n_bar, prior, 20_000, RandomStream(9, (i,)))
            assert abs(est - l2_expected(n_bar, prior)) < 3 * se + 1e-12
