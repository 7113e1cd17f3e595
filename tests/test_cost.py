import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpdesign import (
    CostModel,
    GammaParams,
    budget_rule,
    categorization_fraction,
    l1_expected,
    optimize_design,
)
from mpdesign.cost import (
    _budget_split, _categorized, _categorized_list, _categorized_runs, _first_where, _fractions,
)
from conftest import BASELINE_COST, baseline_config
from oracles import budget_fraction, decimal_categorized_count


class TestCostModel:
    def test_budget_quadrants(self):
        assert BASELINE_COST.budget_coefficient == pytest.approx(4.0 / 3.0)
        assert BASELINE_COST.budget_area == pytest.approx(0.75)

    def test_raw_costs_reduce_to_ratios(self):
        c = CostModel.from_raw_costs(0.0625, 80.0, 4e-3, 0.24, 60.0)
        assert c.count_ratio == pytest.approx(5e-5)
        assert c.categorize_ratio == pytest.approx(3e-3)
        assert c.budget_coefficient == pytest.approx(4.0 / 3.0)

    def test_raw_cost_scale_invariance(self):
        base = CostModel.from_raw_costs(0.0625, 80.0, 4e-3, 0.24, 60.0)
        f = 7.3
        scaled = CostModel.from_raw_costs(0.0625, f * 80.0, f * 4e-3, f * 0.24, f * 60.0)
        assert scaled == base  # bit-identical ratios

    def test_tiny_budget_warns_nothing(self):
        # a budget below one quadrant is a valid model whose only design is
        # m = 0; the design command refuses it with its own error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost = CostModel.from_budget_quadrants(0.0625, 0.5, 5e-5, 3e-3)
        assert cost.max_quadrants == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["quadrant_area", "budget_coefficient", "count_ratio", "categorize_ratio"]
    )
    def test_nonfinite_field_rejected_by_name(self, name, value):
        fields = {field: getattr(BASELINE_COST, field) for field in CostModel.__match_args__}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CostModel(**{**fields, name: value})

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: CostModel(0.0, 4.0 / 3.0, 5e-5, 3e-3),
             "quadrant_area must be positive, got 0.0"),
            (lambda: CostModel(0.0625, -1.0, 5e-5, 3e-3),
             "budget_coefficient must be positive, got -1.0"),
            (lambda: CostModel(0.0625, 4.0 / 3.0, -1e-9, 3e-3),
             "count_ratio must be nonnegative, got -1e-09"),
            (lambda: CostModel(0.0625, 4.0 / 3.0, 5e-5, 0.0),
             "categorize_ratio must be positive, got 0.0"),
            (lambda: CostModel.from_raw_costs(0.0625, 0.0, 4e-3, 0.24, 60.0),
             "sample_cost_per_m2 0.0 and budget 60.0 must be positive"),
            (lambda: CostModel.from_raw_costs(0.0625, 80.0, 4e-3, 0.24, -1.0),
             "sample_cost_per_m2 80.0 and budget -1.0 must be positive"),
        ],
        ids=["area-zero", "coefficient-negative", "count-ratio-negative",
             "categorize-ratio-zero", "raw-sample-cost-zero", "raw-budget-negative"],
    )
    def test_out_of_range_rejected_with_value(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def spent(cost, total_area, n):
    """c * (mA + r1*n + r2*n_bar), the normalized cost, with n_bar from the rule."""
    _, n_bar = budget_rule(cost, total_area, n)
    return cost.budget_coefficient * (
        total_area + cost.count_ratio * n + cost.categorize_ratio * n_bar
    )


class TestNormalizedCost:
    """The normalized cost c * (mA + r1*n + r2*n_bar) that the budget split charges."""

    def test_reference_design_saturates_budget(self):
        # m=7, n=167 with the budget-implied n_bar spends everything up to one
        # particle's categorization cost (the floor quantum)
        cost = spent(BASELINE_COST, 0.4375, 167)
        quantum = BASELINE_COST.budget_coefficient * BASELINE_COST.categorize_ratio
        assert cost <= 1.0
        assert 1.0 - cost < quantum
        assert _budget_split(BASELINE_COST, 0.4375, 167)[1]["slack"] == 1.0 - cost

    def test_empty_design_costs_nothing(self):
        assert spent(BASELINE_COST, 0.0, 0) == 0.0
        assert _budget_split(BASELINE_COST, 0.0, 0) == (0, {
            "sampling": 0.0, "counting": 0.0, "categorization": 0.0, "slack": 1.0,
        })

    def test_currency_rescaling_cancels(self):
        a = CostModel.from_raw_costs(0.0625, 80.0, 4e-3, 0.24, 60.0)
        b = CostModel.from_raw_costs(0.0625, 160.0, 8e-3, 0.48, 120.0)
        for n in (0, 50, 167, 280, 20_000):
            assert _budget_split(a, 0.4375, n) == _budget_split(b, 0.4375, n)

    @given(
        area=st.floats(0.01, 1.0),
        budget=st.floats(1.0, 40.0),
        r1=st.floats(0.0, 1e-3),
        r2=st.floats(1e-4, 1e-1),
        m=st.integers(0, 40),
        n=st.integers(0, 50_000),
    )
    @settings(max_examples=300)
    def test_budget_split_charges_the_rule_count(self, area, budget, r1, r2, m, n):
        # the summary charges the rule's n_bar, and its slack is 1 minus the
        # spend c * (mA + r1*n + r2*n_bar), to the bit
        cost = CostModel.from_budget_quadrants(area, budget, r1, r2)
        total_area = min(m, cost.max_quadrants) * area
        _, n_bar = budget_rule(cost, total_area, n)
        c = cost.budget_coefficient
        assert _budget_split(cost, total_area, n) == (n_bar, {
            "sampling": c * total_area,
            "counting": c * r1 * n,
            "categorization": c * r2 * n_bar,
            "slack": 1.0 - c * (total_area + r1 * n + r2 * n_bar),
        })


class TestCategorizationFraction:
    def test_reference_values(self):
        q167 = categorization_fraction(BASELINE_COST, 0.4375, 167)
        assert q167 == pytest.approx(0.6071, abs=1e-4)
        assert math.floor(167 * q167) == 101
        q280 = categorization_fraction(BASELINE_COST, 0.4375, 280)
        assert q280 == pytest.approx(0.35536, abs=1e-4)
        assert math.floor(280 * q280) == 99

    def test_clamped_at_one_when_budget_ample(self):
        assert categorization_fraction(BASELINE_COST, 0.4375, 50) == 1.0

    def test_zero_count_convention(self):
        assert categorization_fraction(BASELINE_COST, 0.4375, 0) == 1.0

    @given(
        n=st.integers(0, 2000),
        m=st.integers(0, 12),
        budget=st.floats(1.0, 40.0),
    )
    @settings(max_examples=200)
    def test_bounds_and_budget_identity(self, n, m, budget):
        cost = CostModel.from_budget_quadrants(0.0625, budget, 5e-5, 3e-3)
        area = m * 0.0625
        q = categorization_fraction(cost, area, n)
        assert 0.0 <= q <= 1.0
        total = spent(cost, area, n)
        if area + n * cost.count_ratio <= cost.budget_area:
            assert total <= 1.0 + 1e-12
            if 0.0 < q < 1.0:
                # interior q: slack below one categorization quantum
                assert 1.0 - total < cost.budget_coefficient * cost.categorize_ratio

    @given(n=st.integers(1, 2000), n2=st.integers(1, 2000))
    @settings(max_examples=100)
    def test_non_increasing_in_count(self, n, n2):
        lo, hi = sorted((n, n2))
        assert categorization_fraction(BASELINE_COST, 0.4375, hi) <= categorization_fraction(
            BASELINE_COST, 0.4375, lo
        )

    def test_monotone_in_area_and_budget(self):
        qs = [categorization_fraction(BASELINE_COST, m * 0.0625, 200) for m in range(13)]
        assert qs == sorted(qs, reverse=True)
        by_budget = [
            categorization_fraction(
                CostModel.from_budget_quadrants(0.0625, b, 5e-5, 3e-3), 0.4375, 200
            )
            for b in (8.0, 10.0, 12.0, 14.0)
        ]
        assert by_budget == sorted(by_budget)


def scalar_rule(cost, area, counts):
    """Scalar reference, independent of the package: budget q and floored
    n_bar, one count at a time in Python floats."""
    q = [budget_fraction(cost, area, int(n)) for n in counts]
    return np.array(q), np.array([math.floor(int(n) * qn) for n, qn in zip(counts, q)])


def array_rule(cost, area, counts):
    """q and n_bar over the counts ``counts`` from the rule's array core
    ``_categorized``, with q = 1 at n = 0 as ``budget_rule`` reports it, after
    checking them bit for bit against the list cores: the raw q against
    ``_fractions``, and q and n_bar against ``_categorized_list``."""
    n = np.array(counts, dtype=np.float64)
    q = np.empty_like(n)
    with np.errstate(over="ignore"):
        n_bar = _categorized(cost, area, n, q, np.empty_like(n))
    assert [x.hex() for x in _fractions(cost, area, counts)] == [x.hex() for x in q.tolist()]
    q = np.where(n > 0.0, q, 1.0)
    listed = _categorized_list(cost, area, counts)
    assert [x.hex() for x in listed[0]] == [x.hex() for x in q.tolist()]
    assert listed[1] == n_bar.tolist()
    return q, n_bar


def run_filled(cost, area, counts):
    """n_bar at each count of the range ``counts``, filled from the runs of
    ``_categorized_runs``, after checking that the runs tile the range."""
    n_bar, start = [], counts.start
    for stop, k in _categorized_runs(cost, area, counts.start, counts.stop):
        assert start < stop <= counts.stop
        n_bar += range(start, stop) if k is None else [k] * (stop - start)
        start = stop
    assert start == counts.stop
    return n_bar


class TestBudgetRule:
    def test_matches_scalar_reference(self):
        counts = [0, 1, 5, 50, 102, 103, 167, 280, 1000, 6250, 100_000]
        q, n_bar = array_rule(BASELINE_COST, 0.4375, counts)
        ref_q, ref_n_bar = scalar_rule(BASELINE_COST, 0.4375, counts)
        assert np.array_equal(q, ref_q)  # exact, not approximate
        assert np.array_equal(n_bar, ref_n_bar)

    @given(
        area=st.floats(0.01, 1.0),
        budget=st.floats(1.0, 40.0),
        r1=st.floats(0.0, 1e-3),
        r2=st.floats(1e-4, 1e-1),
        m=st.integers(0, 40),
        counts=st.lists(st.integers(0, 50_000), min_size=1, max_size=50),
    )
    @settings(max_examples=200)
    def test_matches_scalar_reference_random_models(self, area, budget, r1, r2, m, counts):
        cost = CostModel.from_budget_quadrants(area, budget, r1, r2)
        q, n_bar = array_rule(cost, m * area, counts)
        ref_q, ref_n_bar = scalar_rule(cost, m * area, counts)
        assert np.array_equal(q, ref_q)
        assert np.array_equal(n_bar, ref_n_bar)
        assert np.all(n_bar <= np.asarray(counts))
        assert [categorization_fraction(cost, m * area, n) for n in counts] == list(ref_q)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match=r"^n must be finite and >= 0, got -1$"):
            budget_rule(BASELINE_COST, 0.4375, -1)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_counts(self, n):
        with pytest.raises(ValueError, match=r"^n must be finite and >= 0, got -?(nan|inf)$"):
            budget_rule(BASELINE_COST, 0.4375, n)

    @pytest.mark.parametrize(
        "counts,name",
        [([3.0, math.nan], "list"), ([math.inf, 2.0], "list"), ([3, -1], "list"),
         ((3, 4), "tuple"), (np.array([3.0, 4.0]), "ndarray"), (np.array([3.0]), "ndarray")],
    )
    def test_refuses_an_array_or_a_list(self, counts, name):
        # the rule takes one count; its array core is cost._categorized
        with pytest.raises(TypeError, match=rf"^n must be one count, got {name}$"):
            budget_rule(BASELINE_COST, 0.4375, counts)
        with pytest.raises(TypeError, match=rf"^n must be one count, got {name}$"):
            categorization_fraction(BASELINE_COST, 0.4375, counts)

    def test_takes_one_numpy_scalar(self):
        expected = budget_rule(BASELINE_COST, 0.4375, 167)
        assert expected == (0.6070858283433134, 101)
        for n in (np.int64(167), np.float64(167.0), np.array(167.0)):
            got = budget_rule(BASELINE_COST, 0.4375, n)
            assert got == expected and type(got[0]) is float and type(got[1]) is int

    @pytest.mark.parametrize("area", [math.nan, math.inf])
    def test_rejects_non_finite_area(self, area):
        with pytest.raises(ValueError, match=r"total_area .*(nan|inf)"):
            budget_rule(BASELINE_COST, area, 3)

    @given(
        budget=st.floats(1.0, 40.0),
        m=st.integers(0, 40),
        counts=st.lists(st.integers(0, 50_000), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_scalar_form_matches_array_form(self, budget, m, counts):
        cost = CostModel.from_budget_quadrants(0.0625, budget, 5e-5, 3e-3)
        q, n_bar = array_rule(cost, m * 0.0625, counts)
        ref_q, ref_n_bar = scalar_rule(cost, m * 0.0625, counts)
        scalar = [budget_rule(cost, m * 0.0625, n) for n in counts]
        assert all(type(qn) is float and type(nb) is int for qn, nb in scalar)
        assert [qn for qn, _ in scalar] == list(q) == list(ref_q)
        assert [nb for _, nb in scalar] == list(n_bar) == list(ref_n_bar)

    @given(
        budget_coefficient=st.floats(1e-300, 1e300),
        r1=st.one_of(st.just(0.0), st.floats(5e-324, 1e308)),
        r2=st.floats(5e-324, 1e308),
        area=st.floats(0.0, 1e300),
        counts=st.lists(st.one_of(st.integers(0, 2**53), st.floats(0.0, 1e300)),
                        min_size=1, max_size=20),
    )
    @settings(max_examples=300)
    @example(1.0, 1e308, 1.0, 0.0, [2])  # n * r1 overflows: q = 0
    @example(1.0, 0.0, 5e-324, 0.0, [3])  # the quotient overflows: q = 1
    def test_list_core_has_the_array_core_bits(self, budget_coefficient, r1, r2, area, counts):
        # the design's list walk and its array walk must agree bit for bit,
        # also where the rule saturates past the largest float
        cost = CostModel(1.0, budget_coefficient, r1, r2)
        n = np.array(counts, dtype=np.float64)
        q = np.empty_like(n)
        with np.errstate(over="ignore"):
            n_bar = _categorized(cost, area, n, q, np.empty_like(n))
        fractions = _fractions(cost, area, counts)
        assert [x.hex() for x in fractions] == [x.hex() for x in q.tolist()]
        assert [math.floor(k * x) for k, x in zip(counts, fractions)] == n_bar.tolist()
        reported = [x if k else 1.0 for k, x in zip(counts, fractions)]  # q = 1 at n = 0
        assert _categorized_list(cost, area, counts) == (reported, n_bar.tolist())

    @given(
        budget_coefficient=st.floats(1e-300, 1e300),
        r1=st.one_of(st.just(0.0), st.floats(5e-324, 1e308)),
        r2=st.floats(5e-324, 1e308),
        area=st.floats(0.0, 1e300),
        place=st.floats(0.0, 2.0),
        length=st.integers(1, 3000),
    )
    @settings(max_examples=300)
    # r1 = 0, B = 12, m = 5: v = 99.99999999999999, and floor(n*q) = 100 at
    # some counts, which only the guard band keeps
    @example(1.0 / 0.75, 0.0, 0.004375, 0.3125, 1.0, 3000)
    # r1 = 5e-5: v crosses whole numbers, within rounding, at whole counts
    @example(1.0 / 0.75, 5e-5, 3e-3, 0.4375, 1.0, 3000)
    @example(1.0, 1e-300, 1.0, 0.0, 1.0, 100)  # n*r1 is subnormal
    @example(1.0, 0.0, 5e-324, 0.0, 1.0, 100)  # n*r2 is subnormal
    def test_runs_are_the_rule_at_every_count(
        self, budget_coefficient, r1, r2, area, place, length
    ):
        # the list walk's n_bar by runs is floor(n*q) at every count of a
        # chunk; the chunk starts at ``place`` times the count where q leaves 1
        cost = CostModel(1.0, budget_coefficient, r1, r2)
        residual = cost.budget_area - area
        full = residual / (r1 + r2) if residual > 0.0 else 0.0
        lo = min(int(min(full, 2.0**52) * place), 2**53 - length)  # counts below 2**53
        counts = range(lo, lo + length)
        expected = [math.floor(n * q) for n, q in zip(counts, _fractions(cost, area, counts))]
        assert run_filled(cost, area, counts) == expected

    @given(
        quadrant_area=st.sampled_from((0.01, 0.0625, 0.1, 0.25)),
        budget=st.one_of(st.integers(1, 200), st.floats(1.0, 200.0)),
        m=st.integers(0, 200),
        r1=st.one_of(st.sampled_from((0.0, 5e-5, 2e-4)), st.floats(1e-12, 1e-2)),
        r2=st.one_of(st.integers(1, 10_000).map(lambda k: float(f"{k}e-5")),
                     st.floats(1e-6, 10.0)),
        place=st.floats(0.5, 3.0),
        length=st.integers(1, 3000),
    )
    @settings(max_examples=300)
    def test_runs_at_design_scale(self, quadrant_area, budget, m, r1, r2, place, length):
        # where the middle band's runs are many and narrow, and v often
        # crosses a whole number at a whole count
        cost = CostModel.from_budget_quadrants(quadrant_area, budget, r1, r2)
        area = min(m, cost.max_quadrants) * quadrant_area
        lo = int((cost.budget_area - area) / (r1 + r2) * place)
        counts = range(lo, lo + length)
        expected = [math.floor(n * q) for n, q in zip(counts, _fractions(cost, area, counts))]
        assert run_filled(cost, area, counts) == expected

    @given(
        a=st.integers(0, 10**6),
        width=st.integers(0, 100),
        turn=st.floats(0.0, 1.0),
        offset=st.one_of(st.floats(-5.0, 110.0), st.sampled_from((math.nan, math.inf, -math.inf))),
    )
    @settings(max_examples=100)
    def test_band_ends_are_the_bisections(self, a, width, turn, offset):
        # the first count of a band, from a guess that is right, off by any
        # amount or no number at all, is the bisection's; a right guess
        # costs two calls of the rule
        b = a + width
        first = a + round(turn * width)
        asked = []

        def key(n):
            asked.append(n)
            return n >= first

        assert _first_where(key, a, b, a + offset) == first
        assert all(a <= n < b for n in asked)
        asked.clear()
        assert _first_where(key, a, b, float(first)) == first and len(asked) <= 2

    @pytest.mark.xfail(
        strict=False,
        raises=AssertionError,
        reason="floor(n*q) rounds n*q = residual/r2 just below a whole number",
    )
    @pytest.mark.parametrize(
        "m,n,budget", [(7, 190, "12"), (5, 590, "12"), (0, 180, "6"), (0, 2000, "4")]
    )
    def test_whole_residual_fully_spent(self, m, n, budget):
        # Known defect, not fixed yet: when the residual budget buys a whole
        # number of categorizations, floor(n*q) in floating point loses one.
        area, r1, r2 = Fraction("0.0625"), Fraction("5e-5"), Fraction("3e-3")
        residual = Fraction(budget) * area - (m * area + n * r1)
        affordable = residual // r2
        assert residual % r2 == 0 and 0 < affordable < n
        cost = CostModel.from_budget_quadrants(0.0625, float(budget), 5e-5, 3e-3)
        _, n_bar = budget_rule(cost, m * 0.0625, n)
        assert n_bar == affordable


# the baseline cost section as a config writes it
DECIMAL_COST = {
    "quadrant_area": 0.0625, "budget_quadrant_equivalents": 12, "count_ratio": 5e-5,
    "categorize_ratio": 3e-3,
}


class TestDecimalOracle:
    """``oracles.decimal_categorized_count``: n_bar decided exactly for the
    decimals that the config wrote."""

    @pytest.mark.parametrize(
        "m,n,budget,expected", [(7, 190, 12, 101), (5, 590, 12, 136), (0, 180, 6, 122),
                                (0, 2000, 4, 50), (1, 1000, 3, 25)],
        ids=["m7-n190-b12", "m5-n590-b12", "m0-n180-b6", "m0-n2000-b4", "seed-1-example"],
    )
    def test_whole_residual_is_spent(self, m, n, budget, expected):
        # the residual buys a whole number of categorizations, which the
        # decimal budget spends exactly, to no slack; the rows of
        # test_whole_residual_fully_spent, and the example that fails
        # test_bounds_and_budget_identity on hypothesis seed 1
        cost = {**DECIMAL_COST, "budget_quadrant_equivalents": budget}
        assert decimal_categorized_count(cost, m, n) == expected
        area, r1, r2 = Fraction("0.0625"), Fraction("5e-5"), Fraction("3e-3")
        assert budget * area == m * area + n * r1 + expected * r2

    def test_ends_of_the_rule(self):
        assert decimal_categorized_count(DECIMAL_COST, 7, 0) == 0
        assert decimal_categorized_count(DECIMAL_COST, 7, 50) == 50  # q = 1: n_bar = n
        assert decimal_categorized_count(DECIMAL_COST, 12, 10) == 0  # sampling spends it all
        assert decimal_categorized_count(DECIMAL_COST, 7, 10**6) == 0  # counting overspends

    @given(
        budget=st.integers(1, 60),
        m=st.integers(0, 60),
        r1=st.integers(0, 200).map(lambda k: float(f"{k}e-6")),
        r2=st.integers(1, 10_000).map(lambda k: float(f"{k}e-6")),
        n=st.integers(0, 50_000),
    )
    @settings(max_examples=300)
    def test_is_the_float_rule_away_from_whole_residuals(self, budget, m, r1, r2, n):
        # the float rule's residual/r2 lies far within 1e-9 * (W/r2 + n + 1) of
        # the exact v, W = B*A + n*r1 (see cost._categorized_runs), so the two
        # agree wherever v lies that far from every whole number
        section = {**DECIMAL_COST, "budget_quadrant_equivalents": budget, "count_ratio": r1,
                   "categorize_ratio": r2}
        m = min(m, budget)
        area, a1, a2 = Fraction("0.0625"), Fraction(repr(r1)), Fraction(repr(r2))
        v = (budget * area - (m * area + n * a1)) / a2  # the categorizations the residual buys
        assume(abs(v - round(v)) > 1e-9 * ((budget * area + n * a1) / a2 + n + 1))
        cost = CostModel.from_budget_quadrants(0.0625, float(budget), r1, r2)
        assert budget_rule(cost, m * 0.0625, n)[1] == decimal_categorized_count(section, m, n)


class TestFeasibleDesigns:
    """The feasible set 0 .. ``max_quadrants`` that the design curve walks."""

    @pytest.mark.parametrize("budget,expected_max", [(12.0, 12), (8.0, 8), (14.0, 14)])
    def test_budget_quadrant_range(self, budget, expected_max):
        rows = optimize_design(baseline_config(budget=budget)).curve.rows
        assert [row.m for row in rows] == list(range(expected_max + 1))

    @given(budget=st.floats(1.0, 50.0), area=st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_max_area_brackets_budget(self, budget, area):
        cost = CostModel.from_budget_quadrants(area, budget, 5e-5, 3e-3)
        m_max = cost.max_quadrants
        assert m_max * area <= cost.budget_area * (1 + 1e-12)
        assert cost.budget_area < (m_max + 1) * area * (1 + 1e-12)

    @given(budget=st.integers(1, 200), area=st.floats(1e-4, 10.0))
    @settings(max_examples=300)
    def test_whole_budget_affords_exactly_that_many_quadrants(self, budget, area):
        cost = CostModel.from_budget_quadrants(area, float(budget), 5e-5, 3e-3)
        assert cost.max_quadrants == budget

    @pytest.mark.parametrize("area", [0.01, 0.02, 0.03, 0.05, 0.0625, 0.1, 0.2, 0.25, 0.5])
    def test_whole_budget_grid(self, area):
        for budget in range(1, 60):
            cost = CostModel.from_budget_quadrants(area, float(budget), 5e-5, 3e-3)
            assert cost.max_quadrants == budget, (area, budget)


class TestCostModelInvariants:
    """Properties of the normalized cost model over random (A, B, r1, r2, m, n)."""

    @given(
        area=st.floats(0.01, 1.0),
        budget=st.floats(1.0, 40.0),
        r1=st.floats(0.0, 1e-3),
        r2=st.floats(1e-4, 1e-1),
        m=st.integers(0, 40),
        n=st.integers(0, 50_000),
    )
    @settings(max_examples=500)
    # a budget spent exactly, whose reported slack rounds to -2^-52
    @example(area=0.05, budget=13.0, r1=0.0, r2=0.05, m=1, n=18)
    def test_within_budget_whenever_counting_fits(self, area, budget, r1, r2, m, n):
        cost = CostModel.from_budget_quadrants(area, budget, r1, r2)
        m = min(m, cost.max_quadrants)
        assume(m * area + n * r1 <= cost.budget_area)
        # A budget spent exactly can round up by an ulp or two; the five
        # roundings of c * (mA + r1 n + r2 n_bar) bound that by 4 ulp.
        assert _budget_split(cost, m * area, n)[1]["slack"] >= -4 * math.ulp(1.0)

    @given(
        area=st.floats(0.01, 1.0),
        budget=st.floats(1.0, 40.0),
        shape=st.floats(0.1, 50.0),
        rate=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=300)
    def test_l1_strictly_decreasing_in_m(self, area, budget, shape, rate):
        cost = CostModel.from_budget_quadrants(area, budget, 5e-5, 3e-3)
        prior = GammaParams(shape, rate)
        l1 = [l1_expected(m, prior, area) for m in range(cost.max_quadrants + 1)]
        assert l1[0] == 1.0
        assert all(a > b for a, b in zip(l1, l1[1:]))

    @given(
        area=st.floats(0.01, 1.0),
        raw=st.tuples(
            st.integers(1, 10**6),  # sampling one m^2
            st.integers(0, 10**4),  # counting one particle
            st.integers(1, 10**5),  # categorizing one particle
            st.integers(1, 10**7),  # budget
        ),
        factor=st.integers(2, 10**6),
        m=st.integers(0, 40),
        counts=st.lists(st.integers(0, 50_000), min_size=1, max_size=20),
    )
    @settings(max_examples=300)
    def test_rescaling_raw_costs_changes_nothing(self, area, raw, factor, m, counts):
        # integer costs times an integer factor stay exact, so every ratio is
        # the same real number and rounds to the same double
        sample, count, categorize, budget = raw
        assume(sample * area <= budget)  # at least one quadrant affordable
        base = CostModel.from_raw_costs(area, sample, count, categorize, budget)
        scaled = CostModel.from_raw_costs(
            area, factor * sample, factor * count, factor * categorize, factor * budget
        )
        assert scaled == base
        assert scaled.max_quadrants == base.max_quadrants
        m = min(m, base.max_quadrants)
        for a, b in zip(array_rule(base, m * area, counts), array_rule(scaled, m * area, counts)):
            assert np.array_equal(a, b)
        for n in counts:
            assert budget_rule(base, m * area, n) == budget_rule(scaled, m * area, n)
