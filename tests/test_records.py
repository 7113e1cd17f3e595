"""The package's value types as immutable records.

Each of the ten types is built positionally and by keyword, refuses bad
fields with the messages it has always given, refuses assignment and
deletion, compares and hashes by its field tuple (``DesignResult`` leaves its
``budget_split`` dict out of the hash, and ``CampaignData`` holding a dict is
unhashable), prints as ``Type(field=value, ...)``, matches by position, and
survives ``pickle``, ``copy.copy`` and ``copy.deepcopy``.
"""

import copy
import math
import pickle
import re

import pytest

from mpdesign.config import DesignConfig, LoadedConfig
from mpdesign.cost import CostModel
from mpdesign.design import DesignCurve, DesignCurveRow, DesignResult
from mpdesign.distributions import DirichletParams, GammaParams
from mpdesign.io import CampaignData
from mpdesign.posterior import CategorizationCounts, FieldObservations

GAMMA = GammaParams(28.0, 0.3225)
DIRICHLET = DirichletParams((1.0, 2.5))
COST = CostModel(0.0625, 1.5, 5e-05, 0.003)
OBSERVATIONS = FieldObservations(0.0625, (3, 4))
CATEGORIZED = CategorizationCounts((2, 1))
DESIGN_CONFIG = DesignConfig(GAMMA, DIRICHLET, COST)
ROW = DesignCurveRow(0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0)
CURVE = DesignCurve((ROW,))

# (type, its field names, field values, repr of the value they build)
CASES = [
    (GammaParams, ("shape", "rate"), (28.0, 0.3225),
     "GammaParams(shape=28.0, rate=0.3225)"),
    (DirichletParams, ("concentration",), ((1.0, 2.5),),
     "DirichletParams(concentration=(1.0, 2.5))"),
    (CostModel, ("quadrant_area", "budget_coefficient", "count_ratio", "categorize_ratio"),
     (0.0625, 1.5, 5e-05, 0.003),
     "CostModel(quadrant_area=0.0625, budget_coefficient=1.5, count_ratio=5e-05, "
     "categorize_ratio=0.003)"),
    (FieldObservations, ("quadrant_area", "counts"), (0.0625, (3, 4)),
     "FieldObservations(quadrant_area=0.0625, counts=(3, 4))"),
    (CategorizationCounts, ("class_counts",), ((2, 1),),
     "CategorizationCounts(class_counts=(2, 1))"),
    (CampaignData, ("observations", "class_counts"), (OBSERVATIONS, {"PE": 2, "PP": 1}),
     "CampaignData(observations=FieldObservations(quadrant_area=0.0625, counts=(3, 4)), "
     "class_counts={'PE': 2, 'PP': 1})"),
    (DesignConfig, ("abundance_prior", "composition_prior", "cost"), (GAMMA, DIRICHLET, COST),
     "DesignConfig(abundance_prior=GammaParams(shape=28.0, rate=0.3225), "
     "composition_prior=DirichletParams(concentration=(1.0, 2.5)), "
     "cost=CostModel(quadrant_area=0.0625, budget_coefficient=1.5, count_ratio=5e-05, "
     "categorize_ratio=0.003))"),
    (LoadedConfig, ("design", "class_names", "budget_quadrant_equivalents"),
     (DESIGN_CONFIG, ("PE", "PP"), 8.0),
     "LoadedConfig(design=DesignConfig(abundance_prior=GammaParams(shape=28.0, rate=0.3225), "
     "composition_prior=DirichletParams(concentration=(1.0, 2.5)), "
     "cost=CostModel(quadrant_area=0.0625, budget_coefficient=1.5, count_ratio=5e-05, "
     "categorize_ratio=0.003)), class_names=('PE', 'PP'), budget_quadrant_equivalents=8.0)"),
    (DesignCurve, ("rows",), ((ROW,),),
     "DesignCurve(rows=(DesignCurveRow(m=0, area=0.0, l1_star=1.0, e_l2_star=1.0, "
     "e_l2_se=0.0, l_star=1.0, l_star_se=0.0),))"),
    (DesignResult, ("m_star", "curve", "typical_n", "typical_n_bar", "budget_split"),
     (0, CURVE, 5, 3, {"slack": 0.25}),
     "DesignResult(m_star=0, curve=DesignCurve(rows=(DesignCurveRow(m=0, area=0.0, "
     "l1_star=1.0, e_l2_star=1.0, e_l2_se=0.0, l_star=1.0, l_star_se=0.0),)), typical_n=5, "
     "typical_n_bar=3, budget_split={'slack': 0.25})"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_positional_and_keyword_construction(case):
    cls, names, values, _ = case
    value = cls(*values)
    assert value == cls(**dict(zip(names, values)))
    assert tuple(getattr(value, name) for name in names) == values
    assert cls.__slots__ == cls.__match_args__ == names


def test_repr(case):
    cls, _, values, text = case
    assert repr(cls(*values)) == text


def test_assignment_and_deletion_refused(case):
    cls, names, values, _ = case
    value = cls(*values)
    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, names[0]) == values[0]


def test_equality_by_class_and_fields(case):
    cls, _, values, _ = case
    value = cls(*values)
    assert value == cls(*copy.deepcopy(values))
    assert value != values
    assert value.__eq__(values) is NotImplemented


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    cls, _, values, _ = case
    value = cls(*values)
    again = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert type(again) is cls and again == value


def test_copy_round_trip(case):
    cls, _, values, _ = case
    value = cls(*values)
    for again in (copy.copy(value), copy.deepcopy(value)):
        assert type(again) is cls and again == value


def test_copies_are_built_through_the_checks(monkeypatch):
    # a copy is the class called on the fields, so its checks run again
    built = []
    init = GammaParams.__init__

    def counted(self, shape, rate):
        built.append((shape, rate))
        init(self, shape, rate)

    monkeypatch.setattr(GammaParams, "__init__", counted)
    copy.copy(GAMMA), copy.deepcopy(GAMMA), pickle.loads(pickle.dumps(GAMMA))
    assert built == [(28.0, 0.3225)] * 3


def test_match_by_position():
    match DESIGN_CONFIG:
        case DesignConfig(GammaParams(shape, rate), _, CostModel(area, _, _, _)):
            assert (shape, rate, area) == (28.0, 0.3225, 0.0625)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize(
    "case", [c for c in CASES if c[0] not in (CampaignData, DesignResult)],
    ids=[i for i in IDS if i not in ("CampaignData", "DesignResult")],
)
def test_hash_is_the_hash_of_the_fields(case):
    cls, _, values, _ = case
    assert hash(cls(*values)) == hash(values)


def test_design_result_hash_leaves_out_the_budget_split():
    a = DesignResult(0, CURVE, 5, 3, {"slack": 0.25})
    same = DesignResult(0, CURVE, 5, 3, {"slack": 0.25})
    other = DesignResult(0, CURVE, 5, 3, {"slack": 0.5})
    assert a == same and hash(a) == hash(same) == hash((0, CURVE, 5, 3))
    assert a != other and hash(a) == hash(other)
    assert a != DesignResult(1, CURVE, 5, 3, {"slack": 0.25})


def test_campaign_data_with_class_counts_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(CampaignData(OBSERVATIONS, {"PE": 2}))
    assert hash(CampaignData(OBSERVATIONS, None)) == hash((OBSERVATIONS, None))


def test_design_config_ignores_draws_and_seed():
    assert DesignConfig(GAMMA, DIRICHLET, COST, 500, 1) == DESIGN_CONFIG
    config = DesignConfig(GAMMA, DIRICHLET, COST, mc_draws=500, seed=1)
    assert config == DESIGN_CONFIG
    for name in ("mc_draws", "seed"):
        assert not hasattr(config, name)
        assert name not in DesignConfig.__match_args__


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: GammaParams(0.0, 1.0), "shape must be positive and finite, got 0.0"),
        (lambda: GammaParams(math.inf, 1.0), "shape must be positive and finite, got inf"),
        (lambda: GammaParams(1.0, -1.0), "rate must be positive and finite, got -1.0"),
        (lambda: GammaParams(1.0, math.nan), "rate must be positive and finite, got nan"),
        (lambda: DirichletParams((1.0,)), "need at least two classes"),
        (lambda: DirichletParams(2.0), "need at least two classes"),
        (lambda: DirichletParams("12"), "need at least two classes"),
        (lambda: DirichletParams((1.0, 0.0)),
         "all concentration parameters must be positive and finite"),
        (lambda: DirichletParams((1e308, 1e308)),
         "total concentration (the sum of the parameters) must be finite"),
        (lambda: CostModel(math.nan, 1.5, 5e-5, 3e-3), "quadrant_area must be finite, got nan"),
        (lambda: CostModel(0.0625, math.inf, 5e-5, 3e-3),
         "budget_coefficient must be finite, got inf"),
        (lambda: CostModel(0.0625, 1.5, math.inf, 3e-3), "count_ratio must be finite, got inf"),
        (lambda: CostModel(0.0625, 1.5, 5e-5, math.nan),
         "categorize_ratio must be finite, got nan"),
        (lambda: CostModel(-0.0625, 1.5, 5e-5, 3e-3),
         "quadrant_area must be positive, got -0.0625"),
        (lambda: CostModel(0.0625, 0.0, 5e-5, 3e-3),
         "budget_coefficient must be positive, got 0.0"),
        (lambda: CostModel(0.0625, 1.5, -5e-5, 3e-3),
         "count_ratio must be nonnegative, got -5e-05"),
        (lambda: CostModel(0.0625, 1.5, 5e-5, -3e-3),
         "categorize_ratio must be positive, got -0.003"),
        (lambda: FieldObservations(0.0, (1,)),
         "quadrant_area must be positive and finite, got 0.0"),
        (lambda: FieldObservations(math.inf, (1,)),
         "quadrant_area must be positive and finite, got inf"),
        (lambda: FieldObservations(0.0625, ()), "need at least one quadrant"),
        (lambda: FieldObservations(0.0625, (1, -1)), "counts must be nonnegative"),
        (lambda: CategorizationCounts((1, -1)), "class counts must be nonnegative"),
    ],
)
def test_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_fields_are_normalized():
    assert DirichletParams([1, 2]).concentration == (1.0, 2.0)
    assert FieldObservations(0.0625, [3.0, 4]).counts == (3, 4)
    assert CategorizationCounts([2.0, 1]).class_counts == (2, 1)
