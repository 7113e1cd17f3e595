"""JSON configuration files for the CLI.

Schema (all sections required unless noted):

    {
      "abundance_prior":   {"shape": 3, "rate": 0.01}      # or {"shape": 3, "mode": 200}
      "composition_prior": {"gamma": [1, 1, ...]}          # or {"classes": 10, "symmetric_gamma": 1.0}
      "cost": {
        "quadrant_area": 0.0625,
        "budget_quadrant_equivalents": 12,
        "count_ratio": 5e-5,
        "categorize_ratio": 3e-3
      },
      "mc": {"draws": 100000, "seed": 20260825}            # legacy, optional; ignored
      "class_names": ["PE", ...]                           # optional, length k
    }

Unknown keys anywhere are rejected with an error naming the key; priors given
as (shape, mode) require shape > 1 and convert via rate = (shape - 1)/mode.
The legacy ``mc`` section is checked (draws an integer >= 1000, seed an
integer in [0, 2**64)) so that existing configs keep loading, and then
dropped: the design curve is an exact sum over the predictive count and reads
neither value.
"""

from __future__ import annotations

import json
import math
import sys

from ._record import Record
from .cost import CostModel
from .distributions import DirichletParams, GammaParams
from .io import _cut

__all__ = ["ConfigError", "DesignConfig", "LoadedConfig", "load_config", "parse_config"]

DEFAULT_CLASS_NAMES = ("PE", "PP", "PET", "PS", "PA", "PVC", "PU", "AC", "PES", "NPP")
_MAX_CLASSES = 10_000  # largest number of polymer classes k, in either form


class ConfigError(ValueError):
    """Invalid or malformed configuration file."""


class DesignConfig(Record):
    """Design inputs: the abundance prior, the composition prior and the cost
    model. The design curve is an exact sum, so ``mc_draws`` and ``seed``, which
    callers written for the Monte Carlo design may still pass, are accepted and
    ignored: they are not fields."""

    __slots__ = ("abundance_prior", "composition_prior", "cost")

    def __init__(
        self,
        abundance_prior: GammaParams,
        composition_prior: DirichletParams,
        cost: CostModel,
        mc_draws: int = 0,
        seed: int = 0,
    ):
        object.__setattr__(self, "abundance_prior", abundance_prior)
        object.__setattr__(self, "composition_prior", composition_prior)
        object.__setattr__(self, "cost", cost)


class LoadedConfig(Record):
    __slots__ = ("design", "class_names", "budget_quadrant_equivalents")

    def __init__(
        self,
        design: DesignConfig,
        class_names: tuple[str, ...],
        budget_quadrant_equivalents: float,
    ):
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "class_names", class_names)
        object.__setattr__(self, "budget_quadrant_equivalents", budget_quadrant_equivalents)

    def to_mapping(self) -> dict:
        cost = self.design.cost
        return {
            "abundance_prior": {
                "shape": self.design.abundance_prior.shape,
                "rate": self.design.abundance_prior.rate,
            },
            "composition_prior": {
                "gamma": list(self.design.composition_prior.concentration)
            },
            "cost": {
                "quadrant_area": cost.quadrant_area,
                "budget_quadrant_equivalents": self.budget_quadrant_equivalents,
                "count_ratio": cost.count_ratio,
                "categorize_ratio": cost.categorize_ratio,
            },
            "class_names": list(self.class_names),
        }


def _require_keys(obj: dict, section: str, allowed: set[str], required: set[str]):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {_cut(key)!r} in section {section!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key {key!r} in section {section!r}")


def _finite_number(value, where: str) -> float:
    # abs(value) compares an int exactly, so one past the largest float is refused
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {_cut(repr(value))}")
    return float(value)


def _positive_number(value, where: str) -> float:
    value = _finite_number(value, where)
    if not value > 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return value


def _parse_abundance(obj) -> GammaParams:
    _require_keys(obj, "abundance_prior", {"shape", "rate", "mode"}, {"shape"})
    has_rate, has_mode = "rate" in obj, "mode" in obj
    if has_rate == has_mode:
        raise ConfigError("abundance_prior needs exactly one of 'rate' or 'mode'")
    shape = _finite_number(obj["shape"], "abundance_prior.shape")
    key = "rate" if has_rate else "mode"
    value = _finite_number(obj[key], f"abundance_prior.{key}")
    try:
        return (GammaParams if has_rate else GammaParams.from_mode)(shape, value)
    except ValueError as exc:
        raise ConfigError(f"abundance_prior: {exc}") from exc


def _parse_composition(obj) -> DirichletParams:
    _require_keys(obj, "composition_prior", {"gamma", "classes", "symmetric_gamma"}, set())
    has_vector = "gamma" in obj
    has_symmetric = "classes" in obj or "symmetric_gamma" in obj
    if has_vector == has_symmetric:
        raise ConfigError(
            "composition_prior needs either 'gamma' or ('classes', 'symmetric_gamma')"
        )
    if has_vector:
        gamma = obj["gamma"]
        if not isinstance(gamma, list) or not 2 <= len(gamma) <= _MAX_CLASSES:
            raise ConfigError(
                f"composition_prior.gamma must be a list of k >= 2 numbers, at most {_MAX_CLASSES}"
            )
        concentration = tuple(
            _positive_number(g, f"composition_prior.gamma[{i}]") for i, g in enumerate(gamma)
        )
    else:
        _require_keys(obj, "composition_prior", {"classes", "symmetric_gamma"},
                      {"classes", "symmetric_gamma"})
        k = obj["classes"]
        if not isinstance(k, int) or not 2 <= k <= _MAX_CLASSES:
            raise ConfigError(
                f"composition_prior.classes must be an integer >= 2 and at most {_MAX_CLASSES}"
            )
        value = _positive_number(obj["symmetric_gamma"], "composition_prior.symmetric_gamma")
        concentration = (value,) * k
    try:
        return DirichletParams(concentration)
    except ValueError as exc:
        raise ConfigError(f"composition_prior: {exc}") from exc


def _parse_cost(obj) -> tuple[CostModel, float]:
    fields = {"quadrant_area", "budget_quadrant_equivalents", "count_ratio", "categorize_ratio"}
    _require_keys(obj, "cost", fields, fields)
    area = _finite_number(obj["quadrant_area"], "cost.quadrant_area")
    budget = _positive_number(
        obj["budget_quadrant_equivalents"], "cost.budget_quadrant_equivalents"
    )
    r1 = _finite_number(obj["count_ratio"], "cost.count_ratio")
    r2 = _finite_number(obj["categorize_ratio"], "cost.categorize_ratio")
    product = area * budget
    if area > 0 and not (0.0 < product < math.inf and 1.0 / product < math.inf):
        raise ConfigError(
            f"cost: quadrant_area {area!r} times budget_quadrant_equivalents {budget!r} is "
            f"{product!r}, whose reciprocal, the budget coefficient, is not positive and finite"
        )
    try:
        return CostModel.from_budget_quadrants(area, budget, r1, r2), budget
    except ValueError as exc:
        raise ConfigError(f"cost: {exc}") from exc


def _check_legacy_mc(obj) -> None:
    """Check a legacy ``mc`` section; its values are then dropped."""
    _require_keys(obj, "mc", {"draws", "seed"}, set())
    draws = obj.get("draws", 1000)
    if isinstance(draws, bool) or not isinstance(draws, int) or draws < 1000:
        raise ConfigError(f"mc.draws must be an integer >= 1000, got {_cut(repr(draws))}")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"mc.seed must be an integer in [0, 2**64), got {_cut(repr(seed))}")


def parse_config(doc: dict) -> LoadedConfig:
    _require_keys(
        doc,
        "<root>",
        {"abundance_prior", "composition_prior", "cost", "mc", "class_names"},
        {"abundance_prior", "composition_prior", "cost"},
    )
    abundance = _parse_abundance(doc["abundance_prior"])
    composition = _parse_composition(doc["composition_prior"])
    cost, budget = _parse_cost(doc["cost"])
    if "mc" in doc:
        _check_legacy_mc(doc["mc"])

    names = doc.get("class_names")
    if names is None:
        names = (
            DEFAULT_CLASS_NAMES
            if composition.k == len(DEFAULT_CLASS_NAMES)
            else tuple(f"class{i + 1}" for i in range(composition.k))
        )
    else:
        if (
            not isinstance(names, list)
            or len(names) != composition.k
            or len(set(names)) != len(names)
            or not all(isinstance(s, str) and s for s in names)
        ):
            raise ConfigError(
                f"class_names must be {composition.k} distinct nonempty strings"
            )
        names = tuple(names)

    design = DesignConfig(abundance_prior=abundance, composition_prior=composition, cost=cost)
    return LoadedConfig(design=design, class_names=names, budget_quadrant_equivalents=budget)


def load_config(path) -> LoadedConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is dropped
            doc = json.load(fh)
    except OSError as exc:  # its text repeats the path: only the reason is quoted
        raise ConfigError(f"cannot read config {_cut(str(path))}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past 4,300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(doc)
