"""Seeded inputs for each workload, as a list of CLI invocations per pass.

Every pass of a workload holds the same mix of work for any seed (the seed
picks values within fixed strata and the order), so medians from different
seeds measure the same thing.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import reference
from reference import Scenario

WORKLOADS = ("design-sweep", "posterior-batch", "replicate-designs")

DRAWS = 100_000
QUADRANT_AREA = 0.0625
COUNT_RATIO = 5e-5
CATEGORIZE_RATIO = 3e-3
CLASSES = 10
PRIOR_SHAPE = 3.0
PRIOR_MODES = (200.0, 800.0)
BUDGETS = (8.0, 12.0, 14.0, 20.0)
R2_MULTIPLIERS = (1.0, 2.0, 1000.0)
# Sensitivity sweeps: (axis, values, base prior mode, base r2 multiplier).
SWEEPS = (
    ("r2", R2_MULTIPLIERS, 800.0, 1.0),
    ("budget", BUDGETS, 200.0, 2.0),
    ("prior-mode", PRIOR_MODES, 200.0, 1.0),
)

HPD_MASSES = (0.5, 0.9, 0.95, 0.99)
CAMPAIGNS_PER_PASS = 16
GRID_POINTS = 2000
MAX_TOTAL_COUNT = 3000
POSTERIOR_AREAS = (0.0625, 0.1, 0.25)
# Campaigns 0 and 9 use a prior with shape <= 1 and see zero counts, so the
# posterior density is monotone and the HPD interval is left-anchored.
LEFT_ANCHORED = {0: 0.5, 9: 1.0}
LEFT_ANCHORED_RATE = 0.01
# The program writes NumPy scalars in CSV as `np.float64(...)` under NumPy 2,
# so CSV density grids and the fig5/fig6 bundles fail their checks at this
# commit. JSON renders the same values as numbers, and fig1-fig4 hold no
# NumPy scalars; see README.md.
POSTERIOR_FORMAT = "json"
REPLICATE_FIGURES = ("fig1", "fig2", "fig3", "fig4")

OUT_DIR = "{out_dir}"  # replaced by a fresh directory on every invocation


@dataclass
class Invocation:
    """One command line plus the checker for its output."""

    kind: str
    args: list[str]
    check: Callable[[str, str | None], float]  # (stdout, out_dir) -> max |L* err|
    subject: object = None  # the generated input the check compares against
    design_points: int = 0
    campaigns: int = 0

    @property
    def needs_out_dir(self) -> bool:
        return OUT_DIR in self.args

    def argv(self, out_dir: str | None) -> list[str]:
        return [out_dir if a == OUT_DIR else a for a in self.args]


@dataclass(frozen=True)
class Campaign:
    prior_shape: float
    prior_rate: float
    class_gamma: float
    quadrant_area: float
    counts: tuple[int, ...]
    class_counts: dict | None
    mass: float
    grid_points: int


@dataclass
class Workload:
    name: str
    invocations: list[Invocation] = field(default_factory=list)  # one pass
    # In-process runs of each invocation per pass. The first run after a fresh
    # process meets cold CPU caches, which moves a 40 ms `posterior` by a
    # third; repeats keep the median on warm runs.
    warm_repeats: int = 2


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _design_config(scenario_mode: float, budget: float, r2: float, seed: int) -> dict:
    return {
        "abundance_prior": {"shape": PRIOR_SHAPE, "mode": scenario_mode},
        "composition_prior": {"classes": CLASSES, "symmetric_gamma": 1.0},
        "cost": {
            "quadrant_area": QUADRANT_AREA,
            "budget_quadrant_equivalents": budget,
            "count_ratio": COUNT_RATIO,
            "categorize_ratio": CATEGORIZE_RATIO * r2,
        },
        "mc": {"draws": DRAWS, "seed": seed},
    }


def _scenario(mode: float, budget: float, r2: float) -> Scenario:
    return reference.study_scenario(mode, budget, r2, DRAWS)


def design_sweep(seed: int, work_dir: str) -> Workload:
    """`design` on one config per (prior mode, budget) stratum, plus one
    `sensitivity` sweep along each axis. The r2 multipliers rotate over the
    strata, so every seed runs the same configs; the seed draws each Monte
    Carlo seed and the order."""
    rng = random.Random(seed)
    invocations = []
    for i, mode in enumerate(PRIOR_MODES):
        for j, budget in enumerate(BUDGETS):
            r2 = R2_MULTIPLIERS[(i + j) % len(R2_MULTIPLIERS)]
            path = os.path.join(work_dir, f"design_{int(mode)}_{int(budget)}.json")
            _write_json(path, _design_config(mode, budget, r2, rng.randrange(2**32)))
            scenario = _scenario(mode, budget, r2)
            invocations.append(
                Invocation(
                    "design",
                    ["--config", path, "design"],
                    lambda out, _d, s=scenario: checks.check_design(out, s),
                    scenario,
                    design_points=len(scenario.feasible),
                )
            )
    for axis, values, mode, r2 in SWEEPS:
        path = os.path.join(work_dir, f"sensitivity_{axis}.json")
        _write_json(path, _design_config(mode, 12.0, r2, rng.randrange(2**32)))
        scenario = _scenario(mode, 12.0, r2)
        points = sum(len(checks.apply_axis(scenario, axis, v).feasible) for v in values)
        invocations.append(
            Invocation(
                "sensitivity",
                ["--config", path, "sensitivity", "--axis", axis,
                 "--values", ",".join(f"{v:g}" for v in values)],
                lambda out, _d, s=scenario, a=axis, v=values: checks.check_sensitivity(out, s, a, v),
                scenario,
                design_points=points,
            )
        )
    rng.shuffle(invocations)
    return Workload("design-sweep", invocations)


def _spread(total: int, m: int, rng: random.Random) -> list[int]:
    counts = [0] * m
    for _ in range(total):
        counts[rng.randrange(m)] += 1
    return counts


def _campaign_csv(campaign: Campaign) -> str:
    lines = ["# schema_version: 1", "quadrant_id,suspected_count"]
    lines += [f"q{j + 1},{c}" for j, c in enumerate(campaign.counts)]
    if campaign.class_counts is not None:
        lines.append("class_name,categorized_count")
        lines += [f"{name},{c}" for name, c in campaign.class_counts.items()]
    return "\n".join(lines) + "\n"


def _make_campaign(index: int, rng: random.Random) -> Campaign:
    m = rng.randint(1, 20)
    area = rng.choice(POSTERIOR_AREAS)
    if index in LEFT_ANCHORED:
        shape, rate, total = LEFT_ANCHORED[index], LEFT_ANCHORED_RATE, 0
    else:
        shape = rng.choice((2.0, 3.0, 5.0))
        rate = (shape - 1.0) / rng.choice(PRIOR_MODES)
        total = int(math.exp(rng.uniform(0.0, math.log(MAX_TOTAL_COUNT + 1)))) - 1
    classes = None
    if index % 2 == 1:
        names = rng.sample(checks.DEFAULT_CLASS_NAMES, rng.randint(1, 6))
        categorized = rng.randint(0, total)
        split = _spread(categorized, len(names), rng)
        classes = dict(zip(names, split))
    return Campaign(
        prior_shape=shape,
        prior_rate=rate,
        class_gamma=rng.choice((0.5, 1.0)),
        quadrant_area=area,
        counts=tuple(_spread(total, m, rng)),
        class_counts=classes,
        mass=HPD_MASSES[index % len(HPD_MASSES)],
        grid_points=GRID_POINTS,
    )


def posterior_batch(seed: int, work_dir: str) -> Workload:
    """`--format json posterior --density-grid` on generated campaign files:
    1-20 quadrants, totals up to a few thousand, half with a class section,
    two left-anchored."""
    rng = random.Random(seed)
    invocations = []
    for index in range(CAMPAIGNS_PER_PASS):
        campaign = _make_campaign(index, rng)
        config = {
            "abundance_prior": {"shape": campaign.prior_shape, "rate": campaign.prior_rate},
            "composition_prior": {"classes": CLASSES, "symmetric_gamma": campaign.class_gamma},
            "cost": {
                "quadrant_area": campaign.quadrant_area,
                "budget_quadrant_equivalents": 12,
                "count_ratio": COUNT_RATIO,
                "categorize_ratio": CATEGORIZE_RATIO,
            },
        }
        config_path = _write_json(os.path.join(work_dir, f"campaign{index}.json"), config)
        data_path = os.path.join(work_dir, f"campaign{index}.csv")
        with open(data_path, "w", encoding="utf-8") as fh:
            fh.write(_campaign_csv(campaign))
        invocations.append(
            Invocation(
                "posterior",
                ["--config", config_path, "--format", POSTERIOR_FORMAT, "posterior",
                 "--data", data_path, "--hpd-mass", repr(campaign.mass), "--density-grid",
                 "--grid-points", str(campaign.grid_points)],
                lambda out, _d, c=campaign: checks.check_posterior(out, c, POSTERIOR_FORMAT),
                campaign,
                campaigns=1,
            )
        )
    rng.shuffle(invocations)
    return Workload("posterior-batch", invocations, warm_repeats=3)


def replicate_designs(seed: int, work_dir: str) -> Workload:
    """`replicate --figure <id>` for each design figure, each into a fresh
    directory. The command takes no input, so the seed only orders the
    figures; a figure's manifest must be identical on every invocation of a
    run."""
    rng = random.Random(seed)
    invocations = []
    for figure in REPLICATE_FIGURES:
        manifests: list[bytes] = []
        points = sum(
            len(reference.study_scenario(mode, budget, r2, DRAWS).feasible)
            for tag, mode, budget, r2 in reference.REPLICATE_DESIGNS
            if tag.startswith(figure + "_")
        )
        invocations.append(
            Invocation(
                "replicate",
                ["replicate", "--figure", figure, "--out-dir", OUT_DIR],
                lambda out, d, f=figure, ms=manifests: checks.check_replicate(d, out, ms, f),
                design_points=points,
            )
        )
    rng.shuffle(invocations)
    return Workload("replicate-designs", invocations)


BUILDERS = {
    "design-sweep": design_sweep,
    "posterior-batch": posterior_batch,
    "replicate-designs": replicate_designs,
}


def build(name: str, seed: int, work_dir: str) -> Workload:
    return BUILDERS[name](seed, work_dir)
