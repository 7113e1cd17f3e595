"""Output checkers: each compares one command's output with the reference.

A checker raises :class:`OutputMismatch` naming the first disagreement, and
otherwise returns the largest |L* - reference| it saw (0.0 when the output
holds no design rows). Fields the checkers need are required; optional header
fields are checked only when present, so an output that adds columns or
drops a diagnostic line still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np
from scipy import stats

import reference
from reference import Scenario

# L* may differ from the reference by 5 Monte Carlo standard errors (floored
# for exact methods), and never by more than MAX_L_STAR_ERR.
SE_MULTIPLE = 5.0
MIN_TOLERANCE = 1e-9
MAX_L_STAR_ERR = 2e-3
HPD_MASS_TOL = 1e-6
REL_TOL = 1e-9
DEFAULT_CLASS_NAMES = ("PE", "PP", "PET", "PS", "PA", "PVC", "PU", "AC", "PES", "NPP")
REPLICATE_M_STAR = (7, 4, 6, 12, 5, 3, 8, 5)


class OutputMismatch(AssertionError):
    """An output disagrees with the reference.

    ``l_star_err`` carries the largest design-row error measured before the
    mismatch was found, so a failed check still reports it.
    """

    def __init__(self, message, l_star_err=0.0):
        super().__init__(message)
        self.l_star_err = l_star_err


def _require(condition, message):
    if not condition:
        raise OutputMismatch(message)


def _number(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise OutputMismatch(f"{where}: {text!r} is not a number") from None


def _close(a, b, rel=REL_TOL, abs_tol=0.0):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _split_comment_header(text: str):
    """('# key: value' lines as a dict, remaining CSV rows as dicts)."""
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif line:
            body.append(line)
    return header, list(csv.DictReader(io.StringIO("\n".join(body) + "\n")))


def _typical_window(point: reference.DesignPoint):
    width = max(3, int(0.02 * point.median_count))
    return range(max(0, point.median_count - width), point.median_count + width + 1)


def _check_typical(scenario: Scenario, point, n_bar_out: int, slack_out: float, n_out=None):
    """The typical count summary follows the budget rule at a count near the
    predictive median (the program takes the median of its own draws)."""
    area = point.m * scenario.quadrant_area
    candidates = _typical_window(point) if n_out is None else [n_out]
    _require(
        n_out is None or n_out in _typical_window(point),
        f"typical_n {n_out} far from the predictive median {point.median_count}",
    )
    budget_area = scenario.budget * scenario.quadrant_area
    for n in candidates:
        rule = float(reference.n_bar(n, scenario, area))
        if abs(rule - n_bar_out) > 1:  # floor of a product may round either way
            continue
        used = (area + scenario.count_ratio * n + scenario.categorize_ratio * n_bar_out) / budget_area
        if abs(1.0 - used - slack_out) <= 1e-9:
            return
    raise OutputMismatch(
        f"m={point.m}: typical n_bar {n_bar_out} / slack {slack_out!r} match no count "
        f"near the predictive median {point.median_count}"
    )


def _check_m_star(scenario: Scenario, m_out: int, tol_se: float):
    curve = reference.design_curve(scenario)
    by_m = {p.m: p for p in curve}
    _require(m_out in by_m, f"m_star {m_out} outside the feasible set")
    best = min(curve, key=lambda p: p.l_star)
    tol = max(SE_MULTIPLE * tol_se, MIN_TOLERANCE)
    _require(
        by_m[m_out].l_star - best.l_star <= tol,
        f"m_star {m_out} has reference L* {by_m[m_out].l_star!r}, "
        f"but m={best.m} has {best.l_star!r} (tolerance {tol:.3g})",
    )
    return by_m[m_out]


def check_design_rows(text: str, scenario: Scenario) -> float:
    """Design-curve CSV: the feasible set, every L*, and m*."""
    header, rows = _split_comment_header(text)
    curve = reference.design_curve(scenario)
    ms = [int(r["m"]) for r in rows]
    _require(ms == [p.m for p in curve], f"design rows for m={ms}, expected {list(scenario.feasible)}")
    worst = 0.0
    se_by_m = {}
    for row, point in zip(rows, curve):
        l_star = float(row["L_star"])
        se = float(row.get("L_star_se") or 0.0)
        se_by_m[point.m] = se
        err = abs(l_star - point.l_star)
        tol = min(max(SE_MULTIPLE * se, MIN_TOLERANCE), MAX_L_STAR_ERR)
        _require(
            err <= tol,
            f"m={point.m}: L* {l_star!r} vs reference {point.l_star!r} (|err| {err:.3g} > {tol:.3g})",
        )
        worst = max(worst, err)
    _require("m_star" in header, "missing '# m_star:' header")
    m_out = int(header["m_star"])
    _check_m_star(scenario, m_out, se_by_m.get(m_out, 0.0))
    return worst


def check_design(text: str, scenario: Scenario) -> float:
    """`design` output: the curve plus its typical-count and budget-split summary."""
    worst = check_design_rows(text, scenario)
    header, _ = _split_comment_header(text)
    if {"budget_split", "typical_n", "typical_n_bar"} <= header.keys():
        point = reference.design_curve(scenario)[int(header["m_star"])]
        parts = {k: float(v) for k, v in (item.split("=", 1) for item in header["budget_split"].split())}
        _require(abs(sum(parts.values()) - 1.0) <= 1e-9, f"budget split sums to {sum(parts.values())!r}")
        area = point.m * scenario.quadrant_area
        budget_area = scenario.budget * scenario.quadrant_area
        _require(_close(parts["sampling"], area / budget_area, rel=1e-12), f"sampling share {parts['sampling']!r}")
        _check_typical(
            scenario, point, int(header["typical_n_bar"]), parts["slack"], n_out=int(header["typical_n"])
        )
    return worst


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """The scenario a sensitivity sweep evaluates for one axis value."""
    fields = dict(scenario.__dict__)
    if axis == "r2":
        fields["categorize_ratio"] = scenario.categorize_ratio * value
    elif axis == "budget":
        fields["budget"] = value
    elif axis == "prior-mode":
        fields["rate"] = (scenario.shape - 1.0) / value
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return Scenario(**fields)


def check_sensitivity(text: str, scenario: Scenario, axis: str, values) -> float:
    """`sensitivity` output: one row per value with m*, typical n_bar and slack."""
    _, rows = _split_comment_header(text)
    _require(len(rows) == len(values), f"{len(rows)} sensitivity rows for {len(values)} values")
    for row, value in zip(rows, values):
        _require(row["axis"] == axis, f"axis {row['axis']!r}, expected {axis!r}")
        _require(float(row["value"]) == value, f"value {row['value']!r}, expected {value!r}")
        swept = apply_axis(scenario, axis, value)
        curve = reference.design_curve(swept)
        m_out = int(row["m_star"])
        best = min(curve, key=lambda p: p.l_star)
        se = max(curve[m_out].l_star_se, best.l_star_se) if 0 <= m_out < len(curve) else 0.0
        point = _check_m_star(swept, m_out, se)
        _check_typical(swept, point, int(row["typical_n_bar"]), float(row["budget_slack"]))
    return 0.0


def _posterior_csv(text: str):
    """({(section, key): value}, [(x, density)]) from `posterior` CSV output."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["section", "key", "value"], "missing section,key,value header")
    values, density = {}, []
    for section, key, value in rows[1:]:
        where = f"{section}.{key}"
        if section == "abundance_density":
            density.append((_number(key, where), _number(value, where)))
        else:
            values[(section, key)] = _number(value, where)
    return values, density


def _json_number(value, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}: {value!r} is not a number",
    )
    return value


def _posterior_json(text: str):
    """The same as ``_posterior_csv`` from `--format json` output, whose
    density section maps each abscissa (as text) to its density."""
    doc = json.loads(text)
    _require(isinstance(doc, dict), "posterior JSON is not an object")
    values, density = {}, []
    for section, entries in doc.items():
        for key, value in entries.items():
            where = f"{section}.{key}"
            if section == "abundance_density":
                density.append((_number(key, where), _json_number(value, where)))
            else:
                values[(section, key)] = _json_number(value, where)
    density.sort()
    return values, density


def check_posterior(text: str, campaign, fmt: str = "csv") -> float:
    """`posterior` output (``fmt`` is its `--format`) against the conjugate
    update of the generated campaign."""
    values, density = (_posterior_json if fmt == "json" else _posterior_csv)(text)

    def get(section, key):
        _require((section, key) in values, f"missing {section}.{key}")
        return values[(section, key)]

    n = sum(campaign.counts)
    m = len(campaign.counts)
    total_area = m * campaign.quadrant_area
    shape = campaign.prior_shape + n
    rate = campaign.prior_rate + total_area
    _require(get("abundance", "shape") == shape, f"posterior shape {get('abundance', 'shape')!r}, expected {shape!r}")
    _require(get("abundance", "rate") == rate, f"posterior rate {get('abundance', 'rate')!r}, expected {rate!r}")
    _require(_close(get("abundance", "mean"), shape / rate), "posterior mean")
    _require(_close(get("abundance", "variance"), shape / rate**2), "posterior variance")
    _require(get("abundance", "hpd_mass") == campaign.mass, "hpd_mass echo")
    _require(get("data", "quadrants") == m, "quadrant count")
    _require(get("data", "total_count") == n, "total count")
    _require(_close(get("data", "total_area"), total_area), "total area")
    _require(_close(get("naive", "estimate"), n / total_area), "naive estimate")

    lower, upper = get("abundance", "hpd_lower"), get("abundance", "hpd_upper")
    dist = stats.gamma(shape, scale=1.0 / rate)
    contained = dist.cdf(upper) - dist.cdf(lower)
    _require(
        abs(contained - campaign.mass) <= HPD_MASS_TOL,
        f"HPD [{lower!r}, {upper!r}] holds mass {contained!r}, expected {campaign.mass!r}",
    )
    if shape > 1.0:
        _require(0.0 < lower < upper, f"HPD bounds {lower!r}, {upper!r} not ordered")
        _require(
            _close(dist.pdf(lower), dist.pdf(upper), rel=1e-6),
            f"HPD density differs at the ends: {dist.pdf(lower)!r} vs {dist.pdf(upper)!r}",
        )
    else:
        _require(lower == 0.0, f"left-anchored HPD starts at {lower!r}")

    gamma = np.full(len(DEFAULT_CLASS_NAMES), campaign.class_gamma)
    if campaign.class_counts is not None:
        for name, count in campaign.class_counts.items():
            gamma[DEFAULT_CLASS_NAMES.index(name)] += count
        _require(get("data", "categorized_total") == sum(campaign.class_counts.values()), "categorized total")
    g0 = gamma.sum()
    for name, gi in zip(DEFAULT_CLASS_NAMES, gamma):
        _require(get(f"class_{name}", "concentration") == gi, f"class {name} concentration")
        _require(_close(get(f"class_{name}", "mean"), gi / g0, rel=1e-12), f"class {name} mean")
        var = gi * (g0 - gi) / (g0**2 * (g0 + 1.0))
        _require(_close(get(f"class_{name}", "variance"), var, rel=1e-12), f"class {name} variance")

    if campaign.grid_points:
        _require(len(density) == campaign.grid_points, f"{len(density)} density rows")
        xs = np.array([x for x, _ in density])
        expected_x = np.linspace(0.0, 2.0 * upper, campaign.grid_points)
        _require(np.allclose(xs, expected_x, rtol=1e-12, atol=0.0), "density grid abscissae")
        pdf = stats.gamma.pdf(xs, shape, scale=1.0 / rate)
        for (x, d), ref in zip(density, pdf):
            _require(_close(d, float(ref), abs_tol=1e-300), f"density at {x!r}: {d!r} vs {ref!r}")
    return 0.0


def check_replicate(out_dir: str, stdout: str, manifests: list, figure: str = "all") -> float:
    """`replicate --figure <figure>`: checksums, rerun identity, m* and design
    curves of the figure's designs, and every plot-data cell a number.

    ``manifests`` collects the manifest bytes of every invocation of the same
    figure in a run; each must equal the first.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    _require(os.path.exists(manifest_path), "no manifest.json")
    with open(manifest_path, "rb") as fh:
        raw = fh.read()
    if manifests:
        _require(raw == manifests[0], "manifest differs from the first invocation's")
    else:
        manifests.append(raw)
    manifest = json.loads(raw)
    listed = [entry["name"] for entry in manifest["files"]]
    on_disk = sorted(name for name in os.listdir(out_dir) if name != "manifest.json")
    _require(sorted(listed) == on_disk, f"manifest lists {sorted(listed)}, directory holds {on_disk}")
    _require(stdout.split() == sorted(listed) + ["manifest.json"], "stdout does not list the written files")
    texts = {}
    for entry in manifest["files"]:
        with open(os.path.join(out_dir, entry["name"]), "rb") as fh:
            data = fh.read()
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"], f"checksum of {entry['name']}")
        texts[entry["name"]] = data.decode("utf-8")
    worst = 0.0
    for (tag, mode, budget, r2), expected in zip(reference.REPLICATE_DESIGNS, REPLICATE_M_STAR):
        if figure != "all" and not tag.startswith(figure + "_"):
            continue
        name = f"{tag}_design.csv"
        _require(name in texts, f"missing {name}")
        header, _ = _split_comment_header(texts[name])
        scenario = reference.study_scenario(mode, budget, r2, reference.REPLICATE_DRAWS)
        _require(reference.m_star(scenario) == expected, f"reference m* for {tag}")
        _require(int(header.get("m_star", -1)) == expected, f"{name}: m_star {header.get('m_star')}, expected {expected}")
        worst = max(worst, check_design_rows(texts[name], scenario))
    for name, text in texts.items():
        try:
            _check_numeric_csv(text, name)
        except OutputMismatch as exc:
            raise OutputMismatch(str(exc), worst) from None
    return worst


def _check_numeric_csv(text: str, name: str):
    """Every data cell of a plot-data CSV is a number."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    for row in csv.reader(lines[1:]):
        for cell in row:
            _number(cell, name)
