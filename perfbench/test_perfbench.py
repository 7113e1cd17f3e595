"""Self-tests of the benchmark: reference, output checkers and tracer.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import OutputMismatch  # noqa: E402

from mpdesign import (  # noqa: E402
    CostModel,
    DesignConfig,
    DirichletParams,
    GammaParams,
    optimize_design,
)
from mpdesign.cli import main as cli_main  # noqa: E402
from mpdesign.replicate import replicate  # noqa: E402


def cli(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(args, standalone_mode=False)
    return out.getvalue()


# -- reference ---------------------------------------------------------------


@pytest.mark.parametrize(
    "budget, low, high", [(12.0, 7, 4), (8.0, 5, 3), (14.0, 8, 5)]
)
def test_reference_reproduces_acceptance_m_star(budget, low, high):
    assert reference.m_star(reference.study_scenario(200.0, budget, 1.0, 100_000)) == low
    assert reference.m_star(reference.study_scenario(800.0, budget, 1.0, 100_000)) == high


@pytest.mark.parametrize("mode", workloads.PRIOR_MODES)
@pytest.mark.parametrize("budget", workloads.BUDGETS)
@pytest.mark.parametrize("r2", workloads.R2_MULTIPLIERS)
def test_reference_agrees_with_monte_carlo(mode, budget, r2):
    config = DesignConfig(
        GammaParams.from_mode(3.0, mode),
        DirichletParams.symmetric(10, 1.0),
        CostModel.from_budget_quadrants(0.0625, budget, 5e-5, 3e-3 * r2),
        mc_draws=100_000,
        seed=11,
    )
    rows = optimize_design(config).curve.rows
    ref = reference.design_curve(reference.study_scenario(mode, budget, r2, 100_000))
    assert [r.m for r in rows] == [p.m for p in ref]
    for row, point in zip(rows, ref):
        assert abs(row.l_star - point.l_star) <= max(5 * row.l_star_se, 1e-9), row.m


def test_reference_truncation_keeps_tail_below_threshold():
    scenario = reference.study_scenario(800.0, 20.0, 1.0, 100_000)
    area = 20 * scenario.quadrant_area
    dist = stats.nbinom(scenario.shape, scenario.rate / (scenario.rate + area))
    top = int(dist.isf(reference.TAIL_MASS)) + 1
    assert dist.sf(top) < reference.TAIL_MASS


# -- design and sensitivity checkers -----------------------------------------


@pytest.fixture(scope="module")
def design_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("design") / "config.json"
    path.write_text(json.dumps(workloads._design_config(200.0, 12.0, 1.0, 5)))
    scenario = reference.study_scenario(200.0, 12.0, 1.0, workloads.DRAWS)
    return str(path), scenario, cli(["--config", str(path), "design"])


def _replace_row(text, m, column, value):
    lines = text.splitlines(keepends=True)
    header_index = next(i for i, line in enumerate(lines) if line.startswith("m,"))
    columns = lines[header_index].strip().split(",")
    for i in range(header_index + 1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if cells[0] == str(m):
            cells[columns.index(column)] = value(cells[columns.index(column)])
            lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


def test_design_checker_accepts_real_output(design_case):
    _, scenario, text = design_case
    assert 0.0 < checks.check_design(text, scenario) < checks.MAX_L_STAR_ERR


def test_design_checker_rejects_shifted_loss(design_case):
    _, scenario, text = design_case
    bad = _replace_row(text, 3, "L_star", lambda v: repr(float(v) + 3e-3))
    with pytest.raises(OutputMismatch, match="m=3: L"):
        checks.check_design(bad, scenario)


def test_design_checker_rejects_wrong_m_star(design_case):
    _, scenario, text = design_case
    bad = text.replace("# m_star: 7", "# m_star: 1")
    assert bad != text
    with pytest.raises(OutputMismatch, match="m_star 1 has reference"):
        checks.check_design(bad, scenario)


def test_design_checker_rejects_missing_row(design_case):
    _, scenario, text = design_case
    bad = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("12,"))
    with pytest.raises(OutputMismatch, match="design rows"):
        checks.check_design(bad, scenario)


def test_design_checker_rejects_inflated_standard_error(design_case):
    """A huge reported SE cannot widen the tolerance past MAX_L_STAR_ERR."""
    _, scenario, text = design_case
    bad = _replace_row(text, 3, "L_star", lambda v: repr(float(v) + 3e-3))
    bad = _replace_row(bad, 3, "L_star_se", lambda v: "1.0")
    with pytest.raises(OutputMismatch, match="m=3: L"):
        checks.check_design(bad, scenario)


def test_design_checker_rejects_wrong_budget_split(design_case):
    _, scenario, text = design_case
    header = next(line for line in text.splitlines() if line.startswith("# typical_n_bar"))
    n_bar = int(header.split(":")[1])
    with pytest.raises(OutputMismatch, match="typical n_bar"):
        checks.check_design(text.replace(header, f"# typical_n_bar: {n_bar + 5}"), scenario)


def test_sensitivity_checker(design_case):
    path, scenario, _ = design_case
    text = cli(["--config", path, "sensitivity", "--axis", "budget", "--values", "8,14"])
    checks.check_sensitivity(text, scenario, "budget", (8.0, 14.0))
    bad = text.replace("budget,14.0,8,", "budget,14.0,2,")
    assert bad != text
    with pytest.raises(OutputMismatch, match="m_star 2"):
        checks.check_sensitivity(bad, scenario, "budget", (8.0, 14.0))


# -- posterior checker -------------------------------------------------------


@pytest.fixture(scope="module")
def posterior_cases(tmp_path_factory):
    work = tmp_path_factory.mktemp("posterior")
    built = workloads.posterior_batch(3, str(work))
    return built.invocations


def _csv_args(inv):
    return [a for a in inv.args if a not in ("--format", workloads.POSTERIOR_FORMAT)]


def _posterior_output(inv):
    """CSV output without the density grid, plus its campaign with grid_points=0."""
    plain = workloads.Campaign(**{**inv.subject.__dict__, "grid_points": 0})
    return cli([a for a in _csv_args(inv) if a != "--density-grid"]), plain


def test_posterior_checker_accepts_real_output(posterior_cases):
    kinds = set()
    for inv in posterior_cases:
        text, campaign = _posterior_output(inv)
        checks.check_posterior(text, campaign)
        kinds.add((campaign.prior_shape <= 1.0, campaign.class_counts is None))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize(
    "key, change, message",
    [
        ("abundance,shape,", lambda v: repr(float(v) + 1.0), "posterior shape"),
        ("abundance,rate,", lambda v: repr(float(v) * (1 + 1e-15) + 1e-12), "posterior rate"),
        ("abundance,hpd_upper,", lambda v: repr(float(v) * 1.01), "HPD"),
        ("class_PE,concentration,", lambda v: repr(float(v) + 1.0), "class PE concentration"),
    ],
)
def test_posterior_checker_rejects_corruption(posterior_cases, key, change, message):
    inv = next(i for i in posterior_cases if i.subject.prior_shape > 1.0)
    text, campaign = _posterior_output(inv)
    lines = text.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(key))
    value = lines[index].rstrip("\n").rsplit(",", 1)[1]
    lines[index] = key + change(value) + "\n"
    with pytest.raises(OutputMismatch, match=message):
        checks.check_posterior("".join(lines), campaign)


def test_posterior_checker_rejects_interior_left_anchored_interval(posterior_cases):
    inv = next(i for i in posterior_cases if i.subject.prior_shape <= 1.0)
    text, campaign = _posterior_output(inv)
    bad = text.replace("abundance,hpd_lower,0.0", "abundance,hpd_lower,1e-300")
    assert bad != text
    with pytest.raises(OutputMismatch, match="left-anchored"):
        checks.check_posterior(bad, campaign)


def _density_rows(text, campaign, fmt=repr):
    rows = dict(((s, k), v) for s, k, v in (line.split(",") for line in text.splitlines()[1:]))
    upper = float(rows[("abundance", "hpd_upper")])
    shape = campaign.prior_shape + sum(campaign.counts)
    rate = campaign.prior_rate + len(campaign.counts) * campaign.quadrant_area
    grid = np.linspace(0.0, 2.0 * upper, 50)
    pdf = stats.gamma.pdf(grid, shape, scale=1.0 / rate)
    return "".join(f"abundance_density,{float(x)!r},{fmt(d)}\n" for x, d in zip(grid, pdf))


def test_posterior_checker_density_rows(posterior_cases):
    inv = next(i for i in posterior_cases if i.subject.prior_shape > 1.0)
    text, campaign = _posterior_output(inv)
    with_grid = workloads.Campaign(**{**campaign.__dict__, "grid_points": 50})
    checks.check_posterior(text + _density_rows(text, campaign, lambda d: repr(float(d))), with_grid)
    scaled = _density_rows(text, campaign, lambda d: repr(float(d) * 1.001))
    with pytest.raises(OutputMismatch, match="density at"):
        checks.check_posterior(text + scaled, with_grid)
    numpy_repr = _density_rows(text, campaign, lambda d: f"np.float64({float(d)!r})")
    with pytest.raises(OutputMismatch, match="is not a number"):
        checks.check_posterior(text + numpy_repr, with_grid)


def test_posterior_checker_json_output(posterior_cases):
    """The workload's own invocations, density grid included, pass as JSON."""
    inv = next(i for i in posterior_cases if i.subject.prior_shape > 1.0)
    assert "--format" in inv.args and "--density-grid" in inv.args
    text = cli(inv.args)
    inv.check(text, None)
    doc = json.loads(text)
    x = next(iter(doc["abundance_density"]))
    doc["abundance_density"][x] = doc["abundance_density"][x] * 1.001 + 1e-9
    with pytest.raises(OutputMismatch, match="density at"):
        checks.check_posterior(json.dumps(doc), inv.subject, "json")
    doc = json.loads(text)
    doc["abundance"]["hpd_lower"] = str(doc["abundance"]["hpd_lower"])
    with pytest.raises(OutputMismatch, match="is not a number"):
        checks.check_posterior(json.dumps(doc), inv.subject, "json")
    doc = json.loads(text)
    del doc["abundance_density"][x]
    with pytest.raises(OutputMismatch, match="density rows"):
        checks.check_posterior(json.dumps(doc), inv.subject, "json")


@pytest.mark.xfail(
    reason="known program defect: under NumPy 2 the CSV density rows read 'np.float64(...)'",
    raises=OutputMismatch,
    strict=False,
)
def test_posterior_csv_density_grid_is_numeric(posterior_cases):
    inv = next(i for i in posterior_cases if i.subject.prior_shape > 1.0)
    checks.check_posterior(cli(_csv_args(inv)), inv.subject)


# -- replicate checker -------------------------------------------------------


@pytest.mark.parametrize("figure", workloads.REPLICATE_FIGURES)
def test_replicate_checker_accepts_real_output(figure, tmp_path):
    out = tmp_path / figure
    written = replicate(figure, str(out))
    manifests = []
    stdout = "".join(name + "\n" for name in written)
    assert checks.check_replicate(str(out), stdout, manifests, figure) < checks.MAX_L_STAR_ERR
    assert len(manifests) == 1


@pytest.mark.xfail(
    reason="known program defect: under NumPy 2 the fig5/fig6 CSV cells read 'np.float64(...)'",
    raises=OutputMismatch,
    strict=False,
)
@pytest.mark.parametrize("figure", ["fig5", "fig6"])
def test_replicate_density_figures_are_numeric(figure, tmp_path):
    written = replicate(figure, str(tmp_path))
    checks.check_replicate(str(tmp_path), "".join(n + "\n" for n in written), [], figure)


@pytest.fixture(scope="module")
def replicate_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("replicate") / "all"
    written = replicate("all", str(out))
    return out, "".join(name + "\n" for name in written)


def _copy(replicate_dir, tmp_path):
    src, stdout = replicate_dir
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst, stdout


def _rewrite(directory, name, text):
    """Replace one file and update its manifest checksum to match."""
    (directory / name).write_text(text)
    manifest = json.loads((directory / "manifest.json").read_text())
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_replicate_checker_rejects_changed_file(replicate_dir, tmp_path):
    directory, stdout = _copy(replicate_dir, tmp_path)
    path = directory / "fig1_low_performance.csv"
    path.write_text(path.read_text() + "0,0,0,0,0\n")
    with pytest.raises(OutputMismatch, match="checksum of fig1_low_performance.csv"):
        checks.check_replicate(str(directory), stdout, [])


def test_replicate_checker_rejects_changed_manifest(replicate_dir, tmp_path):
    directory, stdout = _copy(replicate_dir, tmp_path)
    first = (directory / "manifest.json").read_bytes()
    _rewrite(directory, "fig2_r2x2_performance.csv", "changed\n")
    with pytest.raises(OutputMismatch, match="manifest differs"):
        checks.check_replicate(str(directory), stdout, [first])


def test_replicate_checker_rejects_wrong_m_star(replicate_dir, tmp_path):
    directory, stdout = _copy(replicate_dir, tmp_path)
    name = "fig3_high_b8_design.csv"
    _rewrite(directory, name, (directory / name).read_text().replace("# m_star: 3", "# m_star: 4"))
    with pytest.raises(OutputMismatch, match="m_star 4, expected 3"):
        checks.check_replicate(str(directory), stdout, [])


def test_replicate_checker_rejects_missing_file(replicate_dir, tmp_path):
    directory, stdout = _copy(replicate_dir, tmp_path)
    (directory / "fig5_lambda80.csv").unlink()
    with pytest.raises(OutputMismatch, match="directory holds"):
        checks.check_replicate(str(directory), stdout, [])


def test_numeric_csv_check():
    text = "lambda,prior\n0.0,0.0\n1.0,4.95e-07\n"
    checks._check_numeric_csv("# m: 3\n" + text, "f.csv")
    with pytest.raises(OutputMismatch, match="f.csv: 'np.float64\\(0.0\\)' is not a number"):
        checks._check_numeric_csv(text.replace("\n0.0,", "\nnp.float64(0.0),"), "f.csv")


# -- tracer ------------------------------------------------------------------


def test_tracer_rebinds_every_namespace_and_restores():
    import mpdesign.cli
    import mpdesign.cost
    import mpdesign.design
    import mpdesign.posterior
    import mpdesign.replicate

    original = mpdesign.cost.categorization_fraction
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        for module in (mpdesign.cost, mpdesign.design, mpdesign.cli, mpdesign.replicate, mpdesign.posterior):
            assert module.categorization_fraction is not original
    finally:
        tracer.uninstall(undo)
    for module in (mpdesign.cost, mpdesign.design, mpdesign.cli, mpdesign.replicate, mpdesign.posterior):
        assert module.categorization_fraction is original


def test_tracer_tolerates_deleted_layers(monkeypatch, design_case):
    import mpdesign.kernels

    monkeypatch.delattr(mpdesign.kernels, "l2_star_batch")
    monkeypatch.setattr(
        tracer,
        "BOUNDARIES",
        tracer.BOUNDARIES + (("ghost", "mpdesign.no_such_module", "f", None),
                             ("design", "mpdesign.design", "NoSuchClass.method", None)),
    )
    t = tracer.Tracer()
    undo = tracer.install(t)
    tracer.uninstall(undo)
    summary = tracer.summarize(t.spans)
    assert summary.layers["kernels"].calls == 0
    assert "ghost" not in summary.layers or summary.layers["ghost"].calls == 0


def test_self_times_add_up_to_root_time(design_case):
    path, _, _ = design_case
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        root = t.span(tracer.ROOT_LAYER, cli_main)
        with contextlib.redirect_stdout(io.StringIO()):
            root(["--config", path, "sensitivity", "--axis", "r2", "--values", "1,2"], standalone_mode=False)
    finally:
        tracer.uninstall(undo)
    summary = tracer.summarize(t.spans)
    assert summary.layers["cli"].calls == 1
    assert summary.layers["design"].calls == 3  # sweep + two nested optimizations
    assert summary.layers["design"].total_s <= summary.root_s
    assert sum(v.self_s for v in summary.layers.values()) == pytest.approx(summary.root_s, rel=1e-9)
    assert t.counts["design.points"] == 26
    assert t.counts["kernels.elems"] == 24 * workloads.DRAWS


def test_root_calls_are_counted():
    from mpdesign.posterior import hpd_interval as untraced

    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        import mpdesign.posterior

        mpdesign.posterior.hpd_interval(GammaParams(30.0, 0.5), 0.9)
    finally:
        tracer.uninstall(undo)
    assert t.counts["posterior.hpd.root_calls"] > 0
    assert t.counts["posterior.hpd.root_calls"] % 2 == 0  # two roots per level
    assert mpdesign.posterior.hpd_interval is untraced


# -- runner helpers and BENCHMARK.json --------------------------------------


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:       500 |       2000 |     numpy",
            "import time:       300 |        300 |     mpdesign.posterior",
            "import time:       200 |       2700 |   mpdesign",
            "import time:        50 |       2750 | mpdesign.cli",
        ]
    )
    parsed = run.parse_importtime(stderr)
    assert parsed == {
        "import.cli_s": 2750e-6,
        "import.posterior_s": 300e-6,
        "import.numpy_s": 2000e-6,
        "import.modules": 4,
    }


def test_tail_percentile():
    assert run.tail(list(range(100)))[0] == 89
    assert run.tail(list(range(100)))[1] == "p90 of 100"
    value, label = run.tail([1.0, 3.0, 2.0])
    assert value == 3.0 and label.startswith("max of 3")


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )


def test_per_invocation_p50():
    samples = [run.Sample("x", t, True, invocation=i) for t, i in ((1.0, 0), (3.0, 0), (2.0, 0), (10.0, 1))]
    assert run.per_invocation_p50(samples, "seconds") == 6.0


def test_every_seed_runs_the_same_mix(tmp_path):
    def mix(name, seed):
        built = workloads.build(name, seed, str(tmp_path))
        return sorted((inv.kind, inv.design_points, inv.campaigns) for inv in built.invocations)

    for name in ("design-sweep", "replicate-designs"):
        assert mix(name, 1) == mix(name, 2)
