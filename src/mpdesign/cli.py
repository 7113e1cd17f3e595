"""Command-line front end.

Subcommands: design, curves, posterior, sensitivity, replicate. Inputs come
from a JSON config (see ``mpdesign.config``); tabular results are written as
CSV (default) or JSON. Re-running a command with identical inputs produces
byte-identical output files. If the ``MPDESIGN_OUT_DIR`` environment
variable is set, relative output paths are resolved against it.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from .config import ConfigError, LoadedConfig, config_to_json, load_config
from .cost import (
    categorization_fraction,
    categorized_count,
    feasible_designs,
    normalized_cost,
)
from .design import (
    SWEEP_AXES,
    default_abundance_grid,
    optimize_design,
    performance_curve,
    sensitivity_sweep,
)
from .io import (
    CampaignDataError,
    atomic_write_text,
    parse_campaign_data,
    render_csv,
    render_json,
)
from .posterior import (
    density_grid,
    hpd_interval,
    naive_abundance_estimate,
    update_abundance,
    update_composition,
)
from .replicate import FIGURE_IDS, replicate

DESIGN_COLUMNS = ["m", "area", "L1_star", "E_L2_star", "E_L2_se", "L_star", "L_star_se"]
CURVES_COLUMNS = ["lambda", "n", "q", "n_bar", "L2_star"]
SENSITIVITY_COLUMNS = ["axis", "value", "m_star", "typical_n_bar", "budget_slack"]


def _resolve_out(path: str) -> str:
    base = os.environ.get("MPDESIGN_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(ctx) -> LoadedConfig:
    opts = ctx.obj
    if opts["config"] is None:
        raise click.ClickException("--config is required for this command")
    try:
        return load_config(
            opts["config"], seed_override=opts["seed"], draws_override=opts["draws"]
        )
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


def _emit(ctx, out_path, csv_text: str, json_obj):
    text = csv_text if ctx.obj["format"] == "csv" else render_json(json_obj)
    if out_path is None:
        click.echo(text, nl=False)
    else:
        atomic_write_text(_resolve_out(out_path), text)


@click.group(invoke_without_command=True)
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override the config mc.seed (validated; the exact design ignores it).")
@click.option("--draws", type=click.IntRange(1000), default=None,
              help="Override the config mc.draws (validated; the exact design ignores it).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
@click.option("--out", type=click.Path(), default=None,
              help="Output file (default: stdout).")
@click.option("--print-config", is_flag=True,
              help="Echo the parsed config as canonical JSON and exit.")
@click.pass_context
def main(ctx, config, seed, draws, fmt, out, print_config):
    """Two-stage sampling design and Bayesian inference for microplastic campaigns."""
    ctx.obj = {"config": config, "seed": seed, "draws": draws, "format": fmt, "out": out}
    if print_config:
        click.echo(config_to_json(_load(ctx)), nl=False)
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(2)


@main.command()
@click.pass_context
def design(ctx):
    """Optimize the number of quadrants and write the design curve."""
    loaded = _load(ctx)
    cfg = loaded.design
    feasible = feasible_designs(cfg.cost)
    if len(feasible) <= 1:
        raise click.ClickException(
            f"budget admits no field sampling (feasible quadrant counts: {list(feasible)})"
        )
    try:
        result = optimize_design(cfg)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    row = result.optimal_row
    area = row.area
    n_med = row.median_count
    q = categorization_fraction(cfg.cost, area, n_med)
    n_bar = categorized_count(n_med, q)
    split = {
        "sampling": cfg.cost.budget_coefficient * area,
        "counting": cfg.cost.budget_coefficient * cfg.cost.count_ratio * n_med,
        "categorization": cfg.cost.budget_coefficient * cfg.cost.categorize_ratio * n_bar,
        "slack": 1.0 - normalized_cost(cfg.cost, area, n_med, q),
    }
    rows = [
        (r.m, r.area, r.l1_star, r.e_l2_star, r.e_l2_se, r.l_star, r.l_star_se)
        for r in result.curve.rows
    ]
    summary_lines = (
        f"# m_star: {result.m_star}\n"
        f"# sampled_area: {area!r}\n"
        f"# typical_n: {n_med}\n"
        f"# typical_n_bar: {n_bar}\n"
        "# budget_split: "
        + " ".join(f"{k}={v!r}" for k, v in split.items())
        + "\n"
    )
    csv_text = summary_lines + render_csv(DESIGN_COLUMNS, rows)
    json_obj = {
        "m_star": result.m_star,
        "sampled_area": area,
        "typical_n": n_med,
        "typical_n_bar": n_bar,
        "budget_split": split,
        "q_policy": result.q_policy_note,
        "curve": [dict(zip(DESIGN_COLUMNS, r)) for r in rows],
    }
    _emit(ctx, ctx.obj["out"], csv_text, json_obj)


@main.command()
@click.option("--m", "m", type=int, required=True, help="Number of quadrants.")
@click.option("--lambda-min", type=float, default=None, help="Grid start (exclusive of 0).")
@click.option("--lambda-max", type=float, default=None, help="Grid end.")
@click.option("--lambda-points", type=click.IntRange(2), default=200, show_default=True)
@click.pass_context
def curves(ctx, m, lambda_min, lambda_max, lambda_points):
    """Second-stage performance across hypothetical true abundances."""
    loaded = _load(ctx)
    cfg = loaded.design
    if m not in feasible_designs(cfg.cost):
        raise click.ClickException(
            f"m={m} outside the feasible set {list(feasible_designs(cfg.cost))}"
        )
    if lambda_max is None:
        grid = default_abundance_grid(cfg, lambda_points)
    else:
        lo = lambda_min if lambda_min is not None else lambda_max / lambda_points
        grid = np.linspace(lo, lambda_max, lambda_points)
    curve = performance_curve(m, grid, cfg)
    rows = [(r.true_abundance, r.n, r.q, r.n_bar, r.l2_star) for r in curve.rows]
    csv_text = f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows)
    json_obj = {"m": m, "rows": [dict(zip(CURVES_COLUMNS, r)) for r in rows]}
    _emit(ctx, ctx.obj["out"], csv_text, json_obj)


@main.command()
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="Campaign data CSV.")
@click.option("--hpd-mass", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.95, show_default=True)
@click.option("--density-grid", "with_grids", is_flag=True,
              help="Append density-grid rows for plotting.")
@click.option("--grid-points", type=click.IntRange(2), default=500, show_default=True)
@click.pass_context
def posterior(ctx, data_path, hpd_mass, with_grids, grid_points):
    """Posterior inference for abundance and polymer composition."""
    loaded = _load(ctx)
    cfg = loaded.design
    try:
        data = parse_campaign_data(
            data_path, cfg.cost.quadrant_area, loaded.class_names
        )
    except CampaignDataError as exc:
        raise click.ClickException(str(exc)) from exc

    obs = data.observations
    abundance = update_abundance(cfg.abundance_prior, obs)
    lower, upper = hpd_interval(abundance, hpd_mass)
    records = [
        ("abundance", "shape", abundance.shape),
        ("abundance", "rate", abundance.rate),
        ("abundance", "mean", abundance.mean()),
        ("abundance", "variance", abundance.variance()),
        ("abundance", "hpd_mass", hpd_mass),
        ("abundance", "hpd_lower", lower),
        ("abundance", "hpd_upper", upper),
        ("naive", "estimate", naive_abundance_estimate(obs)),
        ("data", "quadrants", obs.m),
        ("data", "total_count", obs.total_count),
        ("data", "total_area", obs.total_area),
    ]
    cats = data.categorization(loaded.class_names)
    composition = cfg.composition_prior
    if cats is not None:
        composition = update_composition(cfg.composition_prior, cats)
        records.append(("data", "categorized_total", cats.categorized_total))
    g0 = composition.total
    for name, gi in zip(loaded.class_names, composition.concentration):
        mean = gi / g0
        var = gi * (g0 - gi) / (g0**2 * (g0 + 1.0))
        records.append((f"class_{name}", "concentration", gi))
        records.append((f"class_{name}", "mean", mean))
        records.append((f"class_{name}", "variance", var))
    if with_grids:
        grid = np.linspace(0.0, float(upper) * 2.0, grid_points)
        for x, d in zip(grid, density_grid(abundance, grid)):
            records.append(("abundance_density", repr(float(x)), d))
    csv_text = render_csv(["section", "key", "value"], records)
    json_obj = {}
    for section, key, value in records:
        json_obj.setdefault(section, {})[key] = value
    _emit(ctx, ctx.obj["out"], csv_text, json_obj)


@main.command()
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True)
@click.option("--values", required=True,
              help="Comma-separated axis values (multipliers for r2).")
@click.pass_context
def sensitivity(ctx, axis, values):
    """Re-optimize the design along one input axis."""
    loaded = _load(ctx)
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise click.ClickException(f"bad --values list: {exc}") from exc
    if not parsed:
        raise click.ClickException("--values must contain at least one number")
    try:
        rows = sensitivity_sweep(loaded.design, axis, parsed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    table = [(r.axis, r.value, r.m_star, r.typical_n_bar, r.budget_slack) for r in rows]
    csv_text = render_csv(SENSITIVITY_COLUMNS, table)
    json_obj = {"axis": axis, "rows": [dict(zip(SENSITIVITY_COLUMNS, r)) for r in table]}
    _emit(ctx, ctx.obj["out"], csv_text, json_obj)


@main.command("replicate")
@click.option("--figure", type=click.Choice(FIGURE_IDS + ("all",)), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
def replicate_cmd(figure, out_dir):
    """Regenerate the reference scenario data bundles."""
    written = replicate(figure, _resolve_out(out_dir))
    for name in written:
        click.echo(name)


if __name__ == "__main__":
    sys.exit(main())
