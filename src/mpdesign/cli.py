"""Command-line front end.

Subcommands: design, curves, posterior, sensitivity, replicate. Inputs come
from a JSON config (see ``mpdesign.config``); tabular results are written as
CSV (default) or JSON. Re-running a command with identical inputs produces
byte-identical output files. If the ``MPDESIGN_OUT_DIR`` environment
variable is set, relative output paths are resolved against it.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import repeat

import click

# The option choices are written here so that ``--help`` and usage errors
# import nothing beyond Click; a test pins them to ``design.SWEEP_AXES`` and
# ``replicate.FIGURE_IDS``. Each command imports what it runs when it runs.
SWEEP_AXES = ("r2", "budget", "prior-mode")
FIGURE_CHOICES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "all")


def _resolve_out(path: str) -> str:
    base = os.environ.get("MPDESIGN_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(ctx):
    from .config import ConfigError, load_config

    opts = ctx.obj
    if opts["config"] is None:
        raise click.ClickException("--config is required for this command")
    try:
        return load_config(opts["config"])
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


def _emit(ctx, csv_text, json_obj):
    """Write ``json_obj`` as JSON, or the text ``csv_text()`` returns, to
    ``--out`` or stdout. The CSV is built only when it is the format asked for."""
    from .io import atomic_write_text, render_json

    text = csv_text() if ctx.obj["format"] == "csv" else render_json(json_obj)
    out_path = ctx.obj["out"]
    if out_path is None:
        click.echo(text, nl=False)
    else:
        atomic_write_text(_resolve_out(out_path), text)


@click.group(invoke_without_command=True)
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
@click.option("--out", type=click.Path(), default=None,
              help="Output file (default: stdout).")
@click.option("--print-config", is_flag=True,
              help="Echo the parsed config as canonical JSON and exit.")
@click.pass_context
def main(ctx, config, fmt, out, print_config):
    """Two-stage sampling design and Bayesian inference for microplastic campaigns."""
    ctx.obj = {"config": config, "format": fmt, "out": out}
    if print_config:
        from .config import config_to_json

        click.echo(config_to_json(_load(ctx)), nl=False)
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(2)


@main.command()
@click.pass_context
def design(ctx):
    """Optimize the number of quadrants and write the design curve."""
    from .cost import feasible_designs
    from .design import DESIGN_COLUMNS, optimize_design
    from .io import render_csv

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
    area = result.optimal_row.area
    summary_lines = (
        f"# m_star: {result.m_star}\n"
        f"# sampled_area: {area!r}\n"
        f"# typical_n: {result.typical_n}\n"
        f"# typical_n_bar: {result.typical_n_bar}\n"
        "# budget_split: "
        + " ".join(f"{k}={v!r}" for k, v in result.budget_split.items())
        + "\n"
    )
    json_obj = {
        "m_star": result.m_star,
        "sampled_area": area,
        "typical_n": result.typical_n,
        "typical_n_bar": result.typical_n_bar,
        "budget_split": result.budget_split,
        "q_policy": result.q_policy_note,
        "curve": [dict(zip(DESIGN_COLUMNS, r)) for r in result.curve.rows],
    }
    _emit(ctx, lambda: summary_lines + render_csv(DESIGN_COLUMNS, result.curve.rows), json_obj)


def _abundance(ctx, param, value):
    """Option callback: a true abundance must be a finite number >= 0."""
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"{value!r} is not a finite number >= 0")
    return value


@main.command()
@click.option("--m", "m", type=int, required=True, help="Number of quadrants.")
@click.option("--lambda-min", type=float, default=None, callback=_abundance,
              help="Grid start (exclusive of 0).")
@click.option("--lambda-max", type=float, default=None, callback=_abundance, help="Grid end.")
@click.option("--lambda-points", type=click.IntRange(2), default=200, show_default=True)
@click.pass_context
def curves(ctx, m, lambda_min, lambda_max, lambda_points):
    """Second-stage performance across hypothetical true abundances."""
    import numpy as np

    from .cost import feasible_designs
    from .design import CURVES_COLUMNS, default_abundance_grid, performance_curve
    from .io import render_csv

    loaded = _load(ctx)
    cfg = loaded.design
    if m not in feasible_designs(cfg.cost):
        raise click.ClickException(
            f"m={m} outside the feasible set {list(feasible_designs(cfg.cost))}"
        )
    if lambda_max is None and lambda_min is not None:
        raise click.BadParameter("needs --lambda-max", param_hint="'--lambda-min'")
    if lambda_min is not None and lambda_min > lambda_max:
        raise click.BadParameter(
            f"{lambda_min!r} exceeds --lambda-max {lambda_max!r}", param_hint="'--lambda-min'"
        )
    try:
        if lambda_max is None:
            grid = default_abundance_grid(cfg, lambda_points)
        else:
            lo = lambda_min if lambda_min is not None else lambda_max / lambda_points
            grid = np.linspace(lo, lambda_max, lambda_points)
        rows = performance_curve(m, grid, cfg).rows
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    json_obj = {"m": m, "rows": [dict(zip(CURVES_COLUMNS, r)) for r in rows]}
    _emit(ctx, lambda: f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows), json_obj)


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
    import numpy as np

    from .io import CampaignDataError, parse_campaign_data, render_csv
    from .posterior import (
        density_grid,
        hpd_interval,
        naive_abundance_estimate,
        update_abundance,
        update_composition,
    )

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
    json_obj = {}
    for section, key, value in records:
        json_obj.setdefault(section, {})[key] = value
    keys, densities = [], []
    if with_grids:
        grid = np.linspace(0.0, float(upper) * 2.0, grid_points)
        keys = list(map(repr, grid.tolist()))
        densities = density_grid(abundance, grid).tolist()
        json_obj["abundance_density"] = dict(zip(keys, densities))
    _emit(
        ctx,
        lambda: render_csv(
            ["section", "key", "value"],
            records + list(zip(repeat("abundance_density"), keys, densities)),
        ),
        json_obj,
    )


@main.command()
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True)
@click.option("--values", required=True,
              help="Comma-separated axis values (multipliers for r2).")
@click.pass_context
def sensitivity(ctx, axis, values):
    """Re-optimize the design along one input axis."""
    from .design import SENSITIVITY_COLUMNS, sensitivity_sweep
    from .io import render_csv

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
    json_obj = {"axis": axis, "rows": [dict(zip(SENSITIVITY_COLUMNS, r)) for r in rows]}
    _emit(ctx, lambda: render_csv(SENSITIVITY_COLUMNS, rows), json_obj)


@main.command("replicate")
@click.option("--figure", type=click.Choice(FIGURE_CHOICES), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
def replicate_cmd(figure, out_dir):
    """Regenerate the reference scenario data bundles."""
    from .replicate import replicate

    written = replicate(figure, _resolve_out(out_dir))
    for name in written:
        click.echo(name)


if __name__ == "__main__":
    sys.exit(main())
