"""Command-line front end.

Subcommands: design, curves, posterior, sensitivity, replicate. Inputs come
from a JSON config (see ``mpdesign.config``); tabular results are written as
CSV (default) or JSON. Re-running a command with identical inputs produces
byte-identical output files. If the ``MPDESIGN_OUT_DIR`` environment
variable is set, relative output paths are resolved against it.

Errors become lines in one place, ``_Commands.invoke``: a ``ValueError`` from
a config, a campaign or a design the walk refuses ends the command as one
``Error:`` line with exit 1, and a bad command option's message quotes at
most 32 characters of its value. Any other exception is a bug: a traceback.
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
_MAX_POINTS = 1_000_000  # largest --grid-points and --lambda-points: 8 MB of floats each


def _resolve_out(path: str) -> str:
    base = os.environ.get("MPDESIGN_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(ctx):
    from .config import load_config

    opts = ctx.obj
    if opts["config"] is None:
        raise click.ClickException("--config is required for this command")
    return load_config(opts["config"])


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


class _Commands(click.Group):
    """Ends a ``ValueError`` from the group callback or a command as a
    ``ClickException``, and cuts the value a bad command option's message
    quotes to 32 characters (``io._cut``): Click quotes a number whole, as
    ``'<value>' is not a valid integer.`` or ``<value> is not in the range
    ...``, so the echo before the last " is not " is cut."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.BadParameter as exc:
            from .io import _cut

            echo, phrase, rest = exc.message.rpartition(" is not ")
            if phrase:
                quoted = len(echo) > 1 and echo[0] == echo[-1] == "'"
                exc.message = (f"'{_cut(echo[1:-1])}'" if quoted else _cut(echo)) + phrase + rest
            raise
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands, invoke_without_command=True)
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
        from .io import render_json

        click.echo(render_json(_load(ctx).to_mapping()), nl=False)
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(2)


@main.command()
@click.pass_context
def design(ctx):
    """Optimize the number of quadrants and write the design curve."""
    from .design import DESIGN_COLUMNS, optimize_design
    from .io import render_csv

    loaded = _load(ctx)
    cfg = loaded.design
    if cfg.cost.max_quadrants < 1:
        raise click.ClickException(
            "budget admits no field sampling (feasible quadrant counts: [0])"
        )
    result = optimize_design(cfg)
    summary = {
        "m_star": result.m_star,
        "sampled_area": result.optimal_row.area,
        "typical_n": result.typical_n,
        "typical_n_bar": result.typical_n_bar,
    }
    summary_lines = (
        "".join(f"# {k}: {v!r}\n" for k, v in summary.items())
        + "# budget_split: "
        + " ".join(f"{k}={v!r}" for k, v in result.budget_split.items())
        + "\n"
    )
    json_obj = {
        **summary,
        "budget_split": result.budget_split,
        "q_policy": (
            f"after counting n particles over {result.m_star} quadrants, categorize "
            f"n_bar = floor(n * q) with q = q({result.m_star}*A, n) from the budget rule"
        ),
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
@click.option("--lambda-points", type=click.IntRange(2, _MAX_POINTS), default=200,
              show_default=True)
@click.pass_context
def curves(ctx, m, lambda_min, lambda_max, lambda_points):
    """Second-stage performance across hypothetical true abundances."""
    import numpy as np

    from .design import CURVES_COLUMNS, default_abundance_grid, performance_curve
    from .io import render_csv

    loaded = _load(ctx)
    cfg = loaded.design
    if lambda_max is None and lambda_min is not None:
        raise click.BadParameter("needs --lambda-max", param_hint="'--lambda-min'")
    if lambda_min is not None and lambda_min > lambda_max:
        raise click.BadParameter(
            f"{lambda_min!r} exceeds --lambda-max {lambda_max!r}", param_hint="'--lambda-min'"
        )
    if lambda_max is None:
        grid = default_abundance_grid(cfg, lambda_points)
    else:
        lo = lambda_min if lambda_min is not None else lambda_max / lambda_points
        grid = np.linspace(lo, lambda_max, lambda_points)
    rows = performance_curve(m, grid, cfg)
    json_obj = {"m": m, "rows": [dict(zip(CURVES_COLUMNS, r)) for r in rows]}
    _emit(ctx, lambda: f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows), json_obj)


def _linspace_from_zero(stop: float, points: int) -> list[float]:
    """``np.linspace(0.0, stop, points).tolist()`` for points >= 2, in its
    steps: i * (stop / (points - 1)), or (i / (points - 1)) * stop where that
    step underflows to 0, and the last point ``stop`` itself."""
    div = points - 1
    step = stop / div
    if step:
        grid = [i * step for i in range(div)]
    else:
        grid = [i / div * stop for i in range(div)]
    grid.append(stop)
    return grid


@main.command()
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="Campaign data CSV.")
@click.option("--hpd-mass", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.95, show_default=True)
@click.option("--density-grid", "with_grids", is_flag=True,
              help="Append density-grid rows for plotting.")
@click.option("--grid-points", type=click.IntRange(2, _MAX_POINTS), default=500,
              show_default=True)
@click.pass_context
def posterior(ctx, data_path, hpd_mass, with_grids, grid_points):
    """Posterior inference for abundance and polymer composition."""
    from .io import parse_campaign_data, render_csv
    from .posterior import (
        _gamma_density,
        hpd_interval,
        naive_abundance_estimate,
        update_abundance,
        update_composition,
    )

    loaded = _load(ctx)
    cfg = loaded.design
    data = parse_campaign_data(data_path, cfg.cost.quadrant_area, loaded.class_names)
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
        grid = _linspace_from_zero(upper * 2.0, grid_points)
        keys = list(map(repr, grid))
        densities = _gamma_density(abundance, grid)
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
    from .io import _cut, render_csv

    loaded = _load(ctx)
    parsed = []
    for entry in filter(str.strip, values.split(",")):
        try:
            parsed.append(float(entry))
        except ValueError as exc:
            raise click.ClickException(f"bad --values entry {_cut(entry)!r}: not a number") from exc
    if not parsed:
        raise click.ClickException("--values must contain at least one number")
    rows = sensitivity_sweep(loaded.design, axis, parsed)
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
