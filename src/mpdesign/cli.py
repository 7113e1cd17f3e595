"""Command-line front end.

Subcommands: design, curves, posterior, sensitivity, replicate. Inputs come
from a JSON config (see ``mpdesign.config``); tabular results are written as
CSV (default) or JSON. Re-running a command with identical inputs produces
byte-identical output files. If the ``MPDESIGN_OUT_DIR`` environment
variable is set, relative output paths are resolved against it.

The command line is read by the standard library's ``argparse``, on one
parser built once per process (``_parser``), so ``--help`` loads nothing but
this module and the standard library. ``_read`` first walks the arguments:
an option that takes a value takes the next argument whatever it is (so
``--lambda-max -inf`` is a value, not an option), and an unknown option or
command, a stray argument or a value missing at the end is a usage error.

Errors become lines in one place, ``main``. A usage error (those above, a
bad option value, a missing required option) prints the usage line of its
command and one ``Error:`` line, exit 2; a ``ValueError`` from a config, a
campaign or a design the walk refuses ends the command as one ``Error:``
line, exit 1. An echoed option value is cut to 32 characters (``io._cut``).
Any other exception is a bug: a traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import repeat

# The option choices are written here so that ``--help`` and usage errors
# import no other module of the package; a test pins them to
# ``design.SWEEP_AXES`` and ``replicate.FIGURE_IDS``. Each command imports
# what it runs when it runs.
SWEEP_AXES = ("r2", "budget", "prior-mode")
FIGURE_CHOICES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "all")
_MAX_POINTS = 1_000_000  # largest --grid-points and --lambda-points: 8 MB of floats each


class UsageError(Exception):
    """A command line that ``parser`` refuses: exit 2 after its usage line."""

    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


def _cut(text: str) -> str:
    from .io import _cut  # on an error path only: --help loads no io

    return _cut(text)


# -- option values: each converter raises a ValueError whose text follows
# "Invalid value for '<option>': " -------------------------------------------


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{_cut(text)!r} is not a valid integer.") from None


def _abundance(text: str) -> float:
    """A true abundance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{_cut(text)!r} is not a valid float.") from None
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{value!r} is not a finite number >= 0")
    return value


def _point_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{_cut(text)!r} is not a valid integer range.") from None
    if not 2 <= value <= _MAX_POINTS:
        raise ValueError(f"{_cut(str(value))} is not in the range 2<=x<={_MAX_POINTS}.")
    return value


def _mass(text: str) -> float:
    """A probability mass strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{_cut(text)!r} is not a valid float range.") from None
    if value <= 0 or value >= 1:
        raise ValueError(f"{value!r} is not in the range 0<x<1.")
    return value


def _choice(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"{_cut(text)!r} is not one of {listed}.")
        return text

    return convert


# -- the parser ---------------------------------------------------------------


class _Formatter(argparse.HelpFormatter):
    """Help whose usage line starts with ``Usage: ``."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Converted(argparse.Action):
    """Stores ``convert(text)``; a ``ValueError`` from it is a usage error
    that names the option."""

    def __init__(self, *args, convert, **kwargs):
        super().__init__(*args, **kwargs)
        self.convert = convert

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            setattr(namespace, self.dest, self.convert(text))
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{option_string}': {exc}", parser) from None


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option and whose errors are
    ``UsageError``s. ``takes_value`` maps each option to
    whether it takes a value, and ``commands`` each command to its parser."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Formatter, **kwargs)
        self.options = self.add_argument_group("Options")
        self.takes_value: dict[str, bool] = {}
        self.commands: dict[str, _Parser] = {}

    def error(self, message):
        raise UsageError(message, self)

    def option(self, name, convert=None, **kwargs):
        """Add the option ``name``, whose value is its text or ``convert(text)``."""
        self.takes_value[name] = True
        if convert is not None:
            kwargs.update(action=_Converted, convert=convert)
        self.options.add_argument(name, **kwargs)

    def flag(self, name, action="store_true", **kwargs):
        self.takes_value[name] = False
        self.options.add_argument(name, action=action, **kwargs)


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built once per process."""
    parser = _Parser(
        prog="mpdesign",
        usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
        description="Two-stage sampling design and Bayesian inference for microplastic campaigns.",
    )
    parser.option("--config", metavar="PATH", help="JSON config file.")
    parser.option("--format", _choice("csv", "json"), default="csv", metavar="[csv|json]",
                  help="Output format.  [default: csv]")
    parser.option("--out", metavar="PATH", help="Output file (default: stdout).")
    parser.flag("--print-config", help="Echo the parsed config as canonical JSON and exit.")
    subparsers = parser.add_subparsers(
        title="Commands", dest="command", metavar="COMMAND", prog="mpdesign", parser_class=_Parser
    )

    def command(name, run):
        summary = run.__doc__.strip()
        sub = subparsers.add_parser(name, usage="%(prog)s [OPTIONS]", help=summary,
                                    description=summary)
        sub.set_defaults(run=run)
        parser.commands[name] = sub
        return sub

    command("design", design)
    sub = command("curves", curves)
    sub.option("--m", _integer, required=True, metavar="INTEGER",
               help="Number of quadrants.  [required]")
    sub.option("--lambda-min", _abundance, metavar="FLOAT", help="Grid start (exclusive of 0).")
    sub.option("--lambda-max", _abundance, metavar="FLOAT", help="Grid end.")
    sub.option("--lambda-points", _point_count, default=200, metavar="INTEGER RANGE",
               help=f"[default: 200; 2<=x<={_MAX_POINTS}]")
    sub = command("posterior", posterior)
    sub.option("--data", required=True, metavar="PATH", help="Campaign data CSV.  [required]")
    sub.option("--hpd-mass", _mass, default=0.95, metavar="FLOAT RANGE",
               help="[default: 0.95; 0<x<1]")
    sub.flag("--density-grid", help="Append density-grid rows for plotting.")
    sub.option("--grid-points", _point_count, default=500, metavar="INTEGER RANGE",
               help=f"[default: 500; 2<=x<={_MAX_POINTS}]")
    sub = command("sensitivity", sensitivity)
    sub.option("--axis", _choice(*SWEEP_AXES), required=True,
               metavar=f"[{'|'.join(SWEEP_AXES)}]", help="[required]")
    sub.option("--values", required=True, metavar="TEXT",
               help="Comma-separated axis values (multipliers for r2).  [required]")
    sub = command("replicate", replicate_cmd)
    sub.option("--figure", _choice(*FIGURE_CHOICES), required=True,
               metavar=f"[{'|'.join(FIGURE_CHOICES)}]", help="[required]")
    sub.option("--out-dir", required=True, metavar="PATH", help="[required]")
    for each in (parser, *parser.commands.values()):  # last in each help; _read answers it
        each.flag("--help", action="help", help="Show this message and exit.")
    return parser


def _read(args) -> tuple[_Parser | None, list[str]]:
    """(the parser whose help ``--help`` asks for, else None; ``args`` with
    each option that takes a value joined to it, as ``--m=7``).

    An option takes the next argument as its value whatever it is, which
    ``argparse`` does not do for one that starts with ``-``. The first other
    argument names the command. An argument after it, an unknown command, and
    an option that neither the command group nor the command has are usage
    errors. No argument after ``--`` is an option.
    """
    top = _parser()
    scope, command, joined, positional = top, None, [], False
    rest = iter(args)
    for arg in rest:
        if positional or arg == "-" or not arg.startswith("-"):
            if command is not None:
                raise UsageError(f"Got unexpected extra argument ({_cut(arg)})", scope)
            if arg not in top.commands:
                raise UsageError(f"No such command '{_cut(arg)}'.", top)
            command, scope = arg, top.commands[arg]
        elif arg == "--":
            positional = True
            continue
        elif arg == "--help":
            return scope, []
        else:
            name, equals, _ = arg.partition("=")
            if name not in scope.takes_value:
                raise UsageError(f"No such option '{_cut(name)}'.", scope)
            if not scope.takes_value[name] and equals:
                raise UsageError(f"Option '{name}' does not take a value.", scope)
            if scope.takes_value[name] and not equals:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option '{name}' requires an argument.", scope)
                arg = f"{name}={value}"
        joined.append(arg)
    return None, joined


def main(argv=None, standalone_mode=True) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` by default) and return
    its exit status: 0; 1 after one ``Error:`` line; 2 after a usage error.
    ``--help`` prints the help (0), and so does a bare ``mpdesign`` (2). With
    ``standalone_mode=False`` an error is raised (a ``UsageError`` or a
    ``ValueError``) instead of printed."""
    try:
        helped, args = _read(sys.argv[1:] if argv is None else argv)
        if helped is not None:
            sys.stdout.write(helped.format_help())
            return 0
        opts = _parser().parse_args(args)
        if opts.print_config:
            from .io import render_json

            sys.stdout.write(render_json(_load(opts).to_mapping()))
        elif opts.command is None:
            sys.stdout.write(_parser().format_help())
            return 2
        else:
            opts.run(opts)
    except UsageError as exc:
        if not standalone_mode:
            raise
        parser = exc.parser
        sys.stderr.write(
            f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\nError: {exc}\n"
        )
        return 2
    except ValueError as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"Error: {exc}\n")
        return 1
    return 0


# -- the commands ---------------------------------------------------------------


def _resolve_out(path: str) -> str:
    base = os.environ.get("MPDESIGN_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(opts):
    from .config import load_config

    if opts.config is None:
        raise ValueError("--config is required for this command")
    return load_config(opts.config)


def _emit(opts, csv_text, json_obj):
    """Write ``json_obj`` as JSON, or the text ``csv_text()`` returns, to
    ``--out`` or stdout. The CSV is built only when it is the format asked for."""
    from .io import atomic_write_text, render_json

    text = csv_text() if opts.format == "csv" else render_json(json_obj)
    if opts.out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(_resolve_out(opts.out), text)


def design(opts):
    """Optimize the number of quadrants and write the design curve."""
    from .design import DESIGN_COLUMNS, optimize_design
    from .io import render_csv

    loaded = _load(opts)
    cfg = loaded.design
    if cfg.cost.max_quadrants < 1:
        raise ValueError("budget admits no field sampling (feasible quadrant counts: [0])")
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
    _emit(opts, lambda: summary_lines + render_csv(DESIGN_COLUMNS, result.curve.rows), json_obj)


def curves(opts):
    """Second-stage performance across hypothetical true abundances."""
    import numpy as np

    from .design import CURVES_COLUMNS, default_abundance_grid, performance_curve
    from .io import render_csv

    loaded = _load(opts)
    cfg = loaded.design
    m, points = opts.m, opts.lambda_points
    lambda_min, lambda_max = opts.lambda_min, opts.lambda_max
    reason = None
    if lambda_max is None and lambda_min is not None:
        reason = "needs --lambda-max"
    elif lambda_min is not None and lambda_min > lambda_max:
        reason = f"{lambda_min!r} exceeds --lambda-max {lambda_max!r}"
    if reason:
        command = _parser().commands["curves"]
        raise UsageError(f"Invalid value for '--lambda-min': {reason}", command)
    if lambda_max is None:
        grid = default_abundance_grid(cfg, points)
    else:
        lo = lambda_min if lambda_min is not None else lambda_max / points
        grid = np.linspace(lo, lambda_max, points)
    rows = performance_curve(m, grid, cfg)
    json_obj = {"m": m, "rows": [dict(zip(CURVES_COLUMNS, r)) for r in rows]}
    _emit(opts, lambda: f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows), json_obj)


def posterior(opts):
    """Posterior inference for abundance and polymer composition."""
    from .io import parse_campaign_data, render_csv
    from .posterior import (
        _gamma_density,
        _linspace_from_zero,
        hpd_interval,
        naive_abundance_estimate,
        update_abundance,
        update_composition,
    )

    loaded = _load(opts)
    cfg = loaded.design
    data = parse_campaign_data(opts.data, cfg.cost.quadrant_area, loaded.class_names)
    obs = data.observations
    hpd_mass = opts.hpd_mass
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
    if opts.density_grid:
        grid = _linspace_from_zero(upper * 2.0, opts.grid_points)
        keys = list(map(repr, grid))
        densities = _gamma_density(abundance, grid)
        json_obj["abundance_density"] = dict(zip(keys, densities))
    _emit(
        opts,
        lambda: render_csv(
            ["section", "key", "value"],
            records + list(zip(repeat("abundance_density"), keys, densities)),
        ),
        json_obj,
    )


def sensitivity(opts):
    """Re-optimize the design along one input axis."""
    from .design import SENSITIVITY_COLUMNS, sensitivity_sweep
    from .io import render_csv

    loaded = _load(opts)
    parsed = []
    for entry in filter(str.strip, opts.values.split(",")):
        try:
            parsed.append(float(entry))
        except ValueError:
            raise ValueError(f"bad --values entry {_cut(entry)!r}: not a number") from None
    if not parsed:
        raise ValueError("--values must contain at least one number")
    rows = sensitivity_sweep(loaded.design, opts.axis, parsed)
    json_obj = {"axis": opts.axis, "rows": [dict(zip(SENSITIVITY_COLUMNS, r)) for r in rows]}
    _emit(opts, lambda: render_csv(SENSITIVITY_COLUMNS, rows), json_obj)


def replicate_cmd(opts):
    """Regenerate the reference scenario data bundles."""
    from .replicate import replicate

    for name in replicate(opts.figure, _resolve_out(opts.out_dir)):
        print(name)


if __name__ == "__main__":
    sys.exit(main())
