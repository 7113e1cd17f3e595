"""Command-line front end.

Subcommands: design, curves, posterior, sensitivity, replicate. Inputs come
from a JSON config (see ``mpdesign.config``); tabular results are written as
CSV (default) or JSON. Re-running a command with identical inputs produces
byte-identical output files. If the ``MPDESIGN_OUT_DIR`` environment
variable is set, relative output paths are resolved against it.

Every option of the command group and of each command is one row of one
table, ``_OPTIONS``. ``_read`` walks the arguments once against it, and
``_help`` writes each help from it in a fixed layout that does not depend on
the terminal, so ``--help`` loads nothing but this module and the standard
library.

Errors become lines in one place, ``main``. A usage error (an unknown option
or command, a stray argument, a missing value, a bad option value, a missing
required option) prints the usage line of its command and one ``Error:``
line, exit 2; a ``ValueError`` from a config, a campaign or a design the walk
refuses ends the command as one ``Error:`` line, exit 1. An echoed option
value is cut to 32 characters (``io._cut``). Any other exception is a bug: a
traceback.
"""

from __future__ import annotations

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
    """A command line that ``command`` (None for the command group) refuses:
    exit 2 after its usage line."""

    def __init__(self, message: str, command: str | None):
        super().__init__(message)
        self.command = command


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


# -- the option table -----------------------------------------------------------

_REQUIRED = object()  # the default of a required option
_HELP = ("--help", None, False, "", "Show this message and exit.")  # last in each help

# Each scope's options, the command group's under None, then each command's
# in the order of the group's help: (name, converter, default, metavar, help).
# A flag's converter is None and its default False. ``_COMMANDS``, at the end
# of the module, holds the function that runs each command.
_OPTIONS = {
    None: (
        ("--config", str, None, "PATH", "JSON config file."),
        ("--format", _choice("csv", "json"), "csv", "[csv|json]",
         "Output format.  [default: csv]"),
        ("--out", str, None, "PATH", "Output file (default: stdout)."),
        ("--print-config", None, False, "", "Echo the parsed config as canonical JSON and exit."),
    ),
    "design": (),
    "curves": (
        ("--m", _integer, _REQUIRED, "INTEGER", "Number of quadrants.  [required]"),
        ("--lambda-min", _abundance, None, "FLOAT", "Grid start (exclusive of 0)."),
        ("--lambda-max", _abundance, None, "FLOAT", "Grid end."),
        ("--lambda-points", _point_count, 200, "INTEGER RANGE",
         f"[default: 200; 2<=x<={_MAX_POINTS}]"),
    ),
    "posterior": (
        ("--data", str, _REQUIRED, "PATH", "Campaign data CSV.  [required]"),
        ("--hpd-mass", _mass, 0.95, "FLOAT RANGE", "[default: 0.95; 0<x<1]"),
        ("--density-grid", None, False, "", "Append density-grid rows for plotting."),
        ("--grid-points", _point_count, 500, "INTEGER RANGE",
         f"[default: 500; 2<=x<={_MAX_POINTS}]"),
    ),
    "sensitivity": (
        ("--axis", _choice(*SWEEP_AXES), _REQUIRED, f"[{'|'.join(SWEEP_AXES)}]", "[required]"),
        ("--values", str, _REQUIRED, "TEXT",
         "Comma-separated axis values (multipliers for r2).  [required]"),
    ),
    "replicate": (
        ("--figure", _choice(*FIGURE_CHOICES), _REQUIRED, f"[{'|'.join(FIGURE_CHOICES)}]",
         "[required]"),
        ("--out-dir", str, _REQUIRED, "PATH", "[required]"),
    ),
}


def _key(name: str) -> str:
    """The key of option ``name``'s value: ``--lambda-min`` -> ``lambda_min``."""
    return name[2:].replace("-", "_")


def _read(args) -> tuple[str | None, dict | None]:
    """(the command, or None for the bare group; the value of each option of
    the group and the command by ``_key``, or None if ``--help`` asks for the
    command's help).

    An option takes the next argument as its value whatever it is (so
    ``--lambda-max -inf`` and ``--lambda-max --`` give values), or the text
    after ``=`` in ``--opt=value``. Options are not abbreviated; a repeated
    option's values are each converted, and the last one wins. The first
    other argument names the command, so the group's options come before it.
    No argument after ``--`` is an option. The errors come in this order:
    first an unknown option or command, an argument after the command, a
    missing value or a value given to a flag, as the walk meets it; then a
    value that its converter refuses, in the order given; last the required
    options left out.
    """
    command, given, positional = None, [], False
    rest = iter(args)
    for arg in rest:
        if positional or arg == "-" or not arg.startswith("-"):
            if command is not None:
                raise UsageError(f"Got unexpected extra argument ({_cut(arg)})", command)
            if arg not in _OPTIONS:
                raise UsageError(f"No such command '{_cut(arg)}'.", None)
            command = arg
            continue
        if arg == "--":
            positional = True
            continue
        if arg == "--help":
            return command, None
        name, equals, text = arg.partition("=")
        option = next((o for o in (*_OPTIONS[command], _HELP) if o[0] == name), None)
        if option is None:
            raise UsageError(f"No such option '{_cut(name)}'.", command)
        if option[1] is None and equals:
            raise UsageError(f"Option '{name}' does not take a value.", command)
        if option[1] is not None and not equals:
            text = next(rest, None)
            if text is None:
                raise UsageError(f"Option '{name}' requires an argument.", command)
        given.append((command, option, text))
    options = _OPTIONS[None] if command is None else _OPTIONS[None] + _OPTIONS[command]
    values = {_key(name): default for name, _, default, *_ in options}
    for scope, (name, convert, *_), text in given:
        try:
            values[_key(name)] = True if convert is None else convert(text)
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{name}': {exc}", scope) from None
    missing = [name for name, *_ in options if values[_key(name)] is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    return command, values


def _usage(command: str | None) -> str:
    if command is None:
        return "Usage: mpdesign [OPTIONS] COMMAND [ARGS]..."
    return f"Usage: mpdesign {command} [OPTIONS]"


def _help(command: str | None) -> str:
    """The help of ``command`` (None for the group): its usage line, summary,
    options and, for the group, the commands, each list in two columns."""

    def rows(pairs):
        width = max(len(left) for left, _ in pairs) + 2
        return [f"  {left:<{width}}{right}" for left, right in pairs]

    summary = (
        "Two-stage sampling design and Bayesian inference for microplastic campaigns."
        if command is None
        else _COMMANDS[command].__doc__.strip()
    )
    lines = [_usage(command), "", summary, "", "Options:"]
    lines += rows([
        (f"{name} {metavar}".rstrip(), text)
        for name, _, _, metavar, text in (*_OPTIONS[command], _HELP)
    ])
    if command is None:
        lines += ["", "Commands:"]
        lines += rows([(name, run.__doc__.strip()) for name, run in _COMMANDS.items()])
    return "\n".join(lines) + "\n"


def main(argv=None, standalone_mode=True) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` by default) and return
    its exit status: 0; 1 after one ``Error:`` line; 2 after a usage error.
    ``--help`` prints the help (0), and so does a bare ``mpdesign`` (2). With
    ``standalone_mode=False`` an error is raised (a ``UsageError`` or a
    ``ValueError``) instead of printed."""
    try:
        command, opts = _read(sys.argv[1:] if argv is None else argv)
        if opts is None:
            sys.stdout.write(_help(command))
            return 0
        if opts["print_config"]:
            from .io import render_json

            sys.stdout.write(render_json(_load(opts).to_mapping()))
        elif command is None:
            sys.stdout.write(_help(None))
            return 2
        else:
            _COMMANDS[command](opts)
    except UsageError as exc:
        if not standalone_mode:
            raise
        prog = "mpdesign" if exc.command is None else f"mpdesign {exc.command}"
        sys.stderr.write(
            f"{_usage(exc.command)}\nTry '{prog} --help' for help.\n\nError: {exc}\n"
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

    if opts["config"] is None:
        raise ValueError("--config is required for this command")
    return load_config(opts["config"])


def _emit(opts, csv_text, json_obj):
    """Write ``json_obj`` as JSON, or the text ``csv_text()`` returns, to
    ``--out`` or stdout. The CSV is built only when it is the format asked for."""
    from .io import atomic_write_text, render_json

    text = csv_text() if opts["format"] == "csv" else render_json(json_obj)
    if opts["out"] is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(_resolve_out(opts["out"]), text)


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
    from ._special import _linspace
    from .design import CURVES_COLUMNS, default_abundance_grid, performance_curve
    from .io import render_csv

    loaded = _load(opts)
    cfg = loaded.design
    m, points = opts["m"], opts["lambda_points"]
    lambda_min, lambda_max = opts["lambda_min"], opts["lambda_max"]
    reason = None
    if lambda_max is None and lambda_min is not None:
        reason = "needs --lambda-max"
    elif lambda_min is not None and lambda_min > lambda_max:
        reason = f"{lambda_min!r} exceeds --lambda-max {lambda_max!r}"
    if reason:
        raise UsageError(f"Invalid value for '--lambda-min': {reason}", "curves")
    if lambda_max is None:
        grid = default_abundance_grid(cfg, points)
    else:
        lo = lambda_min if lambda_min is not None else lambda_max / points
        grid = _linspace(lo, lambda_max, points)
    rows = performance_curve(m, grid, cfg)
    json_obj = {"m": m, "rows": [dict(zip(CURVES_COLUMNS, r)) for r in rows]}
    _emit(opts, lambda: f"# m: {m}\n" + render_csv(CURVES_COLUMNS, rows), json_obj)


def posterior(opts):
    """Posterior inference for abundance and polymer composition."""
    from ._special import _linspace
    from .io import parse_campaign_data, render_csv
    from .posterior import (
        _gamma_density,
        hpd_interval,
        naive_abundance_estimate,
        update_abundance,
        update_composition,
    )

    loaded = _load(opts)
    cfg = loaded.design
    data = parse_campaign_data(opts["data"], cfg.cost.quadrant_area, loaded.class_names)
    obs = data.observations
    hpd_mass = opts["hpd_mass"]
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
    if opts["density_grid"]:
        grid = _linspace(0.0, upper * 2.0, opts["grid_points"])
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
    for entry in filter(str.strip, opts["values"].split(",")):
        try:
            parsed.append(float(entry))
        except ValueError:
            raise ValueError(f"bad --values entry {_cut(entry)!r}: not a number") from None
    if not parsed:
        raise ValueError("--values must contain at least one number")
    rows = sensitivity_sweep(loaded.design, opts["axis"], parsed)
    json_obj = {"axis": opts["axis"], "rows": [dict(zip(SENSITIVITY_COLUMNS, r)) for r in rows]}
    _emit(opts, lambda: render_csv(SENSITIVITY_COLUMNS, rows), json_obj)


def replicate_cmd(opts):
    """Regenerate the reference scenario data bundles."""
    from .replicate import replicate

    for name in replicate(opts["figure"], _resolve_out(opts["out_dir"])):
        print(name)


_COMMANDS = {
    "design": design,
    "curves": curves,
    "posterior": posterior,
    "sensitivity": sensitivity,
    "replicate": replicate_cmd,
}


if __name__ == "__main__":
    sys.exit(main())
