"""Span tracing of the program's layers, installed from outside the program.

:func:`install` wraps each layer's public functions and rebinds the wrapper
in every ``mpdesign.*`` namespace that imported the function, so a call made
through any of them is recorded. A function or module that no longer exists
is skipped, and its layer then reports zero calls. Spans (layer, start, end,
parent, invocation) are kept in memory; :func:`summarize` turns them into
per-layer calls, inclusive time and self time, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ROOT_LAYER = "cli"


def _count_design(counts, args, kwargs, result):
    rows = result.curve.rows
    config = args[0] if args else kwargs["config"]
    sampled = sum(1 for r in rows if r.m > 0)
    counts["design.points"] += len(rows)
    counts["design.draws"] += sampled * int(getattr(config, "mc_draws", 0))


def _count_expected_loss(counts, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    counts["design.points"] += 1
    counts["design.draws"] += int(getattr(config, "mc_draws", 0))


def _count_kernel(counts, args, kwargs, result):
    arr = np.asarray(args[0])
    counts["kernels.elems"] += arr.size
    counts["kernels.bytes_computed"] += arr.nbytes + np.asarray(result).nbytes


def _count_generator(counts, args, kwargs, result):
    counts["rng.generators"] += 1


def _count_density(counts, args, kwargs, result):
    counts["posterior.density.points"] += np.size(args[1] if len(args) > 1 else kwargs["grid"])


def _count_render(counts, args, kwargs, result):
    counts["io.render.bytes"] += len(result.encode("utf-8"))


def _count_parse(counts, args, kwargs, result):
    counts["io.parse.rows"] += result.observations.m + len(result.class_counts or ())


def _count_write(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["io.write.files"] += 1
    counts["io.write.bytes"] += len(text.encode("utf-8"))


# (layer, module, attribute path, counter). The layer names are this
# repository's module names; posterior and io are split by role.
BOUNDARIES = (
    ("config.load", "mpdesign.config", "load_config", None),
    ("design", "mpdesign.design", "optimize_design", _count_design),
    ("design", "mpdesign.design", "expected_total_loss", _count_expected_loss),
    ("design", "mpdesign.design", "sensitivity_sweep", None),
    ("design", "mpdesign.design", "performance_curve", None),
    ("design", "mpdesign.design", "default_abundance_grid", None),
    ("kernels", "mpdesign.kernels", "l2_star_batch", _count_kernel),
    ("rng", "mpdesign.rng", "RandomStream.generator", _count_generator),
    ("rng", "mpdesign.rng", "RandomStream.child", None),
    ("cost", "mpdesign.cost", "categorization_fraction", None),
    ("cost", "mpdesign.cost", "normalized_cost", None),
    ("cost", "mpdesign.cost", "feasible_designs", None),
    ("cost", "mpdesign.cost", "CostModel.from_budget_quadrants", None),
    ("cost", "mpdesign.cost", "CostModel.from_raw_costs", None),
    ("loss", "mpdesign.loss", "l1_expected", None),
    ("loss", "mpdesign.loss", "l1_realized", None),
    ("loss", "mpdesign.loss", "l2_expected", None),
    ("loss", "mpdesign.loss", "l2_realized", None),
    ("distributions", "mpdesign.distributions", "GammaParams.from_mode", None),
    ("distributions", "mpdesign.distributions", "GammaParams.mean", None),
    ("distributions", "mpdesign.distributions", "GammaParams.variance", None),
    ("distributions", "mpdesign.distributions", "GammaParams.mode", None),
    ("distributions", "mpdesign.distributions", "DirichletParams.symmetric", None),
    ("distributions", "mpdesign.distributions", "gamma_sample", None),
    ("distributions", "mpdesign.distributions", "poisson_sample", None),
    ("distributions", "mpdesign.distributions", "predictive_total_count", None),
    ("distributions", "mpdesign.distributions", "dirichlet_sample", None),
    ("posterior.hpd", "mpdesign.posterior", "hpd_interval", None),
    ("posterior.density", "mpdesign.posterior", "density_grid", _count_density),
    ("posterior.update", "mpdesign.posterior", "update_abundance", None),
    ("posterior.update", "mpdesign.posterior", "update_composition", None),
    ("posterior.misc", "mpdesign.posterior", "naive_abundance_estimate", None),
    ("posterior.misc", "mpdesign.posterior", "apportion_counts", None),
    ("posterior.misc", "mpdesign.posterior", "synthesize_expected_data", None),
    ("io.render", "mpdesign.io", "render_csv", _count_render),
    ("io.render", "mpdesign.io", "render_json", _count_render),
    ("io.parse", "mpdesign.io", "parse_campaign_data", _count_parse),
    ("io.write", "mpdesign.io", "atomic_write_text", _count_write),
    ("replicate", "mpdesign.replicate", "replicate", None),
)

LAYERS = (ROOT_LAYER,) + tuple(dict.fromkeys(layer for layer, *_ in BOUNDARIES))
COUNTS = (
    "design.points",
    "design.draws",
    "kernels.elems",
    "kernels.bytes_computed",
    "rng.generators",
    "posterior.hpd.root_calls",
    "posterior.density.points",
    "io.render.bytes",
    "io.parse.rows",
    "io.write.files",
    "io.write.bytes",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, invocation]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = 0

    def span(self, layer: str, fn, counter=None):
        """``fn`` wrapped so each call records a span (and its counts)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.invocation]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # the layer's signature changed; its counts stay at zero
            return result

        return traced

    def count_calls(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class _CountingModule:
    """Stands in for ``scipy.optimize`` inside one namespace, counting brentq calls."""

    def __init__(self, module, brentq):
        self._module = module
        self.brentq = brentq

    def __getattr__(self, name):
        return getattr(self._module, name)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mpdesign" and m]


def _rebind(original, replacement, undo):
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))


def _wrap_attribute(tracer, layer, module, path, counter, undo):
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.span(layer, raw.__func__, counter))
        else:
            wrapped = tracer.span(layer, raw, counter)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
        return
    original = getattr(module, attr, None)
    if callable(original):
        _rebind(original, tracer.span(layer, original, counter), undo)


def _count_root_finding(tracer, undo):
    """Count scipy.optimize.brentq calls made from the package (the HPD search)."""
    try:
        import scipy.optimize as optimize
    except ImportError:
        return
    counted = tracer.count_calls("posterior.hpd.root_calls", optimize.brentq)
    _rebind(optimize.brentq, counted, undo)
    _rebind(optimize, _CountingModule(optimize, counted), undo)


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary that exists; returns the undo list for :func:`uninstall`."""
    undo: list = []
    for layer, module_name, path, counter in BOUNDARIES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        _wrap_attribute(tracer, layer, module, path, counter, undo)
    _count_root_finding(tracer, undo)
    return undo


def uninstall(undo: list):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0  # time covered by the layer's outermost spans
    self_s: float = 0.0


@dataclass
class Summary:
    layers: dict[str, LayerTotals] = field(default_factory=dict)
    root_s: float = 0.0  # time covered by root spans


def summarize(spans: list[list]) -> Summary:
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    summary = Summary({layer: LayerTotals() for layer in LAYERS})
    for index, (layer, start, end, parent, _) in enumerate(spans):
        totals = summary.layers.setdefault(layer, LayerTotals())
        duration = end - start
        totals.calls += 1
        totals.self_s += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals.total_s += duration
        if parent < 0:
            summary.root_s += duration
    return summary
