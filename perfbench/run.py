"""End-to-end and per-layer benchmark of the mpdesign command line.

Run from the root of a source checkout (the package is imported from
``src``, nothing needs installing)::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 40 --trace 0

``--workload`` is ``design-sweep``, ``posterior-batch``, ``replicate-designs`` or
``all``. Each workload is a seeded list of CLI invocations (one pass); a run
repeats whole passes within its time budget. With ``--trace 0`` it runs, after
one in-process warm-up pass, each invocation in turn:

* cold: as a fresh process, one at a time (closed loop, one client), with its
  wall time and peak RSS;
* warm: then in this process through
  ``mpdesign.cli.main(args, standalone_mode=False)``, ``warm_repeats`` times;

and, up to four times a pass and at least two invocations apart, a fresh
``python -m mpdesign.cli --help`` for the set-up time. End-to-end times are
scaled by a probe run after every sample (see ``PROBE_REF_S``).

With ``--trace 1`` it measures import time with ``python -X importtime`` and
then alternates untraced and traced in-process passes; the traced passes wrap
each layer's public functions (see ``tracer.py``) to report per-layer calls,
time and work counts.

Every output is checked against an independent reference (``checks.py``); a
failed check counts as a failed invocation. The report is printed as
``name value unit`` lines, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, samples, spans) goes to ``.perfbench_out/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer as tracing
import workloads

SETUPS_PER_PASS = 4  # at most, and at least two invocations apart
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# A shared host's speed swings by a third over seconds and drifts over
# minutes, moving every timing with it. A fixed arithmetic loop (the probe)
# runs after every sample; each end-to-end sample is reported scaled to a
# host on which the probe takes PROBE_REF_S:
#     seconds * PROBE_REF_S / median of the probes within PROBE_WINDOW samples.
# The raw medians are printed beside the scaled ones.
PROBE_REF_S = 0.025
PROBE_LOOPS = 300_000
PROBE_WINDOW = 4
MAX_FAILURES_SHOWN = 3  # per phase, on stderr

END_TO_END = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "warm_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {}
for _layer in tracing.LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.total_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
for _count in tracing.COUNTS:
    PER_LAYER_UNITS[_count] = "bytes" if "bytes" in _count else "count"
PER_LAYER_UNITS.update(
    {
        "kernels.elems_per_s": "Melem/s",
        "design.l_star_err_max": "1",
        "import.cli_s": "s",
        "import.posterior_s": "s",
        "import.numpy_s": "s",
        "import.modules": "count",
        "trace.warm_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    }
)


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    error: str = ""
    l_star_err: float = 0.0
    design_points: int = 0
    campaigns: int = 0
    max_rss_kb: int = 0
    scaled: float = 0.0  # seconds on the reference host (see PROBE_REF_S)
    invocation: int = -1  # index in the workload's invocation list
    probe_index: int = -1  # the probe taken just before this sample


def probe() -> float:
    """Seconds taken by a fixed pure-Python arithmetic loop."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, work_dir: Path):
        self.root = root
        self.workload = workload
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.samples: dict[str, list[Sample]] = {}
        self.probes: list[float] = []
        self._dirs = 0
        self._spawner = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self):
        """Stop the launcher process and wait for it."""
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    # -- bookkeeping -------------------------------------------------------

    def record(self, phase: str, sample: Sample):
        samples = self.samples.setdefault(phase, [])
        samples.append(sample)
        if not sample.ok and sum(not s.ok for s in samples) <= MAX_FAILURES_SHOWN:
            print(f"FAILED {phase} {sample.kind}: {sample.error}", file=sys.stderr)

    def record_scaled(self, phase: str, sample: Sample):
        """Record a sample taken right after the last probe, and probe again."""
        sample.probe_index = len(self.probes) - 1
        self.probes.append(probe())
        self.record(phase, sample)

    def scale_samples(self):
        """Set ``scaled`` on each probed sample from the probes around it."""
        for samples in self.samples.values():
            for s in samples:
                if s.probe_index >= 0:
                    k = s.probe_index
                    near = self.probes[max(0, k - PROBE_WINDOW) : k + PROBE_WINDOW + 2]
                    s.scaled = s.seconds * PROBE_REF_S / statistics.median(near)

    def fresh_dir(self) -> str:
        self._dirs += 1
        return str(self.work_dir / f"out{self._dirs}")

    def check(self, inv: workloads.Invocation, stdout: str, out_dir, seconds, rss=0) -> Sample:
        sample = Sample(inv.kind, seconds, True, design_points=inv.design_points,
                        campaigns=inv.campaigns, max_rss_kb=rss)
        try:
            sample.l_star_err = inv.check(stdout, out_dir)
        except Exception as exc:  # any malformed output is a failed invocation
            sample.ok, sample.error = False, f"{type(exc).__name__}: {exc}"
            sample.l_star_err = getattr(exc, "l_star_err", 0.0)
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        return sample

    # -- fresh processes ---------------------------------------------------

    def spawn(self, argv: list[str]):
        """Run one child to completion: (wall s, exit code, max RSS KB, stdout, stderr)."""
        out_path, err_path = self.work_dir / "child.out", self.work_dir / "child.err"
        request = {
            "argv": argv,
            "env": self.env,
            "cwd": str(self.work_dir),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        code = "timeout" if reply["timed_out"] else reply["code"]
        return reply["wall"], code, reply["max_rss_kb"], out_path.read_text(), err_path.read_text()

    def cli_argv(self, args):
        return [sys.executable, "-m", "mpdesign.cli", *args]

    def cold(self, inv: workloads.Invocation) -> Sample:
        out_dir = self.fresh_dir() if inv.needs_out_dir else None
        wall, code, rss, stdout, stderr = self.spawn(self.cli_argv(inv.argv(out_dir)))
        if code != 0:
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
            return Sample(inv.kind, wall, False, f"exit {code}: {stderr.strip()[-500:]}", max_rss_kb=rss)
        return self.check(inv, stdout, out_dir, wall, rss)

    def setup(self) -> Sample:
        wall, code, rss, stdout, stderr = self.spawn(self.cli_argv(["--help"]))
        ok = code == 0 and "Usage:" in stdout
        return Sample("help", wall, ok, "" if ok else f"exit {code}: {stderr[-500:]}", max_rss_kb=rss)

    def importtime(self) -> dict:
        _, code, _, _, stderr = self.spawn([sys.executable, "-X", "importtime", "-c", "import mpdesign.cli"])
        if code != 0:
            raise RuntimeError(f"import failed: {stderr[-500:]}")
        return parse_importtime(stderr)

    # -- in-process --------------------------------------------------------

    def warm(self, main, inv: workloads.Invocation) -> Sample:
        out_dir = self.fresh_dir() if inv.needs_out_dir else None
        argv = inv.argv(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = main(argv, standalone_mode=False)
            except (Exception, SystemExit) as exc:
                code, error = 1, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if code not in (None, 0):
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
            return Sample(inv.kind, seconds, False, error or f"returned {code}: {stderr.getvalue()[-500:]}")
        return self.check(inv, stdout.getvalue(), out_dir, seconds)

    def run_passes(self, budget_s: float, one_pass):
        """Whole passes: start another only if it fits in the budget (at least one)."""
        start, last, passes = time.perf_counter(), 0.0, 0
        while passes == 0 or (time.perf_counter() - start) + last <= budget_s:
            t0 = time.perf_counter()
            one_pass()
            last = time.perf_counter() - t0
            passes += 1
        return passes


def parse_importtime(stderr: str) -> dict:
    """Import metrics of ``import mpdesign.cli`` from ``-X importtime`` output.

    Entries print children before parents; a top-level entry's block is the
    entries printed since the previous top-level one.
    """
    cumulative, modules, pending = {}, 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line.split("|")
        cum = cum.strip()
        label = name[1:]
        depth = len(label) - len(label.lstrip(" "))
        module = label.strip()
        cumulative.setdefault(module, int(cum) * 1e-6)
        pending += 1
        if depth == 0:
            if module.split(".")[0] == "mpdesign":
                modules += pending
            pending = 0
    return {
        "import.cli_s": cumulative.get("mpdesign.cli", 0.0),
        "import.posterior_s": cumulative.get("mpdesign.posterior", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.modules": modules,
    }


def tail(values):
    """(value, label): the highest percentile with TAIL_BEYOND samples beyond it,
    or the maximum when that percentile would not lie above the median."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if k > (n - 1) / 2:
        return xs[k], f"p{100 * (k + 1) // n} of {n}"
    return xs[-1], f"max of {n} (fewer than {2 * TAIL_BEYOND + 1} samples)"


def per_invocation_p50(samples, field: str) -> float:
    """Mean over the invocation list of each invocation's median ``field``.

    A pass mixes invocations of different sizes, so the median of all samples
    falls between two of them and flips with noise; each invocation's own
    median does not.
    """
    by_invocation = {}
    for s in samples:
        by_invocation.setdefault(s.invocation, []).append(getattr(s, field))
    return statistics.mean(statistics.median(v) for v in by_invocation.values())


def run_trace0(bench: Bench, seconds: float):
    """Fresh-process, in-process and set-up samples, interleaved so that each
    metric samples the whole run (the host's speed wanders over seconds)."""
    from mpdesign.cli import main

    inv_list = bench.workload.invocations
    for inv in inv_list:
        bench.record("warmup", bench.warm(main, inv))
    bench.probes.append(probe())
    setup_every = max(2, -(-len(inv_list) // SETUPS_PER_PASS))
    count = 0

    def one_pass():
        nonlocal count
        for index, inv in enumerate(inv_list):
            if count % setup_every == 0:
                bench.record_scaled("setup", bench.setup())
            count += 1
            bench.record_scaled("cold", bench.cold(inv))
            for _ in range(bench.workload.warm_repeats):
                sample = bench.warm(main, inv)
                sample.invocation = index
                bench.record_scaled("warm", sample)

    bench.run_passes(seconds, one_pass)
    bench.scale_samples()

    setup, cold, warm = (bench.samples[p] for p in ("setup", "cold", "warm"))
    work = sum(s.design_points + s.campaigns for s in cold)
    metrics = {
        "setup_s": statistics.median(s.scaled for s in setup),
        "wall_p50_s": statistics.median(s.scaled for s in cold),
        "warm_p50_s": per_invocation_p50(warm, "scaled"),
        "items_per_s": work / sum(s.scaled for s in cold),
        "peak_rss_mb": max(s.max_rss_kb for s in cold) / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(s.seconds for s in setup),
        "wall_p50_s": statistics.median(s.seconds for s in cold),
        "warm_p50_s": per_invocation_p50(warm, "seconds"),
        "items_per_s": work / sum(s.seconds for s in cold),
    }
    walls = [s.scaled for s in cold]
    tail_value, tail_label = tail(walls)
    rate_name = "campaigns_per_s" if bench.workload.name == "posterior-batch" else "design_points_per_s"
    notes = {
        "setup_s": f"median of {len(setup)} fresh `--help` processes",
        "wall_p50_s": f"median of {len(cold)} fresh processes",
        "warm_p50_s": f"mean over the {len(inv_list)} invocations of each one's median; "
                      f"{len(warm)} in-process samples",
        "items_per_s": f"{rate_name}: work items per second of cold wall time",
        "peak_rss_mb": "max ru_maxrss over the workload's child processes",
    }
    for key, value in raw.items():
        notes[key] += f"; {value:.6g} unscaled"
    report = [
        ("wall_tail_s", tail_value, "s", tail_label),
        (rate_name, metrics["items_per_s"], "1/s", "same value as items_per_s"),
        ("probe_s", statistics.median(bench.probes), "s",
         f"median of {len(bench.probes)} probes; times are scaled to {PROBE_REF_S} s"),
    ]
    return metrics, notes, report, None


def run_trace1(bench: Bench, seconds: float):
    imports = [bench.importtime() for _ in range(IMPORTTIME_REPEATS)]
    import_metrics = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
    import_metrics["import.modules"] = imports[0]["import.modules"]

    from mpdesign.cli import main

    inv_list = bench.workload.invocations
    for inv in inv_list:
        bench.record("warmup", bench.warm(main, inv))

    untraced_totals, traced = [], []

    def pair():
        total = 0.0
        for inv in inv_list:
            sample = bench.warm(main, inv)
            bench.record("untraced", sample)
            total += sample.seconds
        untraced_totals.append(total)
        t = tracing.Tracer()
        undo = tracing.install(t)
        try:
            root = t.span(tracing.ROOT_LAYER, main)
            total = 0.0
            for index, inv in enumerate(inv_list):
                t.invocation = index
                sample = bench.warm(root, inv)
                bench.record("traced", sample)
                total += sample.seconds
        finally:
            tracing.uninstall(undo)
        traced.append((total, t))

    bench.run_passes(seconds, pair)

    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    total, t = traced[order[(len(order) - 1) // 2]]
    summary = tracing.summarize(t.spans)
    metrics = {}
    for layer, totals in summary.layers.items():
        metrics[f"{layer}.calls"] = totals.calls
        metrics[f"{layer}.total_s"] = totals.total_s
        metrics[f"{layer}.self_s"] = totals.self_s
    for name in tracing.COUNTS:
        metrics[name] = t.counts.get(name, 0)
    kernel_s = summary.layers["kernels"].total_s
    metrics["kernels.elems_per_s"] = metrics["kernels.elems"] / kernel_s / 1e6 if kernel_s else 0.0
    metrics["design.l_star_err_max"] = max(s.l_star_err for s in bench.samples["traced"])
    metrics.update(import_metrics)
    metrics["trace.warm_s"] = total
    metrics["trace.overhead_s"] = statistics.median(x for x, _ in traced) - statistics.median(untraced_totals)
    metrics["trace.unattributed_s"] = total - summary.root_s
    self_sum = sum(v.self_s for v in summary.layers.values())
    notes = {
        "trace.warm_s": f"traced pass with the median time, of {len(traced)} traced passes",
        "trace.overhead_s": f"median traced pass - median untraced pass ({len(untraced_totals)} each)",
        "kernels.elems_per_s": "same quantity as benchmarks/bench_kernels.py (M elems/s)",
        "kernels.bytes_computed": "computed from array sizes, not measured",
    }
    check = (
        f"sum of layer self_s {self_sum:.6f} s + unattributed {metrics['trace.unattributed_s']:.6f} s"
        f" = {self_sum + metrics['trace.unattributed_s']:.6f} s; traced warm time {total:.6f} s"
    )
    return metrics, notes, [], (check, t.spans)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, args, bench: Bench) -> dict:
    import numpy
    import scipy

    import mpdesign

    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(mpdesign, "KERNEL_BACKEND", None),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": bench.workload.name,
        "invocations_per_pass": len(bench.workload.invocations),
        "invocations": {phase: len(s) for phase, s in bench.samples.items()},
    }


def run_workload(root: Path, name: str, args) -> dict:
    work_dir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, workloads.build(name, args.seed, str(work_dir)), work_dir)
    try:
        runner = run_trace1 if args.trace else run_trace0
        metrics, notes, report, trace = runner(bench, args.seconds)
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    every = [s for samples in bench.samples.values() for s in samples]
    failed = sum(not s.ok for s in every)
    checked_err = [s.l_star_err for s in every]
    env = environment(root, args, bench)
    units = PER_LAYER_UNITS if args.trace else END_TO_END

    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:28s} {value:>16.6g} {units[key]}{note}")
    for key, value, unit, note in report:
        print(f"{key:28s} {value:>16.6g} {unit}  ({note})")
    print(f"{'fail_ratio':28s} {failed / len(every):>16.6g} 1  ({failed} of {len(every)} invocations)")
    if any(s.design_points for s in every):
        print(f"{'l_star_err_max':28s} {max(checked_err):>16.6g} 1  (largest |L* - reference| over every design row)")
    if trace is not None:
        print(trace[0])

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "env": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
        "report": {key: {"value": value, "unit": unit, "note": note} for key, value, unit, note in report},
        "fail_ratio": failed / len(every),
        "l_star_err_max": max(checked_err),
        "probes": bench.probes,
        "samples": {phase: [asdict(s) for s in samples] for phase, samples in bench.samples.items()},
    }
    if trace is not None:
        record["spans"] = {"fields": ["layer", "start", "end", "parent", "invocation"], "rows": trace[1]}
    path = out_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    return {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mpdesign" / "cli.py").is_file():
        print(f"error: no mpdesign sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    compileall.compile_dir(str(src), quiet=2)  # an installed package ships bytecode

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(root, name, args)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
