#!/usr/bin/env python3
"""Benchmark for equislice: one workload per invocation.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
with no install.  The workload's inputs are built from the seed, then
whole passes over its jobs run, one job at a time in this process (or
one child process per job for ``cli-cold``), until the timed jobs have
used about ``--seconds``.  Every later pass must reproduce the
outputs of the first exactly, and the first pass is checked against
the oracles in ``oracles.py`` once the timed passes are over.  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: setup_s (median
of several set-ups), run_s (one pass with every job at its median over
the run's passes), job_p50_ms (the median job) and peak_rss_mb.  Times
are calibrated to a reference host speed (see ``calibrated``).  With
``--trace 1`` untraced and traced passes alternate; the traced ones
record spans of every public function of the package (see ``spans.py``)
and the metrics are the per-layer ones, including the tracing overhead
(traced minus untraced pass time).  The spans are written to
``perfbench/out/`` (see ``Tracer.write``).
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from oracles import CheckError
from workloads import child_env, warm_bytecode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
SETUP_SAMPLES_MAX = 15
SETUP_SECONDS = 2.0
CLI_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# reference times of the calibration loop and of a bare interpreter
# start, chosen so that calibrated times match the wall times seen on
# the 2-core Xeon host (Python 3.11.7) the benchmark was tuned on
REFERENCE_S = 1.6e-3
REFERENCE_SPAWN_S = 0.08
SAMPLE_INTERVAL = 0.05

# per-layer metrics that are not a span count or span time
SETUP_SPANS = {"darboux.scramble.s": "darboux.scramble", "quantize.exp_ad_conjugate.s": "quantize.exp_ad_conjugate"}
OUTPUT_COUNTS = ("darboux.passes", "hypertoric.leaves", "quotient.group_order")

PER_LAYER = [
    "scalars.cyclo_mul.calls", "scalars.cyclo_inverse.calls", "scalars.self_s",
    "series.mul.calls", "series.mul.s", "series.subs.s", "series.invert_unit.s", "series.self_s",
    "intmat.rank.calls", "intmat.rank.s", "intmat.det.s", "intmat.smith.s", "intmat.solve_rational.s",
    "linalg.rref.calls", "linalg.rref.s", "linalg.kernel_basis.calls", "linalg.kernel_basis.s",
    "linalg.solve.calls", "linalg.solve.s", "linalg.in_span.calls", "linalg.in_span.s",
    "linalg.rank.calls", "linalg.rank.s", "linalg.cells", "linalg.nnz", "linalg.in_span.new_ratio",
    "poisson.bracket.calls", "poisson.bracket.s", "poisson.reduce.s", "poisson.check_jacobi.s",
    "poisson.weight_monomials.s",
    "darboux.normalize_full.s", "darboux.transport.calls", "darboux.transport.s", "darboux.then.calls",
    "darboux.then.s", "darboux.from_forward.s", "darboux.verify.s", "darboux.enforce_tu.s",
    "darboux.decouple_u.s", "darboux.extract_slice.s", "darboux.scramble.s", "darboux.passes",
    "hypertoric.check_unimodular.calls", "hypertoric.check_unimodular.s",
    "hypertoric.enumerate_leaves.calls", "hypertoric.enumerate_leaves.s",
    "hypertoric.decompose_at.calls", "hypertoric.decompose_at.s",
    "hypertoric.verify_decomposition.calls", "hypertoric.verify_decomposition.s", "hypertoric.leaves",
    "quotient.close_group.s", "quotient.parabolic_subgroups.s", "quotient.symplectic_reflections.s",
    "quotient.leaf_slice_data.s", "quotient.group_order",
    "quantize.multiply.calls", "quantize.multiply.s", "quantize.commutator.calls", "quantize.commutator.s",
    "quantize.quantized_slice.s", "quantize.exp_ad_conjugate.s",
    "cli.interpreter_ms", "cli.import_ms", "cli.run_ms", "cli.render_ms",
    "trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "trace.spans",
]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def calibration() -> float:
    """Duration of a fixed loop of Fraction arithmetic and dict updates,
    the instruction mix of the workloads.  The collector is off during
    the loop, so a large heap left by the program under test cannot slow
    the loop (which would make the program look faster)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 600):
            acc += Fraction(i % 7, i % 5 + 1)
            table[(i, i % 3)] = acc
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(elapsed: float, *loops: float, reference: float | None = None) -> float:
    """A time rescaled to the host's reference speed.

    The host's speed swings by up to a factor of two, over seconds and
    over minutes, with the load of the other tenants of its cores.  The
    calibration loop, run just before and just after the timed work (and
    during it, see Sampler), slows down with it; dividing by the loop's
    median time and multiplying by its reference time (REFERENCE_S)
    removes the common slowdown.  Jobs that run in a child process are
    calibrated by a bare interpreter start instead (REFERENCE_SPAWN_S):
    process creation slows down in ways the loop does not follow."""
    return elapsed * (REFERENCE_S if reference is None else reference) / statistics.median(loops)


class Sampler:
    """Calibration samples taken while a long in-process job runs.

    A SIGALRM every SAMPLE_INTERVAL seconds interrupts the job between
    bytecodes to time one calibration loop; the time spent in the
    handler is reported as ``stolen`` and taken off the job's time.  An
    interval of 0 takes no samples: for jobs that wait on a child
    process, which the loop would slow down on the shared CPU."""

    def __init__(self, interval: float):
        self.interval = interval
        self.loops: list[float] = []
        self.stolen = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self.loops.append(calibration())
        self.stolen += perf_counter() - start

    def __enter__(self):
        self.loops, self.stolen = [], 0.0
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def child_import_seconds(env) -> float:
    """Calibrated time to import equislice, measured inside a fresh
    interpreter that runs the calibration loop itself around the import."""
    code = "\n".join([
        "import gc, sys, time",
        "from fractions import Fraction",
        "from time import perf_counter",
        inspect.getsource(calibration),
        "calibration()",
        "before = calibration()",
        "start = perf_counter()",
        "import equislice",
        "elapsed = perf_counter() - start",
        "print(elapsed, before, calibration())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True, timeout=120)
    elapsed, before, after = map(float, proc.stdout.split())
    return calibrated(elapsed, before, after)


def interpreter_seconds() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=120)
    return perf_counter() - start


class Runner:
    """Runs passes over one workload's jobs and checks their outputs."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.jobs = workload.jobs()
        self.reference = None
        self.first = None
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.next_job_id = 0
        self.job_table: dict = {}
        self.reported: dict = {}
        self.wall = 0.0
        self.last_raw = 0.0
        if workload.runs_children:
            # child-process jobs: a bare interpreter start between jobs
            self.calibrate, self.reference_s, self.sampler = interpreter_seconds, REFERENCE_SPAWN_S, Sampler(0)
        else:
            self.calibrate, self.reference_s, self.sampler = calibration, REFERENCE_S, Sampler(SAMPLE_INTERVAL)

    def run_pass(self, traced: bool, group=None):
        """One pass; returns (outputs, calibrated latencies).  A job that
        raises counts as failed and leaves None in its place.  In a traced
        pass each job gets a job id, recorded with its pass number
        ``group``.  The calibration before each job is also the one after
        the job before it."""
        outputs, timings = [], []
        calibrations = []
        for job in self.jobs:
            if job.prepare is not None:
                job.prepare()
            if traced:
                self.tracer.job = self.next_job_id
                self.job_table[self.next_job_id] = [group, job.label]
                self.next_job_id += 1
                self.tracer.install()
            self.attempted += 1
            calibrations.append(self.calibrate())
            with self.sampler as sampler:
                start = perf_counter()
                try:
                    out = job.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failed += 1
                    out = None
                    print(f"perfbench: {job.label} failed: {exc!r}", file=sys.stderr)
                finally:
                    elapsed = perf_counter() - start
                    if traced:
                        self.tracer.uninstall()
            self.wall += elapsed
            timings.append((elapsed - sampler.stolen, sampler.loops))
            outputs.append(self._validated(job, out))
        calibrations.append(self.calibrate())
        self.last_raw = sum(elapsed for elapsed, _loops in timings)
        latencies = [
            calibrated(elapsed, calibrations[j], calibrations[j + 1], *loops, reference=self.reference_s)
            for j, (elapsed, loops) in enumerate(timings)
        ]
        return outputs, latencies

    def _validated(self, job, out):
        """The job's output, or None when its own per-pass check fails
        (then the job counts as failed)."""
        if out is not None and job.validate is not None:
            try:
                job.validate(out)
            except CheckError as exc:
                self.failed += 1
                out = None
                if not self.reported.get(job.label):
                    self.reported[job.label] = True
                    print(f"perfbench: {job.label} failed its check: {exc}", file=sys.stderr)
        return out

    def verify(self, outputs) -> None:
        """Keep the first complete pass for the oracle checks (see
        check_first); later passes must reproduce its fingerprints exactly."""
        wl = self.workload
        if self.reference is None:
            if any(o is None for o, job in zip(outputs, self.jobs) if job.validate is None):
                return
            self.first = outputs
            self.reference = [json.dumps(wl.fingerprint(o), sort_keys=True, default=str) for o in outputs]
            return
        for job, ref, out in zip(self.jobs, self.reference, outputs):
            if out is not None and json.dumps(wl.fingerprint(out), sort_keys=True, default=str) != ref:
                self.correct = False
                print(f"perfbench: {job.label} differs from the checked pass", file=sys.stderr)

    def check_first(self) -> None:
        """Oracle checks on the first complete pass.  They run after the
        timed passes, and after peak_rss_mb is read, so that the memory of
        the oracles' own dense eliminations does not count as the
        program's."""
        if self.first is None:
            return
        try:
            self.workload.check(self.first)
        except CheckError as exc:
            self.correct = False
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
        self.first = None

    def done(self, passes: int, least: int) -> bool:
        """Stop after at least ``least`` passes once the timed jobs have
        used about the run's seconds of wall time (within half a pass)."""
        return passes >= least and self.wall * (1 + 1 / (2 * passes)) >= self.seconds


def per_job_median(rows) -> list:
    """Each job's median calibrated latency over the passes (one row per
    pass).  The median, not the fastest repeat: a calibration loop that
    happened to run slow makes one repeat look fast, and the minimum
    would pick exactly that repeat."""
    return [statistics.median(col) for col in zip(*rows)]


class Clock:
    """A calibrated stopwatch for work done in steps: each step's wall
    time is calibrated against the loop run at its two ends, so a long
    set-up is corrected for the host's speed swings while it runs."""

    def __init__(self):
        self.total = 0.0
        self.raw = 0.0
        self._before = calibration()
        self._start = perf_counter()

    def step(self) -> None:
        elapsed = perf_counter() - self._start
        after = calibration()
        self.raw += elapsed
        self.total += calibrated(elapsed, self._before, after)
        self._before = after
        self._start = perf_counter()


def timed_call(fn) -> float:
    """Calibrate the wall time that fn() measures and returns."""
    before = calibration()
    seconds = fn()
    return calibrated(seconds, before, calibration())


def setup(workload_cls, seed: int, env):
    """Build the workload several times (SETUP_SAMPLES, more while the
    set-ups have used less than SETUP_SECONDS, at most SETUP_SAMPLES_MAX);
    each sample is the import time of a fresh interpreter plus the
    in-process build (plus one interpreter start for cli-cold),
    calibrated.  Returns (workload, median sample)."""
    samples = []
    workload = None
    started = perf_counter()
    while len(samples) < SETUP_SAMPLES or (
        len(samples) < SETUP_SAMPLES_MAX and perf_counter() - started < SETUP_SECONDS
    ):
        # release the previous sample, so that the peak memory holds one
        workload = None
        gc.collect()
        imported = child_import_seconds(env)
        clock = Clock()
        workload = workload_cls(seed, step=clock.step)
        clock.step()
        warm = timed_call(interpreter_seconds) if workload_cls.runs_children else 0.0
        samples.append(imported + clock.total + warm)
    return workload, statistics.median(samples)


def run_untraced(workload_cls, seed: int, seconds: float, env) -> dict:
    workload, setup_s = setup(workload_cls, seed, env)
    runner = Runner(workload, seconds)
    rows = []
    while True:
        outputs, lat = runner.run_pass(False)
        rows.append(lat)
        runner.verify(outputs)
        if runner.done(len(rows), MIN_PASSES):
            break
    typical = per_job_median(rows)
    who = resource.RUSAGE_CHILDREN if workload_cls.runs_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    runner.check_first()
    metrics = {
        "setup_s": setup_s,
        "run_s": sum(typical),
        "job_p50_ms": statistics.median(typical) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "run_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}
    print(f"perfbench: {len(rows)} passes of {len(runner.jobs)} jobs", file=sys.stderr)
    return runner, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def replay_cli(workload, outputs):
    """In-process cli.run and render_report for every job of a cli-cold
    pass; each rendering must equal the bytes its child process wrote.
    Returns calibrated (run seconds, render seconds) and the raw total."""
    from equislice import cli

    run_s = render_s = raw = 0.0
    for (command, doc, opts), out in zip(workload.replay(), outputs):
        before = calibration()
        start = perf_counter()
        status, report = cli.run(cli.JobSpec(command, doc, dict(opts)))
        mid = perf_counter()
        text = cli.render_report(report, True)
        end = perf_counter()
        after = calibration()
        run_s += calibrated(mid - start, before, after)
        render_s += calibrated(end - mid, before, after)
        raw += end - start
        if out is not None and (status, text.encode()) != out:
            raise CheckError(f"{command}: the in-process report differs from the child's")
    return run_s, render_s, raw


def run_traced(workload_cls, seed: int, seconds: float, env) -> tuple:
    from spans import Tracer

    tracer = Tracer()
    tracer.job = -2
    tracer.install()
    try:
        clock = Clock()
        workload = workload_cls(seed, step=clock.step)
        clock.step()
    finally:
        tracer.uninstall()
    runner = Runner(workload, seconds, tracer)
    is_cli = workload_cls.runs_children
    rows = {False: [], True: []}
    counters, counts, cli_times, scales = [], [], [], []
    while True:
        for traced in (False, True):
            group = len(rows[True])
            if traced:
                tracer.counters = dict.fromkeys(tracer.counters, 0)
            outputs, lat = runner.run_pass(traced, group)
            if is_cli:
                # the child processes are not traced; the replay is
                if traced:
                    tracer.job = runner.next_job_id
                    runner.job_table[runner.next_job_id] = [group, "in-process replay"]
                    runner.next_job_id += 1
                    tracer.install()
                try:
                    replayed = replay_cli(workload, outputs)
                except CheckError as exc:
                    runner.correct = False
                    print(f"perfbench: check failed: {exc}", file=sys.stderr)
                    replayed = (0.0, 0.0, 0.0)
                finally:
                    tracer.uninstall()
                lat = [replayed[0] + replayed[1]]
                runner.last_raw = replayed[2]
                if not traced:
                    cli_times.append(replayed)
            rows[traced].append(lat)
            runner.verify(outputs)
            if traced:
                counters.append(dict(tracer.counters))
                complete = all(o is not None for o, job in zip(outputs, runner.jobs) if job.validate is None)
                counts.append(workload.counts(outputs) if complete else {})
                # span times are wall times: scale them like the pass's latencies
                scales.append(sum(lat) / runner.last_raw if runner.last_raw else 1.0)
        if runner.done(len(rows[True]), MIN_TRACED_PAIRS):
            break
    runner.check_first()

    group_of_job = {job: group for job, (group, _label) in runner.job_table.items()}
    group_of_job[-2] = "setup"
    runner.job_table[-2] = ["setup", "build inputs"]
    stats = tracer.summarize(group_of_job)
    setup_stats = stats.get("setup", {"incl": {}})
    per_pass = []
    for p in range(len(rows[True])):
        s = stats.get(p, {"calls": {}, "incl": {}, "self": {}, "spans": 0})
        values = {}
        for name in PER_LAYER:
            if name in SETUP_SPANS:
                values[name] = setup_stats["incl"].get(SETUP_SPANS[name], 0.0) * clock.total / clock.raw
            elif name in OUTPUT_COUNTS:
                values[name] = counts[p].get(name, 0)
            elif name in ("linalg.cells", "linalg.nnz"):
                values[name] = counters[p][name]
            elif name == "linalg.in_span.new_ratio":
                calls = s["calls"].get("linalg.in_span", 0)
                values[name] = counters[p]["linalg.in_span.new"] / calls if calls else 0.0
            elif name.endswith(".calls"):
                values[name] = s["calls"].get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                values[name] = s["self"].get(name.split(".")[0], 0.0) * scales[p]
            elif name.endswith(".s"):
                values[name] = s["incl"].get(name[: -len(".s")], 0.0) * scales[p]
        values["trace.spans"] = s["spans"]
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["trace.run_s"] = sum(per_job_median(rows[True]))
    metrics["trace.untraced_run_s"] = sum(per_job_median(rows[False]))
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    if is_cli:
        metrics["cli.interpreter_ms"] = statistics.median(interpreter_seconds() for _ in range(CLI_SAMPLES)) * 1000
        metrics["cli.import_ms"] = statistics.median(child_import_seconds(env) for _ in range(CLI_SAMPLES)) * 1000
        metrics["cli.run_ms"] = statistics.median(t[0] for t in cli_times) * 1000
        metrics["cli.render_ms"] = statistics.median(t[1] for t in cli_times) * 1000
    else:
        for name in ("cli.interpreter_ms", "cli.import_ms", "cli.run_ms", "cli.render_ms"):
            metrics[name] = 0.0
    out = {}
    for name in PER_LAYER:
        value = metrics[name]
        if unit_of(name) == "count" and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit_of(name)}
    stem = OUT / f"trace-{workload_cls.name}-seed{seed}"
    tracer.write(stem, {str(k): v for k, v in runner.job_table.items()}, {k: v["value"] for k, v in out.items()})
    print(f"perfbench: {len(rows[False])} untraced and {len(rows[True])} traced passes; "
          f"{len(tracer.span_start)} spans written to {stem.relative_to(ROOT)}.spans", file=sys.stderr)
    return runner, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "equislice" / "__init__.py").is_file():
        print(f"perfbench: no equislice package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import equislice  # noqa: F401  (import cost is measured in child interpreters)

    # one CPU for this process and its children, so the calibration loop
    # runs on the core the jobs run on (unpinned where that is refused)
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"perfbench: running unpinned: {exc}", file=sys.stderr)

    env = child_env()
    warm_bytecode(env)
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        runner, metrics = run_traced(workload_cls, args.seed, args.seconds, env)
    else:
        runner, metrics = run_untraced(workload_cls, args.seed, args.seconds, env)
    result = {
        "correct": runner.correct and runner.reference is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
