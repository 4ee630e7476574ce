#!/usr/bin/env python3
"""Benchmark of bohrqed: two closed-loop batch workloads.

Run from the root of a checkout (it imports the package from ``src/``)::

    python3 benchmarks/run.py --workload lattice-io --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py                     # every workload, one process each
    python3 benchmarks/run.py --self-check        # every workload at tiny size
    python3 benchmarks/run.py --write-reference   # re-record reference.json

Each run is one process running one workload: one client runs jobs back to
back for ``--seconds``, timing each job from outside and checking its
outputs afterwards.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced jobs,
then runs one job under tracemalloc, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
lines before it are the same figures for people, the environment, and
the reasons of any failed operation.  Full results and spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_JOBS = 3  # per timing series, so a median exists even for slow jobs
TAIL_SAMPLES = 10  # samples a tail percentile must leave above it
REL_TOL = 1e-10  # reference values; digests must match exactly


def _median(values):
    return statistics.median(values) if values else 0.0


def _fits(start: float, times: list[float], seconds: float) -> bool:
    return time.perf_counter() - start + _median(times) <= seconds


def tail_percentile(samples):
    """Highest percentile leaving TAIL_SAMPLES samples above it, or None."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    rank = n - TAIL_SAMPLES  # samples at or below the percentile
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


# ---------------------------------------------------------------------------
# Jobs and their verdicts
# ---------------------------------------------------------------------------

def _matches(fingerprint: dict, reference: dict) -> bool:
    if fingerprint.keys() != reference.keys():
        return False
    for key, value in fingerprint.items():
        ref = reference[key]
        if isinstance(value, float):
            if abs(value - ref) > REL_TOL * max(abs(value), abs(ref)):
                return False
        elif value != ref:
            return False
    return True


class Run:
    """Jobs of one workload at one input size, with their verdicts."""

    def __init__(self, workload, inputs, out: Path, reference=None):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.reference = reference  # {op name: fingerprint} or None
        self.first: dict[str, dict] = {}
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}  # unexpected failures
        self.known: dict[str, str] = {}  # failures through recorded defects

    def job(self, tracer=None, memory=False) -> float:
        """Run, time and check one job; return its wall time in seconds."""
        self.jobs += 1
        wl, inp = self.workload, self.inputs
        scope = (tracer.installed(self.jobs, memory=memory) if tracer
                 else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with scope:
                start = time.perf_counter()
                result = wl.job(inp, self.out)
                elapsed = time.perf_counter() - start
            ops = wl.check(inp, result, self.out)
        except Exception as exc:  # a crashed job fails all of its operations
            self.attempted += wl.ops(inp)
            self.failed += wl.ops(inp)
            self.problems[f"job {self.jobs}"] = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - start
        del result
        for op in ops:
            first = self.first.setdefault(op.name, op.fingerprint)
            if op.fingerprint != first:
                op.problem, op.known = "outputs differ from the run's first job", False
            elif self.reference is not None and not _matches(
                    op.fingerprint, self.reference.get(op.name, {})):
                op.problem, op.known = "outputs differ from the seed commit's", False
            self.attempted += 1
            if op.problem:
                self.failed += 1
                (self.known if op.known else self.problems)[op.name] = op.problem
        return elapsed

    def series(self, seconds: float) -> list[float]:
        """Jobs back to back while another median job fits in ``seconds``."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_JOBS or _fits(start, times, seconds):
            times.append(self.job())
        return times

    @property
    def correct(self) -> bool:
        return not self.problems


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of SETUP_REPEATS fresh processes that import
    bohrqed, build the inputs and run the warm-up job, with their median
    import time."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return _median(walls), _median(imports)


def setup_probe(args) -> int:
    start = time.perf_counter()
    import bohrqed  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    wl.inputs(args.seed, tiny=False)
    Run(wl, wl.inputs(args.seed, tiny=True), OUT / wl.name / "setup").job()
    print(json.dumps({"import_s": import_s}))
    return 0


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def copy_ratio(spans) -> float:
    """Input bytes per second of the spans over np.copyto's bytes per second
    on arrays of the same sizes, timed now, in the same run."""
    import numpy as np

    copy_s = {}
    for nbytes in {s.nbytes for s in spans}:
        src = np.ones(nbytes // 16, dtype=complex)
        dst = np.empty_like(src)
        np.copyto(dst, src)
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            np.copyto(dst, src)
            samples.append(time.perf_counter() - start)
        copy_s[nbytes] = _median(samples)
    busy = sum(s.busy_s for s in spans)
    return sum(copy_s[s.nbytes] for s in spans) / busy if busy else 0.0


def layer_metrics(names, tracer, traced_jobs, extra) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``, per traced job.

    ``calls`` counts spans, ``busy_s`` sums their durations and ``self_s``
    their durations less their direct children's.  ``mib_per_s`` is the
    bytes of the span's file over its busy time.  From the memory job,
    ``peak_mib`` is the largest tracemalloc peak of one call and
    ``peak_fields`` that peak over the bytes of one field of the call.
    Functions the workload never calls read 0.  ``extra`` holds metrics
    measured outside the spans.
    """
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)
    peaks = defaultdict(list)
    for peak in tracer.peaks:
        peaks[peak.name].append(peak)
    values = {}
    for metric in names:
        if metric in extra:
            values[metric] = extra[metric]
            continue
        span_name, _, stat = metric.rpartition(".")
        own = spans[span_name]
        busy = sum(s.busy_s for s in own)
        if stat == "calls":
            values[metric] = len(own) / traced_jobs
        elif stat == "busy_s":
            values[metric] = busy / traced_jobs
        elif stat == "self_s":
            values[metric] = sum(s.self_s for s in own) / traced_jobs
        elif stat == "mib_per_s":
            values[metric] = sum(s.nbytes for s in own) / busy / 2**20 if busy else 0.0
        elif stat == "peak_fields":
            values[metric] = max((p.peak_bytes / p.field_bytes
                                  for p in peaks[span_name]), default=0.0)
        elif stat == "peak_mib":
            values[metric] = max((p.peak_bytes for p in peaks[span_name]),
                                 default=0) / 2**20
        elif stat == "copy_ratio":
            values[metric] = copy_ratio(own)
        else:
            raise ValueError(f"no rule computes per-layer metric {metric!r}")
    return values


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def environment(wl, inputs) -> dict:
    import numpy as np

    l3 = l3_bytes()
    arrays = wl.arrays(inputs)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": NPROC, "l3_bytes": l3,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "array_bytes": arrays,
        "array_share_of_l3": {k: v / l3 for k, v in arrays.items()} if l3 else None,
        "bytes_moved_per_job_computed": wl.bytes_moved(inputs),
        "work_unit": wl.unit, "work_per_job": wl.work(inputs),
        "part_work_per_job": wl.part_work(inputs),
        "predicts": list(wl.predicts),
    }


def run_workload(args, spec) -> int:
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out = OUT / wl.name
    warmup = Run(wl, wl.inputs(args.seed, tiny=True), out / "warmup")
    warmup.job()
    if not warmup.correct:
        print(f"warm-up job failed: {warmup.problems}", file=sys.stderr)
        return 1
    setup_s, import_s = measure_setup(wl.name, args.seed)

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][wl.name]
    inputs = wl.inputs(args.seed, tiny=False)
    run = Run(wl, inputs, out / "full", reference)
    env = environment(wl, inputs)
    lines = [f"bohrqed benchmark: workload={wl.name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "environment: " + json.dumps(env, sort_keys=True)]
    detail = {"workload": wl.name, "seed": args.seed, "environment": env}

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while (min(len(untraced), len(traced)) < MIN_JOBS - 1
               or _fits(start, untraced + traced, args.seconds)):
            if len(untraced) <= len(traced):
                untraced.append(run.job())
            else:
                traced.append(run.job(tracer))
        run.job(tracer, memory=True)
        overhead = _median(traced) - _median(untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = layer_metrics(units, tracer, len(traced),
                                {"cli.import_s": import_s, "trace.overhead_s": overhead})
        tracer.write(OUT / f"spans-{wl.name}.csv")
        p50 = _median(traced)
        lines.append(f"traced jobs {len(traced)}, job_s_p50 {p50:.4f} s; untraced "
                     f"jobs {len(untraced)}, job_s_p50 {_median(untraced):.4f} s")
        top = defaultdict(float)
        for span in tracer.spans:
            if span.parent == -1:
                top[span.name] += span.busy_s / len(traced)
        lines.append("outermost spans, share of a traced job: " + ", ".join(
            f"{name} {100 * busy / p50:.1f}%"
            for name, busy in sorted(top.items(), key=lambda kv: -kv[1])))
        for name, value in metrics.items():
            share = (f"  ({100 * value / p50:5.1f}% of a traced job)"
                     if units[name] == "s" and name != "cli.import_s" else "")
            lines.append(f"{name:40s} {value:14.6g} {units[name]}{share}")
        detail.update(traced_job_s=traced, untraced_job_s=untraced)
    else:
        times = run.series(args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            "work_per_s": wl.work(inputs) * len(times) / sum(times),
            "job_s_p50": _median(times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        lines.append(f"{'work_per_s':14s} {metrics['work_per_s']:14.6g} "
                     f"{wl.unit}/s over {len(times)} jobs")
        lines.append(f"{'job_s_p50':14s} {metrics['job_s_p50']:14.6g} s (n={len(times)})")
        tail = tail_percentile(times)
        lines.append(f"{'job_s_tail':14s} " + (
            f"{tail[1]:14.6g} s (p{tail[0]:.0f}, n={len(times)})" if tail else
            f"{'n/a':>14s} (needs more than {TAIL_SAMPLES} jobs, n={len(times)})"))
        lines.append(f"{'peak_rss_mib':14s} {metrics['peak_rss_mib']:14.6g} MiB")
        lines.append(f"{'setup_s':14s} {setup_s:14.6g} s (median of {SETUP_REPEATS}"
                     f" fresh processes; import {import_s:.4f} s)")
        detail.update(job_s=times)
    lines.append(f"{'fail_ratio':14s} {run.failed / run.attempted:14.6g} "
                 f"({run.failed} of {run.attempted} operations)")
    for name, reason in sorted(run.known.items()):
        lines.append(f"known failure {name}: {reason}")
    for name, reason in sorted(run.problems.items()):
        lines.append(f"FAILED {name}: {reason}")

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail.update(result=result, known_failures=run.known, failures=run.problems)
    (OUT / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own fresh process, one after another."""
    codes = [subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], cwd=ROOT, timeout=600).returncode
        for w in spec["workloads"]]
    return max(codes)


def self_check() -> int:
    """Every workload at tiny size: an untraced, a traced and a memory job,
    with their checks; catches a broken workload before a long run."""
    import tracing
    from workloads import WORKLOADS

    ok = True
    for wl in WORKLOADS.values():
        run = Run(wl, wl.inputs(DEFAULT_SEED, tiny=True), OUT / "self-check" / wl.name)
        tracer = tracing.Tracer()
        run.job()
        run.job(tracer)
        run.job(tracer, memory=True)
        leaked = tracing.installed_wrappers()
        passed = run.correct and tracer.spans and not leaked
        ok &= bool(passed)
        print(f"self-check {wl.name}: {'ok' if passed else 'FAILED'} "
              f"({run.attempted} ops, {run.failed} failed, {len(run.known)} known; "
              f"{len(tracer.spans)} spans, {len(tracer.peaks)} peaks)")
        for name, reason in {**run.known, **run.problems}.items():
            print(f"  {name}: {reason}")
        if leaked:
            print(f"  wrappers left installed: {leaked}")
    return 0 if ok else 1


def write_reference() -> int:
    """Record one full-size job of every workload at the default seed."""
    import bohrqed
    from workloads import WORKLOADS

    workloads = {}
    for wl in WORKLOADS.values():
        run = Run(wl, wl.inputs(DEFAULT_SEED, tiny=False), OUT / "reference" / wl.name)
        run.job()
        if not run.correct:
            print(f"{wl.name}: {run.problems}", file=sys.stderr)
            return 1
        workloads[wl.name] = run.first
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "bohrqed": bohrqed.__version__,
         "workloads": workloads}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "bohrqed" / "__init__.py").is_file():
        print(f"no bohrqed source under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported, here or in a child
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if args.self_check:
        return self_check()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
