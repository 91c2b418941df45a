"""toricgit benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
src/toricgit of that checkout and from nowhere else.  With --trace 0 the
workload runs whole rounds until S seconds have passed and the end-to-end
metrics are reported.  With --trace 1 a fixed number of rounds (from
spec.json) runs once untraced and once traced, and the per-layer metrics
of the traced pass are reported; the spans are written, gzip-compressed,
to perfbench/out/trace-<workload>-<seed>.tsv.gz.  --workload all runs the
four workloads one after another, each in its own process.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.

Times are speed-corrected.  On a shared host the same work can take twice
as long from one half-minute to the next, which no run length averages
out.  So a fixed stdlib-only reference kernel runs before every operation
(outside its timing), and each time t is reported as t * r0 / r, where r
is the median kernel time around that operation and r0 is the kernel's
nominal time (spec.json, reference_nominal_s).  The kernel never calls the
engine, so a change to the engine moves the corrected times as it moves
the raw ones; the raw figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import instances as inst  # noqa: E402
import workloads as wl  # noqa: E402

ENGINE_MODULES = ("actions", "certcheck", "cli", "cones", "fans",
                  "hilbert_mumford", "intlinalg", "problemfile", "quotients")
MIN_OPS = 11


def load_engine() -> types.SimpleNamespace:
    """Import toricgit from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "toricgit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no toricgit sources under {src}")
    sys.path.insert(0, str(src))
    import importlib

    mods = {m: importlib.import_module(f"toricgit.{m}") for m in ENGINE_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != src / "toricgit":
        raise SystemExit("benchmark: imported toricgit is not the checkout's")
    return types.SimpleNamespace(**mods)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- reference speed ---------------------------------------------------

REF_ROWS = ((3, -1, 2, 0, 5, -2), (1, 4, -3, 2, 0, 1), (-2, 0, 1, 5, -1, 3),
            (4, 2, 0, -3, 2, -1), (0, -3, 5, 1, 4, 2))


def reference_time() -> float:
    """Wall time of a fixed computation shaped like the engine's inner
    loops: Fraction elimination, and gcd-normalised integer tuples counted
    in a dict, sorted and filtered into a frozenset."""
    t0 = time.perf_counter()
    inst.rank(REF_ROWS)
    inst.rank(REF_ROWS)
    vecs = [tuple((i * 7919 + j * 104729) % 23 - 11 for j in range(6))
            for i in range(300)]
    seen: dict = {}
    for v in vecs:
        g = math.gcd(*v) or 1
        p = tuple(x // g for x in v)
        seen[p] = seen.get(p, 0) + 1
    sorted(seen.items())
    frozenset(i for i, v in enumerate(vecs) if sum(v) > 0)
    return time.perf_counter() - t0


class OperationTimeout(Exception):
    """Raised inside an operation that outlives the time limit."""


def _timeout(signum, frame):
    raise OperationTimeout


class Stopwatch:
    """Times operations and corrects each to the reference speed measured
    around it (median of the kernel times before it, the two before that
    and the two after).  An operation still running after `limit_s`
    seconds is interrupted and judged budget_exceeded: a rare input can
    cost minutes (a cost cliff), and a run must end in bounded time."""

    def __init__(self, nominal_s: float, limit_s: float):
        self.nominal = nominal_s
        self.limit = limit_s
        self.refs: list[float] = []
        self.raw: list[float] = []

    def run(self, op: wl.Op, span=contextlib.nullcontext()):
        """(output, exception) of op.call, timed inside `span`."""
        self.refs.append(reference_time())
        previous = signal.signal(signal.SIGALRM, _timeout)
        try:
            with span:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # the engine's failure is measured
                    out, err = None, exc
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                self.raw.append(time.perf_counter() - t0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        return out, err

    def corrected(self) -> list[float]:
        return [t * self.nominal / statistics.median(self.refs[max(0, i - 2):i + 3])
                for i, t in enumerate(self.raw)]


def judge(op: wl.Op, out, err) -> list:
    if isinstance(err, OperationTimeout):
        return [wl.Failure(wl.BUDGET, False)]
    if err is not None:
        return [op.on_error(err)]
    try:
        return op.check(out)
    except Exception:  # malformed output cannot be judged: a broken engine
        return [wl.Failure(wl.ERRORS, True)]


class Tally:
    """Verdicts of a sequence of operations."""

    def __init__(self):
        self.verdicts: list[tuple] = []   # (family, sorted failure kinds)
        self.fatal = False

    def add(self, family: str, failures: list) -> None:
        self.verdicts.append((family, tuple(sorted({f.kind for f in failures}))))
        self.fatal = self.fatal or any(f.fatal for f in failures)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(1 for _, kinds in self.verdicts if kinds)

    def kind_counts(self) -> dict:
        return {k: sum(1 for _, kinds in self.verdicts if k in kinds)
                for k in wl.KINDS}


# -- runs ----------------------------------------------------------------

def timed_run(work: wl.Workload, seed: int, seconds: float, spec: dict):
    """Whole rounds until `seconds` have passed (and at least MIN_OPS
    operations ran).  Returns (stopwatch, operations per round, tally)."""
    watch = Stopwatch(spec["reference_nominal_s"], spec["operation_limit_s"])
    sizes: list[int] = []
    tally = Tally()
    start = time.perf_counter()
    while True:
        ops = work.round(seed, len(sizes))
        for op in ops:
            out, err = watch.run(op)
            tally.add(op.family, judge(op, out, err))
        sizes.append(len(ops))
        if time.perf_counter() - start >= seconds and len(watch.raw) >= MIN_OPS:
            return watch, sizes, tally


def traced_run(work: wl.Workload, seed: int, rounds: int, spec: dict):
    """The same operations untraced, then traced.  Returns (tracer,
    untraced stopwatch, traced stopwatch, untraced tally, traced tally).
    Both passes use the looser traced time limit, so that the trace's own
    cost does not change a verdict."""
    from tracer import Tracer

    ops = [op for k in range(rounds) for op in work.round(seed, k)]
    limits = (spec["reference_nominal_s"], spec["traced_operation_limit_s"])
    plain, plain_watch = Tally(), Stopwatch(*limits)
    for op in ops:
        plain.add(op.family, judge(op, *plain_watch.run(op)))
    results = []
    traced_watch = Stopwatch(*limits)
    with Tracer() as tracer:
        for op in ops:
            results.append(traced_watch.run(op, tracer.operation(op.family)))
    # checks replay certificates through the engine's checker: keep them
    # out of the trace so per-layer numbers cover the operations only
    traced = Tally()
    for op, (out, err) in zip(ops, results):
        traced.add(op.family, judge(op, out, err))
    return tracer, plain_watch, traced_watch, plain, traced


def measure_setup(workload: str, seed: int, repeats: int, nominal_s: float):
    """Wall time from starting a fresh interpreter until it has imported
    toricgit, generated the first round from the seed and written its
    problem files, i.e. until the first operation could be timed; one
    (raw, speed-corrected) pair per fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(3):
        reference_time()    # warm up the kernel before it is timed
    for _ in range(repeats):
        refs = [reference_time() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"benchmark: set-up run failed with code {code}")
        refs += [reference_time() for _ in range(3)]
        out.append((t1 - t0, (t1 - t0) * nominal_s / statistics.median(refs)))
    return out


# -- reports -------------------------------------------------------------

def fmt_metric(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:34s} {value:>14.6g} {unit:6s} {note}".rstrip()


def report_timed(work, args, spec, setup) -> dict:
    watch, sizes, tally = timed_run(work, args.seed, args.seconds, spec)
    corrected = watch.corrected()
    rates, raw_rates, i = [], [], 0
    for size in sizes:
        rates.append(size / sum(corrected[i:i + size]))
        raw_rates.append(size / sum(watch.raw[i:i + size]))
        i += size
    lat, raw = sorted(corrected), sorted(watch.raw)
    n = len(lat)
    ti = n - MIN_OPS    # the highest percentile with >= 10 operations beyond
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[ti] * 1e3, "ms"),
        "ops_failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speed = spec["reference_nominal_s"] / statistics.median(watch.refs)
    print(f"{work.name} seed={args.seed}: {n} operations in {len(sizes)} rounds, "
          f"{sum(watch.raw):.2f} s of operations, {tally.failed} failed; "
          f"host at {speed:.2f} x reference speed")
    notes = {
        "ops_per_s": f"median of {len(sizes)} rounds; raw {statistics.median(raw_rates):.4g}",
        "latency_p50_ms": f"raw {statistics.median(raw) * 1e3:.4g}",
        "latency_tail_ms": f"p{100.0 * (ti + 1) / n:.2f}, {n - 1 - ti} of {n} "
                           f"beyond; raw {raw[ti] * 1e3:.4g}",
        "setup_s": f"median of {len(setup)} fresh processes; raw "
                   f"{statistics.median(r for r, _ in setup):.4g}",
    }
    for name, (value, unit) in metrics.items():
        print(fmt_metric(name, value, unit, notes.get(name, "")))
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in tally.kind_counts().items()))
    return {"correct": not tally.fatal, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report_traced(work, args, spec, out_dir) -> dict:
    rounds = spec["workloads"][work.name]["trace_rounds"]
    tracer, plain_w, traced_w, plain, traced = traced_run(
        work, args.seed, rounds, spec)
    layer = tracer.layer_metrics()
    for kind, count in traced.kind_counts().items():
        layer[f"check.{kind}"] = count
    layer["trace.overhead_ratio"] = sum(traced_w.corrected()) / sum(plain_w.corrected())
    path = out_dir / f"trace-{work.name}-{args.seed}.tsv.gz"
    spans = tracer.write(str(path))
    units = {m["name"]: m["unit"] for m in load_json(ROOT / "BENCHMARK.json")["per_layer"]}
    print(f"{work.name} seed={args.seed}: {traced.attempted} operations in "
          f"{rounds} rounds, untraced {sum(plain_w.raw):.2f} s, traced "
          f"{sum(traced_w.raw):.2f} s, {spans} spans written to "
          f"{path.relative_to(ROOT)}")
    for name in units:
        print(fmt_metric(name, layer[name], units[name]))
    # the trace must not change a single verdict
    correct = not traced.fatal and plain.verdicts == traced.verdicts
    return {"correct": correct, "attempted": traced.attempted,
            "failed": traced.failed,
            "metrics": {k: {"value": layer[k], "unit": units[k]} for k in units}}


def run_all(argv: list) -> int:
    """Each workload in its own process, output passed through."""
    code = 0
    for name in sorted(wl.WORKLOADS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name] + argv
        code = code or subprocess.run(cmd, cwd=ROOT).returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(["--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])

    spec = load_json(BENCH / "spec.json")
    out_dir = BENCH / "out"
    workdir = out_dir / f"run-{os.getpid()}"
    if args.setup_only:
        engine = load_engine()
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl.WORKLOADS[args.workload](engine, str(workdir), spec).round(args.seed, 0)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup = measure_setup(args.workload, args.seed, spec["setup_repeats"],
                          spec["reference_nominal_s"])
    engine = load_engine()
    workdir.mkdir(parents=True, exist_ok=True)
    work = wl.WORKLOADS[args.workload](engine, str(workdir), spec)
    try:
        if args.trace:
            result = report_traced(work, args, spec, out_dir)
        else:
            result = report_timed(work, args, spec, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
