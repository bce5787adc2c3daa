#!/usr/bin/env python3
"""earlab benchmark: seeded CLI workloads run through earlab.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an earlab checkout; the package is imported from its
src/ directory.  A run is a closed loop with one client: one process, no
threads, each CLI call made in-process with its stdout captured, the next
one starting when it returns.  One pass makes every op of the workload's
fixed, seeded op list once; passes repeat until S seconds have passed and
at least 100 ops were made.  Every result is checked by the benchmark's own
checkers, outside the timed region, and every later pass must print the
same bytes as the first.  End-to-end times are scaled to a fixed reference
machine speed by a reference chunk timed between calls (calibrate.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from one pass that makes each call
untraced and then traced, and the spans are written to .perfbench/ under
the checkout.  A human-readable summary goes to stderr.  Exit code 2 means
the checkout has no earlab sources to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checkers
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up runs at least SETUP_REPEATS times and, while it is cheap, until
# SETUP_SECONDS have passed (at most SETUP_MAX_REPEATS), so the median of a
# 0.1 s set-up is as steady as that of a 5 s one.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 20
# Reference chunks timed on each side of a set-up to scale its time.
SETUP_CHUNKS = 8
MIN_OPS = 100

COMMANDS = ("decompose", "classify", "seymour", "transversal", "quasi-kernel",
            "kernel", "color", "oriented", "verify-T", "census", "oracle")
RUNGS = tuple(f"rung-{profile}-{ears}"
              for profile, _, _, _, rungs in workloads.CERTIFY_PROFILES
              for ears, _ in rungs)
END_TO_END_UNITS = {"op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
                    "decided_ratio": "ratio", "checked_ratio": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class SourceMissing(Exception):
    """The checkout holds no earlab package under src/."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.metric_names():
        units[name] = "ms" if name.endswith("ms") else "count"
    for command in COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    for rung in RUNGS:
        units[f"cli.{rung}.p50_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def require_sources() -> None:
    if not (SRC / "earlab" / "cli.py").is_file():
        raise SourceMissing(f"no earlab sources under {SRC}")


def import_earlab():
    """Import earlab afresh from the checkout's src/, dropping any earlier
    import so its module-level caches start cold."""
    require_sources()
    for name in [n for n in sys.modules if n == "earlab" or n.startswith("earlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    earlab = importlib.import_module("earlab")
    importlib.import_module("earlab.cli")
    if Path(earlab.__file__).resolve().parent != SRC / "earlab":
        raise SourceMissing(f"earlab imported from {earlab.__file__}, not {SRC}")
    return earlab


@dataclass
class Context:
    earlab: object
    plan: workloads.Plan


def call(main, argv):
    """(seconds, exit code or None if it raised, captured stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
    except (Exception, SystemExit):
        end = time.perf_counter()
        return end - start, None, buf.getvalue() + traceback.format_exc()
    return time.perf_counter() - start, code, buf.getvalue()


def setup(workload: str, seed: int, workdir: str, smoke: bool = False,
          tracer: tracing.Tracer | None = None) -> tuple[float, Context]:
    """Import, seeded input generation into workdir, and one warm-up call
    per command form.  Returns its wall time and the context to measure."""
    start = time.perf_counter()
    earlab = import_earlab()
    if tracer is not None:
        tracer.install()
        tracer.op = tracing.SETUP
    plan = workloads.WORKLOADS[workload](earlab, seed, workdir, smoke)
    if tracer is not None:
        tracer.op = tracing.WARMUP
    for op in plan.warmups:
        call(earlab.cli.main, op.argv)
    return time.perf_counter() - start, Context(earlab, plan)


def run_pass(ctx: Context):
    """One timed pass over the op list: (wall seconds, records, speed
    factors).  A reference chunk is timed before each call and after the
    last one, and each call gets the factor of the chunks around it."""
    main = ctx.earlab.cli.main
    records, chunks = [], []
    start = time.perf_counter()
    for op in ctx.plan.ops:
        chunks.append(calibrate.sample())
        records.append(call(main, op.argv))
    chunks.append(calibrate.sample())
    return time.perf_counter() - start, records, calibrate.call_factors(chunks)


def judge(op: workloads.Op, inst, code, text: str):
    """(failure reason or None, decided) for one call."""
    outcome, env = checkers.classify_envelope(code, text)
    if outcome not in op.allowed:
        detail = env.get("error") if env else (text.strip().splitlines() or [""])[-1]
        return f"outcome {outcome}: {detail}", outcome != checkers.BUDGET_STOP
    if outcome != checkers.OK:
        return None, outcome != checkers.BUDGET_STOP
    payload = env["payload"]
    try:
        checkers.PAYLOAD_CHECKS[op.form](payload, inst)
    except checkers.CheckError as exc:
        return f"check failed: {exc}", True
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed payload: {exc!r}", True
    if op.form == "classify" and "unknown" in payload["levels"].values():
        return None, False
    return None, True


class Tally:
    """Verdicts, latencies and decided counts over every call of a run.
    Each op is judged on its first call; a later call of it must print the
    same bytes (timing field aside) or it fails.  Latencies are kept as
    measured and scaled to the reference speed."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        self.verdicts: dict[int, tuple[str, str | None, bool]] = {}
        self.attempted = 0
        self.decided = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.wall_ms: list[float] = []

    def add(self, records, factors=None,
            mismatch: str = "output differs from its first call") -> None:
        factors = factors or [1.0] * len(records)
        for op, (seconds, code, text), scale in zip(self.plan.ops, records, factors):
            norm = checkers.normalized(text)
            if op.id not in self.verdicts:
                inst = self.plan.instances.get(op.instance)
                self.verdicts[op.id] = (norm, *judge(op, inst, code, text))
            first, reason, decided = self.verdicts[op.id]
            if reason is None and norm != first:
                reason = mismatch
            self.attempted += 1
            self.decided += decided
            if reason is not None:
                self.failures.append(f"op {op.id} ({' '.join(op.argv[:2])}): {reason}")
            self.latencies_ms.append(seconds * scale * 1000)
            self.wall_ms.append(seconds * 1000)


def end_to_end(tally: Tally, setup_times: list[float]) -> dict[str, float]:
    """Times are at the reference speed (see calibrate.py); ops_per_s counts
    the calls alone, not the reference chunks between them."""
    lat = tally.latencies_ms
    return {
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "ops_per_s": tally.attempted / (sum(lat) / 1000),
        "decided_ratio": tally.decided / tally.attempted,
        "checked_ratio": 1 - len(tally.failures) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def scaled_setup(workload: str, seed: int, workdir: str, smoke: bool):
    """setup() with its time scaled by reference chunks timed just before
    and just after it."""
    chunks = calibrate.samples(SETUP_CHUNKS)
    elapsed, ctx = setup(workload, seed, workdir, smoke)
    chunks += calibrate.samples(SETUP_CHUNKS)
    return elapsed * calibrate.factor(chunks), ctx


def measure(workload: str, seed: int, seconds: float, scratch: str,
            smoke: bool = False):
    """Untraced run: setup several times (median reported), then passes
    until the time is up and enough ops were made.  A smoke run sets up
    once and makes one pass.  Times are scaled to the reference speed."""
    repeats, setup_seconds, min_ops = ((1, 0.0, 1) if smoke else
                                       (SETUP_REPEATS, SETUP_SECONDS, MIN_OPS))
    setup_times: list[float] = []
    while len(setup_times) < repeats or (sum(setup_times) < setup_seconds and
                                         len(setup_times) < SETUP_MAX_REPEATS):
        workdir = tempfile.mkdtemp(prefix=f"setup{len(setup_times)}-", dir=scratch)
        elapsed, ctx = scaled_setup(workload, seed, workdir, smoke)
        setup_times.append(elapsed)
    tally = Tally(ctx.plan)
    wall = 0.0
    while wall < seconds or tally.attempted < min_ops:
        gc.collect()
        pass_wall, records, factors = run_pass(ctx)
        wall += pass_wall
        tally.add(records, factors)
    return tally, end_to_end(tally, setup_times)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def traced(workload: str, seed: int, scratch: str, smoke: bool = False):
    """Each op runs untraced and then traced; the traced call must print the
    same bytes.  Pairing the two calls in time keeps machine-speed drift out
    of the overhead ratio.  Returns the tally and per-layer metrics; the
    spans go to OUT."""
    tracer = tracing.Tracer()
    _, ctx = setup(workload, seed, tempfile.mkdtemp(dir=scratch), smoke, tracer)
    tracer.uninstall()
    plain, traced_records = [], []
    gc.collect()
    for op in ctx.plan.ops:
        plain.append(call(ctx.earlab.cli.main, op.argv))
        tracer.install()
        tracer.op = op.id
        try:
            traced_records.append(call(ctx.earlab.cli.main, op.argv))
        finally:
            tracer.uninstall()
    tally = Tally(ctx.plan)
    tally.add(plain)
    tally.add(traced_records, mismatch="traced output differs from the untraced call")

    metrics = tracer.layer_metrics()
    untraced_ms = {op.id: seconds * 1000
                   for op, (seconds, _, _) in zip(ctx.plan.ops, plain)}
    for command in COMMANDS:
        metrics[f"cli.{command}.p50_ms"] = _p50(
            [untraced_ms[op.id] for op in ctx.plan.ops if op.command == command])
    for rung in RUNGS:
        metrics[f"cli.{rung}.p50_ms"] = _p50(
            [untraced_ms[op.id] for op in ctx.plan.ops if op.rung == rung])
    metrics["trace.overhead_ratio"] = (sum(r[0] for r in traced_records)
                                       / sum(r[0] for r in plain))
    ops = {op.id: {"form": op.form, "rung": op.rung, "instance": op.instance}
           for op in ctx.plan.ops}
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz",
                 {"workload": workload, "seed": seed, "ops": ops})
    return tally, metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, Tally]:
    """The result object printed as the last stdout line, and the tally."""
    require_sources()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        if trace:
            tally, values = traced(workload, seed, scratch, smoke)
            units = per_layer_units()
        else:
            tally, values = measure(workload, seed, seconds, scratch, smoke)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, tally = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    log = sys.stderr
    print(f"{args.workload} seed {args.seed}: {tally.attempted} calls, "
          f"{len(tally.failures)} failed (error_ratio "
          f"{len(tally.failures) / tally.attempted:.4f})", file=log)
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.4f} {metric['unit']}", file=log)
    if not args.trace:
        wall = tally.wall_ms
        print(f"  unscaled wall time: p50 {statistics.median(wall):.4f} ms, "
              f"p90 {statistics.quantiles(wall, n=10)[8]:.4f} ms", file=log)
    for line in tally.failures[:20]:
        print(f"  FAIL {line}", file=log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
