"""The workload process and the set-up probe.

    python3 perfbench/harness.py --probe
        Fresh-process set-up: time `import mnmap` and the first
        `bigelow_alpha()` (whose Burau gate runs once), print them as JSON.

    python3 perfbench/harness.py --workload W --seed N --seconds S --trace T
        Build the workload's inputs, then run passes over its operation list
        until S seconds have gone, one operation at a time.  With T = 1,
        passes alternate between untraced and traced (at least one of each).
        Prints one JSON line with the raw per-pass figures.

run.py starts both; they are not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("words", "laurent", "reps", "maps", "kernel", "cli")


class GuardError(RuntimeError):
    """The package is missing from src/ or resolves somewhere else."""


def load_package() -> SimpleNamespace:
    """Import mnmap from this checkout's src/ and nowhere else."""
    init = SRC / "mnmap" / "__init__.py"
    if not init.is_file():
        raise GuardError(f"no package at {init.parent}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mnmap")
    if Path(package.__file__).resolve() != init.resolve():
        raise GuardError(f"mnmap resolved to {package.__file__}, "
                         f"not {init}")
    return SimpleNamespace(**{name: importlib.import_module(f"mnmap.{name}")
                              for name in MODULES})


# Calibration times that define reference speed (roughly a 2-core x86 VM
# running Python 3.11 at full speed): run.py scales every end-to-end time by
# ref / measured.
CAL_REF_NS = 100_000
SPAWN_REF_NS = 35_000_000
CAL_REPS = 3  # loop calibrations per sample
SAMPLE_PERIOD_S = 0.05


def calibrate() -> int:
    """ns for a fixed loop of the interpreter work the package does most:
    dict updates keyed by exponent pairs, with big-integer products.  It
    runs next to the operations, so the run can tell how fast the (shared)
    machine was at the time."""
    start = perf_counter_ns()
    acc: dict[tuple[int, int], int] = {}
    big = 3 ** 100
    for i in range(600):
        key = (i & 31, i >> 5)
        acc[key] = acc.get(key, 0) + big * i
    return perf_counter_ns() - start


def calibrate_spawn() -> int:
    """ns for a bare interpreter start, the calibration for operations that
    are whole processes (process creation does not track the loop above)."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-E", "-s", "-c", "pass"], check=True,
                   capture_output=True, timeout=120)
    return perf_counter_ns() - start


def pin_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    loop measures the CPU the work ran on (the two can differ in speed)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> dict:
    pin_cpu()
    cal_ns = min(calibrate() for _ in range(30))
    start = perf_counter()
    mods = load_package()
    imported = perf_counter()
    mods.kernel.bigelow_alpha()
    done = perf_counter()
    return {"import_s": imported - start, "alpha_s": done - imported,
            "cal_ns": cal_ns, "cal_ref_ns": CAL_REF_NS}


def _check(op, result) -> bool:
    try:
        if op.check(result):
            return True
    except Exception:  # a malformed output fails its check
        traceback.print_exc(limit=3, file=sys.stderr)
    print(f"check failed: {op.kind}", file=sys.stderr)
    return False


class Sampler:
    """Calibrates every SAMPLE_PERIOD_S while an in-process operation runs,
    from a SIGALRM handler (between bytecodes), so that a long operation is
    scaled by the machine's speed during it rather than at its ends.  The
    handler's own time is kept apart and taken off the operation's time."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        self.samples.append(min(calibrate() for _ in range(CAL_REPS)))
        self.spent_ns += perf_counter_ns() - start

    def __enter__(self) -> Sampler:
        self.samples = []
        self.spent_ns = 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(ops, tracer) -> dict:
    """One pass over the operation list; check time is not op time.  A
    calibration runs between operations.  Each operation records the
    (harmonic) mean calibration sampled while it ran or, if it was too short
    to be sampled or ran in other threads or processes, the fastest one next
    to it (before or after)."""
    latencies, kinds, cals = [], [], []
    failed = inconclusive = 0
    spawn = ops[0].spawn
    reps = 1 if spawn else CAL_REPS
    sampler = Sampler()
    unsampled = contextlib.nullcontext(None)

    def calibration() -> int:
        return min(calibrate_spawn() if spawn else calibrate()
                   for _ in range(reps))

    before = calibration()
    for op in ops:
        call = tracer.span("op." + op.kind, op.call) if tracer else op.call
        if tracer:
            tracer.enabled = True
        # A sample taken while other threads run would time the GIL.
        with unsampled if spawn or op.threads else sampler as sampled:
            start = perf_counter_ns()
            try:
                result = call()
                status = "done"
            except op.inconclusive:
                status = "inconclusive"
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(limit=3, file=sys.stderr)
                status = "raised"
            elapsed = perf_counter_ns() - start
        if tracer:
            if op.companion is not None:
                op.companion()
            tracer.enabled = False
        after = calibration()
        if sampled is not None and sampled.samples:
            elapsed -= sampled.spent_ns
            cals.append(round(statistics.harmonic_mean(sampled.samples)))
        else:
            cals.append(min(before, after))
        before = after
        latencies.append(elapsed)
        kinds.append(op.kind)
        if status == "inconclusive":
            inconclusive += 1
        elif status == "raised" or not _check(op, result):
            failed += 1
    return {"latency_ns": latencies, "kinds": kinds, "cal_ns": cals,
            "cal_ref_ns": SPAWN_REF_NS if spawn else CAL_REF_NS,
            "failed": failed, "inconclusive": inconclusive,
            "space_words": sum(op.space_words for op in ops)}


def run_workload(workload: str, seed: int, seconds: float, traced: bool
                 ) -> dict:
    pin_cpu()
    mods = load_package()
    mods.kernel.bigelow_alpha()
    inputs = workloads.make_inputs(workload, seed)
    ops = workloads.build_ops(workload, inputs, mods, str(SRC))
    # Keep the benchmark's own objects (inputs, expected outputs, modules)
    # out of the program's full garbage collections, whose cost would
    # otherwise grow with the size of the benchmark rather than the work.
    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer(mods) if traced else None
    passes = []
    start = perf_counter()
    while True:
        on = tracer is not None and len(passes) % 2 == 1
        if on:
            tracer.install()
            tracer.begin_pass()
        record = run_pass(ops, tracer if on else None)
        record["traced"] = on
        if on:
            tracer.uninstall()
            spans, counters = tracer.collect()
            record["layers"] = tracing.layer_metrics(spans, counters)
            record["spans"] = [[list(path), *rec]
                               for path, rec in sorted(spans.items())]
        passes.append(record)
        if perf_counter() - start >= seconds and (not traced
                                                  or len(passes) >= 2):
            break
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = probe() if args.probe else run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except GuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
