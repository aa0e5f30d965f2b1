"""mnmap benchmark: one command per workload run.

    python3 perfbench/run.py --workload {search,matrix,verify,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from src/ and from
nowhere else.  The run set-up probes fresh processes for the set-up time,
then runs the workload in its own child process for S seconds (see
harness.py) and checks every output (see workloads.py).  It prints a report
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from traced passes, and the span tree
is written to .perfbench/trace-<workload>-seed<N>.json.  Exit status 2 means
the package could not be found, 1 that the workload process failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARNESS = HERE / "harness.py"

PROBES = 15
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
CHILD_TIMEOUT_S = 150
# On a shared host, CPU speed can swing by 1.5x in phases of tens of seconds
# (seen on a 2-core VM), which no statistic over one run removes.  End-to-end times are
# therefore scaled to reference speed: multiplied by the reference time of a
# calibration (harness.calibrate, or a bare interpreter start for operations
# that are processes) over its time measured next to or during the
# operation.  The calibrations are benchmark code, so a change to the
# package cannot move them.  Each operation then counts its fastest pass,
# because slowdowns only add time.

# name -> unit.  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernel.search.enumerate_s": "s",
    "kernel.search.evaluate_s": "s",
    "kernel.search.candidates": "count",
    "kernel.search.hits": "count",
    "kernel.search.space_words": "count",
    "kernel.search.pure_ratio": "ratio",
    "kernel.search.reverify_ratio": "ratio",
    "kernel.verify.s": "s",
    "kernel.bigelow_alpha.s": "s",
    "words.is_pure.calls": "count",
    "words.is_pure.s": "s",
    "maps.mn_map.calls": "count",
    "maps.project_pk.s": "s",
    "maps.project_pk.growth": "ratio",
    "maps.stabilize_fd.s": "s",
    "maps.stabilize_fd.growth": "ratio",
    "reps.rho_word.s": "s",
    "reps.rho_word.letters": "count",
    "reps.rho_word.letters_per_s": "1/s",
    "reps.handle_reduce.s": "s",
    "reps.handle_reduce.calls": "count",
    "reps.artin_apply.s": "s",
    "reps.artin_apply.inconclusive_ratio": "ratio",
    "laurent.det.s": "s",
    "laurent.det.calls": "count",
    "laurent.mul.calls": "count",
    "laurent.result_terms_max": "count",
    "laurent.coeff_bits_max": "bits",
    "laurent.matmul.s": "s",
    "cli.process_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "words.self_s": "s",
    "maps.self_s": "s",
    "reps.self_s": "s",
    "laurent.self_s": "s",
    "kernel.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def environment(seed: int) -> dict:
    """What a result must be read with: interpreter, machine, code, seed."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mnmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def harness(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HARNESS), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"harness {' '.join(args)} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_index(count: int) -> int:
    """Index into sorted samples of the highest percentile with at least
    TAIL_BEYOND samples above it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples leave no tail percentile")
    return count - TAIL_BEYOND - 1


def scaled(ns: float, cal_ns: int, ref_ns: int) -> float:
    """A time measured while the calibration took cal_ns, in seconds at
    reference speed (the calibration taking ref_ns)."""
    return ns * ref_ns / cal_ns / 1e9


def fastest(passes: list[dict]) -> list[float]:
    """Each operation's fastest scaled latency over the passes, in s."""
    return [min(scaled(ns, cal, ref) for ns, cal, ref in column)
            for column in zip(*(zip(p["latency_ns"], p["cal_ns"],
                                    [p["cal_ref_ns"]] * len(p["cal_ns"]))
                                for p in passes))]


def end_to_end(passes: list[dict], probes: list[dict], rss_mb: float
               ) -> tuple[dict, list[str]]:
    best = sorted(fastest(passes))
    ops = len(best)
    values = {
        "setup_s": min(scaled((p["import_s"] + p["alpha_s"]) * 1e9,
                              p["cal_ns"], p["cal_ref_ns"]) for p in probes),
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": best[tail_index(ops)] * 1e3,
        "peak_rss_mb": rss_mb,
    }
    walls = [sum(p["latency_ns"]) / 1e9 for p in passes]
    cals = [c / 1e3 for p in passes for c in p["cal_ns"]]
    notes = [f"{ops} operations per pass, {len(passes)} passes; unscaled "
             f"median pass {statistics.median(walls):.4f} s; calibration "
             f"{min(cals):.0f}-{max(cals):.0f} us (reference "
             f"{passes[0]['cal_ref_ns'] / 1e3:.0f} us)",
             f"op_tail_ms is p{100 * (ops - TAIL_BEYOND) / ops:.1f}: "
             f"{TAIL_BEYOND} operations are slower"]
    space = passes[0]["space_words"]
    if space:
        notes.append(f"space_words_per_s {space / values['wall_s']:.1f} 1/s "
                     f"({space} freely reduced words per pass)")
    return values, notes


def per_layer(passes: list[dict], probes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    process = [sum(ns for ns, kind in zip(p["latency_ns"], p["kinds"])
                   if kind == "cli") / 1e9 for p in traced]
    values["cli.process_s"] = statistics.median(process)
    values["cli.startup_s"] = statistics.median(
        s - p["layers"]["cli.main_s"] for s, p in zip(process, traced))
    values["kernel.bigelow_alpha.s"] = statistics.median(
        p["alpha_s"] for p in probes)
    values["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(plain))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mnmap" / "__init__.py").is_file():
        print(f"error: no mnmap package under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    try:
        probes = [harness("--probe") for _ in range(PROBES)]
        raw = harness("--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    passes = raw["passes"]
    attempted = sum(len(p["latency_ns"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    inconclusive = sum(p["inconclusive"] for p in passes)

    print(f"workload {args.workload}: " + json.dumps(env))
    print(f"passes {len(passes)}, operations {attempted}, failed {failed}, "
          f"inconclusive {inconclusive}, "
          f"failed_ratio {failed / attempted:.6f} ratio")
    if args.trace:
        values = per_layer(passes, probes)
        units = PER_LAYER
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "environment": env, "workload": args.workload,
            "metrics": values,
            "spans": [p["spans"] for p in passes if p["traced"]],
            "span_fields": ["path", "calls", "total_ns", "child_ns",
                            "raised"]}))
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(passes, probes, raw["peak_rss_mb"])
        units = END_TO_END
        for note in notes:
            print(note)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
