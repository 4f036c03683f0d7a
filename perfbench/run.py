#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the library sources under src/ plus the benchmark program)
in Release into $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed. Each run first prints a calibration line: the times
of a 1/2/4-thread busy loop, the effective cores they imply and the number
of CPUs the run may use, so that no figure is read as multicore scaling on
a host that runs about one thread at a time. The run leaves its CPU
affinity as the caller set it.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero on
a sink mismatch, an error or a build failure.

--self-check runs every workload briefly and checks that each name in
BENCHMARK.json is emitted with its unit, that the deterministic counts repeat
exactly across two runs, and that the trace file parses as JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# Counts that depend only on the workload and its seed.
DETERMINISTIC = [
    "core.engine.pairs_per_phase",
    "distrib.wire.frames_per_phase",
    "distrib.wire.bytes_per_phase",
    "core.sink_store.records_per_phase",
    "core.checkpoint.bytes_per_checkpoint",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src").is_dir():
        log(f"perfbench: no library sources at {ROOT / 'src'}")
        return None
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, trace_out=None):
    """Runs one measurement; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def self_check(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        counts = []
        for trace, rerun in [(0, 0), (1, 0), (1, 1)]:
            trace_out = traces / f"self-check-{workload}-{rerun}.json"
            code, lines = run_binary(binary, workload, 1, 2, trace,
                                     trace_out if trace else None)
            if code != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit code {code}")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: names/units "
                                f"differ: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            if trace:
                counts.append({n: metrics[n]["value"] for n in DETERMINISTIC})
                try:
                    json.loads(trace_out.read_text())
                except (OSError, ValueError) as e:
                    problems.append(f"{workload}: trace file unreadable: {e}")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ across runs: {counts}")
        log(f"self-check {workload}: "
            f"{'ok' if len(problems) == before else 'problems'}")
    for p in problems:
        log("  " + p)
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 3
    if args.self_check:
        return self_check(binary)

    trace_out = None
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_out = traces / f"{args.workload}-seed{args.seed}.json"
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace, trace_out)
    for line in lines:
        print(line)
    if trace_out is not None and code == 0:
        log(f"perfbench: trace written to {trace_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
