#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--repeat N] [--smoke]

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) with its own CMake project, then
each workload runs in a fresh process. Every metric is printed by name
with its unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero when the build
fails, a run fails, or any output is wrong.

--trace 1 reports the per-layer metrics from a traced replay instead of
the end-to-end metrics, and writes a Chrome trace-event file (opens in
Perfetto) next to the build. --repeat N runs each workload N times with
seeds S, S+1, ... from --seed S; it reports the median and interquartile
range of every metric and flags any end-to-end metric whose spread
exceeds its bound in BENCHMARK.json. --smoke makes one short pass over
two cases per workload.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["compile_cold", "egraph_wall", "native_run", "daemon_mixed"]
ROOT = Path(__file__).resolve().parent.parent
# A run ends well inside the 180 s every run is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "build.ninja").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                        str(cmake_dir), "-G", "Ninja"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "dios_bench", "-j", "4"], check=True, stdout=sys.stderr)
    return cmake_dir / "dios_bench"


def run_once(binary, build_dir, workload, seed, seconds, trace, smoke):
    """Runs one workload in a fresh process; returns (exit code, result)."""
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    # Relative, so the daemon's Unix socket path stays under its length
    # limit wherever the checkout lives.
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", os.path.relpath(work)]
    if trace:
        trace_file = build_dir / f"trace-{workload}-{seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so a timeout also stops the daemon and cc
    # children it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        result = None
    return proc.returncode, result


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def summarize(workload, results, metric_bounds):
    """Median and interquartile range of every metric over repeated runs."""
    names = results[0]["metrics"].keys()
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        flag = ""
        if name in metric_bounds and spread > metric_bounds[name]:
            flag = f"  SPREAD {spread:.3f} EXCEEDS BOUND {metric_bounds[name]}"
        print(f"{workload:14} {name:40} median {med:16.6f} {unit:6} "
              f"iqr/median {spread:.4f}{flag}")
        summary[name] = {"value": med, "unit": unit}
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    workloads = [args.workload] if args.workload else WORKLOADS
    repeat = max(1, args.repeat)
    ok = True
    correct = True
    attempted = failed = 0
    last = None
    summaries = {}
    for workload in workloads:
        results = []
        for i in range(repeat):
            code, result = run_once(binary, build_dir, workload,
                                    args.seed + i, args.seconds, args.trace,
                                    args.smoke)
            if result is None:
                ok = False
                continue
            ok &= code == 0
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            results.append(result)
            last = result
        if results and repeat > 1:
            summaries[workload] = summarize(workload, results, bounds())
        elif results:
            summaries[workload] = results[0]["metrics"]

    if last is None:
        return 1
    if len(workloads) == 1 and repeat == 1:
        print(json.dumps(last))
    else:
        metrics = {}
        for workload, summary in summaries.items():
            prefix = f"{workload}." if len(workloads) > 1 else ""
            for name, m in summary.items():
                metrics[prefix + name] = m
        print(json.dumps({"correct": correct and ok, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if ok and correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
