#!/usr/bin/env python3
"""Runs the perf gates of bench/perf_gates.json; exit 0 pass, 1 fail, 2 usage.

  tools/perf_gate.py check   [--table T] [--build DIR]
  tools/perf_gate.py capture [--table T] [--build DIR]

Builds each gate's target, runs its command `runs` times as separate
processes ({build}, {out}, {repo}: build directory, results file,
repository root) and reads each
metric from every run: real_time of each repetition of the google-benchmark
entry of that name (in the metric's unit), or a dotted key of a JSON object.
A metric's value is its best: the minimum if `better` is `lower`, the
maximum if `higher`; it fails when worse than `captured` by more than
`bound`. `over` makes a metric the ratio of two benchmarks' floors. A `min`
check fails when the ratio, or any run's value, is below `min`. `capture`
rewrites every `captured` value and the context block unless a check fails.
"""
import argparse
import datetime
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


class GateError(Exception):
    pass


def values(results, name, unit):
    """Every value of metric `name` in one run's results."""
    if isinstance(results, dict) and "benchmarks" in results:
        try:
            found = [b["real_time"] * SECONDS[b["time_unit"]] / SECONDS[unit]
                     for b in results["benchmarks"]
                     if b["name"] == name and b.get("run_type") != "aggregate"]
        except (KeyError, TypeError) as e:
            raise GateError(f"malformed benchmark entry ({e!r})") from None
    else:
        for key in name.split("."):
            results = results.get(key) if isinstance(results, dict) else None
        found = [results]
    if not found or not all(isinstance(v, (int, float)) for v in found):
        raise GateError(f"metric {name} missing from results")
    return found


def run_gate(gate, build):
    """Runs the gate's command `runs` times; returns each run's results."""
    os.makedirs(os.path.join(build, "perf_gate"), exist_ok=True)
    runs = []
    for i in range(1, gate["runs"] + 1):
        out = os.path.join(build, "perf_gate", f"{gate['name']}.{i}.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [arg.format(build=build, out=out, repo=REPO) for arg in gate["command"]]
        try:
            status = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                    env=dict(os.environ, **gate.get("env", {}))).returncode
            if status != 0:
                raise GateError(f"run {i}: {cmd[0]} exited with status {status}")
            with open(out) as f:
                runs.append(json.load(f))
        except OSError as e:
            raise GateError(f"run {i}: {e}") from None
        except ValueError as e:
            raise GateError(f"run {i}: {out} is not JSON ({e})") from None
    return runs


def measure(metric, runs):
    """The metric's values over all runs (one value for a ratio)."""
    if "over" in metric:
        num, den = (min(v for r in runs for v in values(r, n, "s"))
                    for n in (metric["name"], metric["over"]))
        return [num / den]
    return [v for r in runs for v in values(r, metric["name"], metric["unit"])]


def verdict(metric, vals):
    """(passed, value, rule) for one metric."""
    if "min" in metric:
        return min(vals) >= metric["min"], min(vals), f">= {metric['min']:g}"
    cap, bound = metric["captured"], metric["bound"]
    if metric["better"] == "lower":
        value, limit = min(vals), cap * (1 + bound)
        return value <= limit, value, f"<= {limit:.4g}: captured {cap:g} +{bound:.0%}"
    value, limit = max(vals), cap * (1 - bound)
    return value >= limit, value, f">= {limit:.4g}: captured {cap:g} -{bound:.0%}"


def host_context(build, results, load):
    """Host, compiler and build types the numbers were measured with."""
    cache = {}
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            cache = dict(l.strip().split("=", 1) for l in f if l[0].isalpha() and "=" in l)
    cxx = cache.get("CMAKE_CXX_COMPILER:FILEPATH")
    return {"nproc": os.cpu_count(), "load_avg_1m": round(load, 2),
            "compiler": cxx and subprocess.run([cxx, "--version"], capture_output=True,
                                               text=True).stdout.split("\n")[0],
            "cmake_build_type": cache.get("CMAKE_BUILD_TYPE:STRING"),
            "library_build_type": next((r["context"].get("library_build_type")
                                        for r in results if "context" in r), None)}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("mode", choices=["check", "capture"])
    p.add_argument("--table", default=os.path.join(REPO, "bench", "perf_gates.json"))
    p.add_argument("--build", default=os.path.join(REPO, "build"))
    args = p.parse_args()
    with open(args.table) as f:
        table = json.load(f)
    gates = table["gates"]
    load = os.getloadavg()[0]
    targets = sorted({g["target"] for g in gates if "target" in g})
    if targets:
        subprocess.run(["cmake", "--build", args.build, "-j", str(os.cpu_count()),
                        "--target", *targets], check=True)
    failed, results, method = False, [], {}
    for gate in gates:
        try:
            runs = run_gate(gate, args.build)
            results += [r for r in runs if isinstance(r, dict)]
        except GateError as e:
            runs = e
        for metric in gate["metrics"]:
            label = f"{gate['name']} {metric['name']}" + (
                f" / {metric['over']}" if "over" in metric else "")
            try:
                if isinstance(runs, GateError):
                    raise runs
                vals = measure(metric, runs)
                if "over" not in metric:
                    method[gate["name"]] = (f"{gate['runs']} processes x "
                                            f"{len(vals) // gate['runs']} repetitions")
                if args.mode == "capture" and "min" not in metric:
                    metric["captured"] = float(f"{verdict(metric, vals)[1]:.4g}")
                ok, value, rule = verdict(metric, vals)
                detail = f" = {value:.4g} {metric['unit']} ({rule}; {len(vals)} values)"
            except GateError as e:
                ok, detail = False, f": {e}"
            failed |= not ok
            print(f"perf_gate: {'ok  ' if ok else 'FAIL'} {label}{detail}")
    context = host_context(args.build, results, load)
    print("perf_gate: captured on", json.dumps(table.get("context", {})))
    print("perf_gate: running on ", json.dumps(context))
    if args.mode == "capture" and not failed:
        commit = subprocess.run(["git", "-C", REPO, "describe", "--always", "--dirty"],
                                capture_output=True, text=True).stdout.strip()
        table["context"] = dict(context, runs=method, commit=commit,
                                date=datetime.date.today().isoformat())
        with open(args.table, "w") as f:
            f.write(json.dumps(table, indent=2) + "\n")
        print(f"perf_gate: captured {args.table}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
