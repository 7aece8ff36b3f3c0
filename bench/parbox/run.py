#!/usr/bin/env python3
"""parbox serving benchmark: build, run, report.

    bench/parbox/run.sh [--workload W] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--json-dir D]
                        [--repeat N]

Builds bench/parbox (its own CMake project over the repository's src/)
into .bench_build/parbox, then runs each workload in a fresh process,
one after another. Without --workload it runs all four.

--trace 0 (default) reports every end-to-end metric of BENCHMARK.json;
--trace 1 (or --traced) runs each workload twice, untraced then traced,
and reports every per-layer metric (span self times from the traced
run, everything else from the untraced one).

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics":
   {"<name>": {"value": ..., "unit": ...}, ...}}
With several workloads, metric names are "<workload>/<name>".

--repeat N runs each workload N times, with seeds --seed .. --seed+N-1,
and prints for every end-to-end metric the median, quartiles and spread
((q3 - q1) / median) next to its bound, flagging spreads beyond it.

--json-dir D also writes D/parbox.<workload>.json, flat
{"bench": "parbox.<workload>", "<metric>": value, ...}, which
tools/bench_diff compares between two runs.

`ctest --test-dir .bench_build/parbox` runs a one-second smoke run of
every workload with all checks on.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "parbox"
WORKLOADS = ["hot_read", "cold_read", "read_write", "proc_read"]

def child_timeout(seconds):
    """A run takes about seconds + 7 s; allow for a host twice as slow,
    while two runs (--trace 1) still finish within three minutes."""
    return 40 + 2 * seconds


def fail(message, code=1):
    print(message, file=sys.stderr)
    sys.exit(code)


def load_catalog():
    """(end_to_end, per_layer) metric lists of BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configure (once) and build; the build log goes to BUILD/build.log."""
    if not (ROOT / "src").is_dir() or not (ROOT / "tools" / "sited.cc").is_file():
        fail(f"parbox sources not found under {ROOT} (need src/ and tools/)",
             code=2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed; see {log_path}")
    return BUILD / "parbox_bench"


def run_child(binary, workload, seed, seconds, traced=False):
    """One workload in a fresh process (its own process group, so any
    daemon it spawns goes down with it). Returns its result object."""
    args = [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}"]
    if traced:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        args += ["--traced", f"--trace-out={trace_dir / workload}.json"]
    child = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    timeout = child_timeout(seconds)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
        print(f"{workload}: timed out after {timeout} s", file=sys.stderr)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result (exit status {child.returncode})")
    result["exit"] = child.returncode
    return result


def run_workload(binary, workload, seed, seconds, trace):
    """Metrics of one workload: the untraced run, plus, when `trace`, the
    metrics only the traced run has (span times, trace health) and the
    tracing overhead."""
    result = run_child(binary, workload, seed, seconds)
    if trace:
        traced = run_child(binary, workload, seed, seconds, traced=True)
        for name, value in traced["metrics"].items():
            result["metrics"].setdefault(name, value)
        base = result["metrics"].get("read_p50_ms", 0.0)
        if base > 0:
            result["metrics"]["obs.tracing_overhead_p50"] = (
                traced["metrics"].get("read_p50_ms", 0.0) / base - 1.0)
        result["correct"] = result["correct"] and traced["correct"]
        result["exit"] = result["exit"] or traced["exit"]
    return result


def report(workload, result, wanted):
    """Prints the workload's metrics with units; returns the selected
    {"name": {"value", "unit"}} map, absent metrics reported as 0."""
    metrics = result["metrics"]
    selected = {}
    print(f"== {workload}: {'correct' if result['correct'] else 'INCORRECT'}"
          f", {result['attempted']} attempted, {result['failed']} failed")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        present = name in metrics
        value = metrics.get(name, 0.0)
        selected[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.6g} {unit}"
              + ("" if present else "   (absent)"))
    return selected


def write_json(json_dir, workload, result):
    json_dir.mkdir(parents=True, exist_ok=True)
    flat = {"bench": f"parbox.{workload}"}
    flat.update(sorted(result["metrics"].items()))
    (json_dir / f"parbox.{workload}.json").write_text(
        json.dumps(flat, indent=2) + "\n")


def repeat(binary, workloads, args, end_to_end):
    """Runs each workload args.repeat times; prints spreads vs bounds."""
    flagged = 0
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            result = run_child(binary, workload, args.seed + i, args.seconds)
            if not result["correct"]:
                fail(f"{workload} seed {args.seed + i}: incorrect")
            runs.append(result["metrics"])
        print(f"== {workload}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>7s}")
        for m in end_to_end:
            values = [r.get(m["name"], 0.0) for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            # setup_s's spread is informational; its median is what counts.
            over = spread > m["bound"] and m["name"] != "setup_s"
            flagged += over
            print(f"  {m['name']:16s} {median:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.3f} {m['bound']:7.3f}"
                  + ("  SPREAD > BOUND" if over else ""))
            print("    " + " ".join(f"{v:.5g}" for v in values))
    return flagged


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--json-dir", type=Path)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    trace = args.trace == 1 or args.traced

    end_to_end, per_layer = load_catalog()
    binary = build()
    workloads = [args.workload] if args.workload else WORKLOADS

    if args.repeat >= 2:
        sys.exit(1 if repeat(binary, workloads, args, end_to_end) else 0)
    if args.repeat:
        fail("--repeat needs at least 2 runs", code=2)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, args.seconds,
                              trace)
        selected = report(workload, result, per_layer if trace else end_to_end)
        if args.json_dir:
            write_json(args.json_dir, workload, result)
        prefix = "" if len(workloads) == 1 else workload + "/"
        for name, metric in selected.items():
            summary["metrics"][prefix + name] = metric
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        ok = ok and result["correct"] and result["exit"] == 0
    print(json.dumps(summary))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
