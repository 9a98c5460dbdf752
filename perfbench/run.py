#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench from source and runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One workload in its own process. --trace 0 prints the end-to-end
      metrics, --trace 1 the per-layer metrics of a separate traced run.
  python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
      Every workload, each in its own process, one after another.
  python3 perfbench/run.py --smoke
      Every workload at a small size in both modes: fails if a metric named
      in BENCHMARK.json is missing or has another unit, or if any
      correctness check fails. The benchmark's own test.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit status is 0 only
when the build succeeded, every correctness check passed and every named
metric was reported.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; work files and traces go there too.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["travel_mix", "fanin_promise", "chain_wal"]
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    source = os.path.join(ROOT, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "perfbench")


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None, None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def missing_metrics(result, trace):
    """Problems with the metric set of one result, as strings."""
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if trace else end_to_end
    if declared is None:
        return []
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')!r}, "
                            f"not {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    return problems


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process; returns (result, lines) or
    (None, lines) when it failed to produce a result."""
    work = os.path.join(os.path.dirname(build_dir()),
                        f"run-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return None, []
    except BaseException:
        # Interrupted (e.g. SIGTERM): never leave the workload running.
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        raise
    traces = os.path.join(os.path.dirname(build_dir()), "traces")
    for name in os.listdir(work):
        if name.endswith(".trace.json"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: no output (exit {proc.returncode})")
        return None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a result (exit {proc.returncode})")
        return None, lines
    if proc.returncode != 0:
        result["correct"] = False
    return result, lines


def validate(result, trace, workload):
    ok = bool(result.get("correct")) and result.get("failed", 1) == 0 \
        and result.get("attempted", 0) >= 1
    for problem in missing_metrics(result, trace):
        log(f"{workload}: {problem}")
        ok = False
    if not ok:
        log(f"{workload}: FAILED (correct={result.get('correct')}, "
            f"failed={result.get('failed')} of {result.get('attempted')})")
    return ok


def single(binary, args):
    result, lines = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace, False)
    if result is None:
        return 1
    ok = validate(result, args.trace, args.workload)
    for line in lines[:-1]:
        print(line)
    result["correct"] = ok and bool(result.get("correct"))
    print(json.dumps(result))
    return 0 if ok else 1


def every(binary, args, workloads, smoke, traces):
    """Each workload in its own process; prints a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in traces:
            started = time.monotonic()
            result, lines = run_workload(binary, workload, args.seed,
                                         args.seconds, trace, smoke)
            elapsed = time.monotonic() - started
            print(f"== {workload} (trace {trace}, {elapsed:.1f} s)")
            for line in lines[:-1]:
                print(line)
            if result is None or not validate(result, trace, workload):
                total["correct"] = False
                if result is None:
                    continue
            total["attempted"] += result.get("attempted", 0)
            total["failed"] += result.get("failed", 0)
            for name, m in result.get("metrics", {}).items():
                total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    # SIGTERM unwinds like Ctrl-C, so a running build or workload is killed
    # and waited for before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")

    binary = build()
    if binary is None:
        return 3
    if args.smoke:
        args.seconds = 1
        return every(binary, args, WORKLOADS, True, [0, 1])
    if args.workload == "all":
        return every(binary, args, WORKLOADS, False, [args.trace])
    return single(binary, args)


if __name__ == "__main__":
    sys.exit(main())
