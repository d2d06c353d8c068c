#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and runs one workload.

    python3 perfbench/run.py --workload pipeline|serve_unique|serve_repeat \
        --seed N --seconds S --trace 0|1

Run from the repository root. The runner (perfbench/runner) is built with
CMake under .bench_build/perfbench on first use. Each workload runs in a
fresh child process whose environment pins DANCE_NUM_THREADS=1 and clears
every other DANCE_* variable.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 runs it untraced and then traced, in two
processes; it reports the per-layer metrics of the traced run, the tracing
overhead of each end-to-end metric (traced / untraced), and counts the run
as incorrect unless both processes produced the same output bytes.

The last line of standard output is the result object; the line before it
records the run (source version, host, build type, CPU and steal seconds,
sample counts). Exits non-zero without a result when the build or a child
process fails.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("pipeline", "serve_unique", "serve_repeat")
OVERHEAD_PREFIX = "trace.overhead."
# A run must end within 180 s; leave room for the build check and parsing.
# A first run that compiles gets its child budget after the build.
DEADLINE_S = 170.0
AFTER_BUILD_S = 160.0


class BenchError(Exception):
    pass


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")


def build():
    """Configures (once) and builds the runner; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under src/; run from a checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        # The default target is the runner alone (the library tree is
        # EXCLUDE_FROM_ALL); building it also re-runs CMake when a build
        # file changed.
        run_quiet(["cmake", "--build", BUILD, "-j", jobs], timeout=840)
    if not os.access(RUNNER, os.X_OK):
        raise BenchError("runner binary missing after build")


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DANCE_")}
    env["DANCE_NUM_THREADS"] = "1"
    return env


def run_child(args, trace, deadline, corrupt=False):
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd.append("--corrupt")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the run")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner timed out after {timeout:.0f} s") from e
    if done.returncode != 0:
        raise BenchError(f"runner exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError("runner printed no result line") from e
    if out.get("attempted", 0) < 1:
        raise BenchError("runner attempted nothing")
    return out


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256():
    """Digest of the sources the runner is built from, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def layer_value(name, traced, timed, workload, layer_map):
    if name.startswith(OVERHEAD_PREFIX):
        metric = name[len(OVERHEAD_PREFIX):]
        return traced["e2e"][metric] / timed["e2e"][metric]
    if name in traced["layers"]:
        return traced["layers"][name]
    if workload not in layer_map.get(name, {}).get("workloads", ()):
        return 0.0  # the layer is idle on this workload
    raise BenchError(f"runner did not report {name}")


def evaluate(args, spec, layer_map, deadline):
    """Runs the workload; returns (result object, run record)."""
    timed = run_child(args, 0, deadline, corrupt=args.corrupt)
    children = [timed]
    attempted = timed["attempted"]
    failed = timed["failed"]
    if not args.trace:
        wanted = spec["end_to_end"]
        values = {m["name"]: timed["e2e"].get(m["name"]) for m in wanted}
    else:
        traced = run_child(args, 1, deadline, corrupt=args.corrupt)
        children.append(traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        # The traced loop must give the same bytes as the untraced one on
        # every unit of output both processes completed.
        common = min(len(timed["digests"]), len(traced["digests"]))
        same = timed["digests"][:common] == traced["digests"][:common]
        if common == 0 or not same:
            failed += 1
        wanted = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], traced, timed,
                                         args.workload, layer_map)
                  for m in wanted}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is missing or not finite")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "build_type": build_type(),
        "env": {"DANCE_NUM_THREADS": "1"},
        "children": [{"trace": c["trace"], **c["record"]} for c in children],
    }
    return result, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test only (perfbench/selftest.py): tiny inputs, and one damaged
    # answer that the output check must count.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    start = time.monotonic()
    args = parse_args(argv)
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        layer_map = load_json(os.path.join(HERE, "layer_map.json"))["layers"]
        build()
        deadline = max(start + DEADLINE_S, time.monotonic() + AFTER_BUILD_S)
        result, record = evaluate(args, spec, layer_map, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
