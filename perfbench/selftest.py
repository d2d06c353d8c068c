#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
  * the timed run prints every end-to-end metric of BENCHMARK.json with its
    unit, and the traced run every per-layer metric, all finite;
  * both runs pass their output checks, and the traced run's output bytes
    match the untraced run's;
  * one deliberately corrupted answer is counted as exactly one failure;
  * the runner refuses to run with a stray DANCE_* knob set.
Also checks that perfbench/layer_map.json describes exactly the per-layer
metrics of BENCHMARK.json. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch)

SECONDS = "1"


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metrics(result, wanted, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result has exactly the four keys")
    got = result["metrics"]
    check(list(got) == [m["name"] for m in wanted],
          f"{what}: every metric is reported, in order")
    for m in wanted:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not isinstance(entry["value"],
                                                        (int, float)):
            raise AssertionError(f"{what}: bad entry {m['name']}: {entry}")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{what}: outputs pass their checks")


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    layer_map = run.load_json(os.path.join(run.HERE, "layer_map.json"))
    names = [m["name"] for m in spec["per_layer"]]
    check(set(layer_map["layers"]) == set(names),
          "layer_map.json covers exactly the per-layer metrics")
    for name, entry in layer_map["layers"].items():
        moved = set(entry["moves"])
        check(set(entry["workloads"]) <= set(run.WORKLOADS) and
              moved <= set(run.WORKLOADS),
              f"layer_map.json: {name} names known workloads")
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    check(all(set(ms) <= e2e_names for e in layer_map["layers"].values()
              for ms in e["moves"].values()),
          "layer_map.json: every 'moves' entry is an end-to-end metric")

    run.build()
    for workload in run.WORKLOADS:
        _, timed = bench(workload, 0)
        check_metrics(timed, spec["end_to_end"], f"{workload} timed")
        check(all(v["value"] != 0 for v in timed["metrics"].values()),
              f"{workload} timed: no end-to-end metric is 0")

        # --trace 1 counts a digest mismatch between the untraced and the
        # traced process as a failure, so passing here means they matched.
        record, traced = bench(workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        check(len(record["children"]) == 2,
              f"{workload} traced: untraced and traced processes both ran")

        _, corrupt = bench(workload, 0, "--corrupt")
        check(not corrupt["correct"] and corrupt["failed"] == 1,
              f"{workload}: one corrupted answer counts as one failure")

    env = {**run.child_env(), "DANCE_SERVE_MAX_BATCH": "1"}
    done = subprocess.run([run.RUNNER, "--workload", "serve_unique", "--seed",
                           "1", "--seconds", SECONDS, "--trace", "0",
                           "--tiny"], env=env, capture_output=True,
                          timeout=60, check=False)
    check(done.returncode != 0 and not done.stdout,
          "runner refuses a stray DANCE_* knob")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, run.BenchError) as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
