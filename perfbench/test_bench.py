#!/usr/bin/env python3
"""Self-test of the mvsim benchmark.

    python3 perfbench/test_bench.py

Runs from the root of a checkout and takes about a minute after the
benchmark is built. It checks that:
  * every workload's untraced run prints each end-to-end metric of
    BENCHMARK.json with its unit and sample count, and a result line
    with exactly the contract's keys;
  * a traced run prints every per-layer metric;
  * a deliberately wrong pinned outcome fails the run: non-zero exit,
    "correct": false and a non-zero failure count;
  * a directory holding only BENCHMARK.json and the benchmark's own
    files makes the command exit non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "0.5"


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def bench(*args, cwd=ROOT, run=RUN):
    proc = subprocess.run(["python3", run, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def table_rows(stdout):
    """metric -> (unit, samples) from the human-readable table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].isdigit():
            rows[parts[0]] = (parts[2], int(parts[3]))
    return rows


def check_result(result, expected_metrics, where):
    if result is None:
        fail(where + ": no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(where + ": result keys " + str(sorted(result)))
    if set(result["metrics"]) != set(expected_metrics):
        fail(where + ": metrics " + str(sorted(set(result["metrics"]) ^ set(expected_metrics))))
    for name, unit in expected_metrics.items():
        if result["metrics"][name]["unit"] != unit:
            fail(where + ": unit of " + name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        code, out = bench("--workload", workload, "--seconds", SECONDS)
        where = workload + " untraced"
        if code != 0:
            fail(where + ": exit " + str(code) + "\n" + out[-3000:])
        result = result_line(out)
        check_result(result, end_to_end, where)
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            fail(where + ": " + json.dumps(result))
        rows = table_rows(out)
        for name, unit in end_to_end.items():
            if name not in rows or rows[name][0] != unit or rows[name][1] < 1:
                fail(where + ": table row for " + name)
        print("ok  " + where)

    code, out = bench("--workload", "proximity", "--seconds", SECONDS, "--trace", "1")
    if code != 0:
        fail("traced: exit " + str(code) + "\n" + out[-3000:])
    check_result(result_line(out), per_layer, "traced")
    print("ok  traced pass")

    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        with open(os.path.join(HERE, "pins.json")) as f:
            pins = json.load(f)
        pins["workloads"]["outbreak"][0][0][0] += 1
        wrong = os.path.join(scratch, "wrong-pins.json")
        with open(wrong, "w") as f:
            json.dump(pins, f)
        code, out = bench("--workload", "outbreak", "--seconds", SECONDS, "--pins", wrong)
        result = result_line(out)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            fail("wrong pin was not caught: exit " + str(code) + " " + str(result))
        print("ok  wrong pin fails the run (failed %d of %d)" % (result["failed"],
                                                               result["attempted"]))

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, out = bench("--workload", workloads[0], "--seed", "1", "--seconds", SECONDS,
                          "--trace", "0", cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
        if code == 0 or result_line(out) is not None:
            fail("bare directory: exit " + str(code) + " with output " + out[-500:])
        print("ok  bare directory exits %d without a result" % code)
    finally:
        shutil.rmtree(scratch)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
