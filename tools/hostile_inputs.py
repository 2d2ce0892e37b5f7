#!/usr/bin/env python3
"""Feed hostile files to every mvsim reading verb; each must exit 2.

Writes a 50,000-deep nested JSON document, one out-of-range integer
file per reader (manifest, metrics report, trace, scenario), a
scenario whose 65536 x 65536 grid has more cells than a CellId can
number and one whose sample_step cuts its 18-day horizon into 2.6e13
curve points, then runs `run`, `validate`, `profile-analyze`, `trace-analyze`,
`report` and `report --ledger` on them. Any other exit code, a signal included,
fails the script.

Usage: python3 tools/hostile_inputs.py path/to/mvsim [work-dir]
"""

import json
import os
import re
import subprocess
import sys
import tempfile


def replace_once(text, pattern, replacement, what):
    out, n = re.subn(pattern, replacement, text, count=1)
    if n != 1:
        sys.exit(f"hostile_inputs: could not plant {what}")
    return out


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    mvsim = os.path.abspath(sys.argv[1])
    work = sys.argv[2] if len(sys.argv) == 3 else tempfile.mkdtemp(prefix="mvsim-hostile-")
    os.makedirs(work, exist_ok=True)

    def path(name):
        return os.path.join(work, name)

    def write(name, text):
        with open(path(name), "w") as f:
            f.write(text)
        return path(name)

    # Well-formed originals to corrupt.
    subprocess.run([mvsim, "run", "virus1-baseline", "--reps", "1", "--quiet",
                    "--manifest", path("manifest.json"), "--profile", path("profile.json"),
                    "--trace", path("trace.jsonl")], check=True)
    scenario = subprocess.run([mvsim, "preset", "virus1-baseline"], check=True,
                              capture_output=True, text=True).stdout
    read = lambda name: open(path(name)).read()

    deep = write("deep.json", "[" * 50000 + "]" * 50000 + "\n")
    manifest = write("manifest-replications.json",
                     replace_once(read("manifest.json"), r'"replications": \d+',
                                  '"replications": 1e308', "replications"))
    record = json.loads(read("manifest.json"))
    record["replications"] = 1e308
    ledger = write("ledger-replications.ndjson", json.dumps(record) + "\n")
    metrics = json.loads(read("profile.json"))
    metrics["counters"]["des.events_executed"] = -5
    metrics = write("metrics-negative-counter.json", json.dumps(metrics))
    trace = write("trace-phone.jsonl",
                  replace_once(read("trace.jsonl"), r'"phone":\d+', '"phone":1e300', "phone"))
    threshold = write("scenario-threshold.json",
                      replace_once(scenario, r'"detectability_threshold": \d+',
                                   '"detectability_threshold": 1e300', "threshold"))
    cutoff = write("scenario-cutoff.json",
                   replace_once(scenario, r'"decision_cutoff": \d+',
                                '"decision_cutoff": 1e300', "cutoff"))
    grid = json.loads(scenario)
    grid["proximity"] = {"grid_width": 65536, "grid_height": 65536}
    grid = write("scenario-grid.json", json.dumps(grid))
    sample_step = write("scenario-sample-step.json",
                        replace_once(scenario, r'"sample_step": "[^"]*"',
                                     '"sample_step": "0.000000001m"', "sample_step"))

    scenarios = (deep, threshold, cutoff, grid, sample_step)
    cases = [["run", f, "--reps", "1", "--quiet"] for f in scenarios]
    cases += [["validate", f] for f in scenarios]
    cases += [["profile-analyze", f] for f in (deep, metrics)]
    cases += [["trace-analyze", f] for f in (deep, trace)]
    cases += [["report", f] for f in (deep, manifest)]
    cases += [["report", "--ledger", f] for f in (deep, ledger)]

    failures = 0
    for args in cases:
        result = subprocess.run([mvsim] + args, capture_output=True, text=True)
        status = "ok" if result.returncode == 2 else "FAIL"
        failures += status == "FAIL"
        message = result.stderr.strip().splitlines()[-1:] or [""]
        print(f"{status} exit {result.returncode}: mvsim {' '.join(args)}  [{message[0]}]")
    if failures:
        sys.exit(f"hostile_inputs: {failures} case(s) did not exit 2")


if __name__ == "__main__":
    main()
