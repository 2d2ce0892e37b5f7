#!/usr/bin/env python3
"""Check EXPERIMENTS.md against the anchors and run its figure commands.

Every `##` section of EXPERIMENTS.md after the intro names the anchor
tests (`Fixture.Test`, from tests/anchor_test.cpp) that assert its
claims. Each FIG-1 ... FIG-7 section also lists the `mvsim run` /
`mvsim sweep` commands that reproduce its figure in ```sh blocks. This
script runs each of them with `--reps 2` instead of the listed
`--reps 10`, so a renamed preset, parameter or flag fails here rather
than in a reader's terminal. It fails when:

- a section names no anchor test, or names one that does not exist;
- a FIG section is missing or lists no command;
- a command does not use the anchors' `--reps 10 --seed 3584499719`;
- a command exits non-zero or leaves its --curve-csv file empty;
- a sweep's knee table reads "worth it" on a step that avoids no
  infection.

Usage: python3 tools/check_figure_commands.py MVSIM REPO_ROOT WORK_DIR
Outputs (the curve CSVs) land in WORK_DIR. Exit status 0 or 1.
"""

import os
import re
import shlex
import subprocess
import sys

FIGURES = [f"FIG-{n}" for n in range(1, 8)]
SECTION_RE = re.compile(r"^## (FIG-\d+)\b")
REPS = "10"
SEED = "3584499719"
# A knee-table row: "from -> to final final' avoided avoided/unit verdict".
ROW_RE = re.compile(r"^\s*\S+ -> \S+\s+\S+\s+\S+\s+(\S+)\s")
# An anchor test in tests/anchor_test.cpp, and one named in EXPERIMENTS.md.
TEST_RE = re.compile(r"^TEST(?:_F)?\((\w+), (\w+)\)", re.MULTILINE)
NAMED_RE = re.compile(r"`([A-Z]\w*)\.([A-Z]\w*)`")


def section_anchor_problems(text, tests):
    """Checks that every `##` section names an existing anchor test.

    A backticked `Fixture.Test` whose fixture is in the anchor file must
    be a test there; at least one per section is required."""
    fixtures = {fixture for fixture, _ in tests}
    problems = []
    sections = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
    for section in sections:
        title = section.splitlines()[0].strip()
        named = {match for match in NAMED_RE.findall(section) if match[0] in fixtures}
        for fixture, test in sorted(named - tests):
            problems.append(f"{title}: names {fixture}.{test}, which is not an anchor test")
        if not named & tests:
            problems.append(f"{title}: names no anchor test")
    return problems


def figure_commands(text):
    """Maps each FIG section to the mvsim commands in its ```sh blocks
    (backslash continuations joined)."""
    commands = {}
    section = None
    in_block = False
    pending = ""
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = line.strip() == "```sh" and not in_block
            continue
        if not in_block:
            match = SECTION_RE.match(line)
            if match:
                section = match.group(1)
                commands.setdefault(section, [])
            elif line.startswith("## "):
                section = None
            continue
        if section is None:
            continue
        pending += line.rstrip("\\").strip() + " "
        if line.endswith("\\"):
            continue
        argv = shlex.split(pending)
        pending = ""
        if argv and os.path.basename(argv[0]) == "mvsim":
            commands[section].append(argv)
    return commands


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def run_command(argv, mvsim, root, work_dir):
    """Runs one listed command at 2 replications; returns a list of
    problems (empty when it passed)."""
    shown = " ".join(argv)
    if option(argv, "--reps") != REPS or option(argv, "--seed") != SEED:
        return [f"{shown}: must use --reps {REPS} --seed {SEED}"]
    args = [mvsim]
    for i, arg in enumerate(argv[1:], start=1):
        if argv[i - 1] == "--reps":
            arg = "2"
        elif os.path.exists(os.path.join(root, arg)) and not arg.startswith("-"):
            arg = os.path.join(root, arg)  # scenario files are repo-relative
        args.append(arg)
    done = subprocess.run(args, cwd=work_dir, capture_output=True, text=True)
    if done.returncode != 0:
        return [f"{shown}: exit {done.returncode}: {done.stderr.strip()}"]
    problems = []
    curve = option(argv, "--curve-csv")
    if curve is not None:
        path = os.path.join(work_dir, curve)
        with open(path, encoding="utf-8") as handle:
            if len(handle.readlines()) < 2:
                problems.append(f"{shown}: {curve} holds no curve")
    for line in done.stdout.splitlines():
        match = ROW_RE.match(line)
        if match and line.endswith("worth it") and float(match.group(1)) <= 0.0:
            problems.append(f"{shown}: 'worth it' on a step avoiding nothing: {line}")
    return problems


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[-2], file=sys.stderr)
        return 1
    mvsim, root, work_dir = (os.path.abspath(arg) for arg in argv[1:])
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8") as handle:
        text = handle.read()
    with open(os.path.join(root, "tests", "anchor_test.cpp"), encoding="utf-8") as handle:
        tests = set(TEST_RE.findall(handle.read()))
    commands = figure_commands(text)
    problems = section_anchor_problems(text, tests)
    for figure in FIGURES:
        listed = commands.get(figure, [])
        if not listed:
            problems.append(f"{figure}: no command listed")
        for command in listed:
            problems += run_command(command, mvsim, root, work_dir)
    count = sum(len(commands.get(figure, [])) for figure in FIGURES)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{count} figure command(s) run, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
