"""Quick self-test of the benchmark, kept out of the test suite's timing.

    python3 perfbench/selftest.py

Runs one round of every workload, untraced and traced, and fails unless
every check passes, the only failed task is the known hanging one, and
the metrics are exactly those BENCHMARK.json names.  Then checks that the
runner exits with an error, printing no result, in a copy that holds only
BENCHMARK.json and the benchmark's files.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import run

KNOWN_FAILURES = {"fixed-lattice": 1}  # the hanging generic marking, one per round


def main():
    config = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
    problems = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, config["end_to_end"]), (1, config["per_layer"])):
            result = run.measure(workload, 0, 0, trace, min_tasks=0, setup_repeats=1)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: a check failed")
            if result["failed"] > KNOWN_FAILURES.get(workload, 0):
                problems.append(f"{where}: {result['failed']} tasks failed")
            if units != {m["name"]: m["unit"] for m in declared}:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            print(f"{where}: {result['attempted']} tasks, {result['failed']} failed", flush=True)

    bare = os.path.join(run.WORK, "bare-copy")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    argv = [*config["command"], "--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the runner did not fail without the program")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest passed" if not problems else "selftest failed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
