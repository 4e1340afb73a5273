"""Paired end-to-end benchmark runs of two checkouts, in the layout of the
BENCH_*.json files:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_n.json
        [--claim WORKLOAD:METRIC] [--description TEXT]

PARENT and CHANGE are the roots of two checkouts.  For each workload that
the change's BENCHMARK.json declares and each seed 21-30, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each checkout, with N the file's ``run_seconds``, the parent
first on odd seeds and the change first on even seeds, with
PYTHONDONTWRITEBYTECODE=1.  For every end-to-end
metric it writes both sides' runs, medians and quartiles, the spread of
each side, the number of pairs the change won, and a verdict (see
``verdict``).  With ``--claim`` it also checks the claimed metric as a
gain: better in at least nine of ten pairs, and better in the median by
more than the parent's interquartile range.  Progress goes to stderr.
Uses the standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SEEDS = range(21, 31)
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {} --trace 0"
QUARTILES = (
    "statistics.quantiles(n=4, method='inclusive') over the ten runs of one side; "
    "spread_over_median is (max - min) / median; verdict is 'better in every run' where "
    "every change run reads better than every parent run, else 'unresolved' where either "
    "side's spread_over_median exceeds the bound, else 'worse by more than the bound' where "
    "the change's median is worse than the parent's by more than the bound, else 'within bound'"
)
# the suffix of a claim_check key, by metric unit
UNIT_KEYS = {"ms": "ms", "1/s": "per_s", "s": "s", "MB": "mb"}


def summary(runs: list[float]) -> dict:
    """Median, quartiles, interquartile range and (max - min) / median."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread_over_median": (max(runs) - min(runs)) / median}


def is_better(a: float, b: float, better: str) -> bool:
    """Whether the reading ``a`` is better than ``b``."""
    return a > b if better == "higher" else a < b


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """'better in every run' where every change run reads better than every
    parent run; else 'unresolved' where either side's runs spread, as
    (max - min) / median, by more than ``bound``; else 'worse by more than
    the bound' where the change's median is worse than the parent's by more
    than ``bound`` of the parent's; else 'within bound'."""
    if all(is_better(c, p, better) for c in change for p in parent):
        return "better in every run"
    if max(summary(parent)["spread_over_median"], summary(change)["spread_over_median"]) > bound:
        return "unresolved"
    p, c = statistics.median(parent), statistics.median(change)
    worse_by = (c - p if better == "lower" else p - c) / p
    return "worse by more than the bound" if worse_by > bound else "within bound"


def metric_record(parent: list[float], change: list[float], unit: str, better: str,
                  bound: float) -> dict:
    won = sum(is_better(c, p, better) for p, c in zip(parent, change))
    return {
        "unit": unit, "better": better, "bound": bound,
        "parent": summary(parent), "change": summary(change),
        "change_over_parent": statistics.median(change) / statistics.median(parent),
        "change_better_in_pairs": f"{won}/{len(parent)}",
        "verdict": verdict(parent, change, better, bound),
        "runs": {"parent": parent, "change": change},
    }


def claim_check(record: dict) -> dict:
    """The gain test of a claimed metric: at least nine of ten pairs won,
    and a median gain larger than the parent's interquartile range."""
    key = UNIT_KEYS.get(record["unit"], "value")
    p, c = record["parent"]["median"], record["change"]["median"]
    gain = c - p if record["better"] == "higher" else p - c
    won = int(record["change_better_in_pairs"].split("/")[0])
    return {
        "pairs_won": record["change_better_in_pairs"],
        f"median_gain_{key}": gain,
        f"parent_iqr_{key}": record["parent"]["iqr"],
        "gain_exceeds_parent_iqr": gain > record["parent"]["iqr"],
        "claim_holds": won >= 9 and gain > record["parent"]["iqr"],
    }


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit(root: str) -> str:
    """The checkout's short commit id, marked -dirty when it has changes;
    the directory's name outside git."""
    proc = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or os.path.basename(os.path.abspath(root))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC claimed as a gain")
    parser.add_argument("--description", default="")
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    claimed = None
    if args.claim:  # checked before the runs, which take half an hour
        w, _, m = args.claim.partition(":")
        if w not in [e["name"] for e in bench["workloads"]] or m not in [
                e["name"] for e in bench["end_to_end"]]:
            parser.error(f"--claim {args.claim}: no such workload and end-to-end metric")
        claimed = {"workload": w, "metric": m}
    roots = {"parent": args.parent, "change": args.change}
    workloads = {}
    for workload in (entry["name"] for entry in bench["workloads"]):
        results = {"parent": [], "change": []}
        for seed in SEEDS:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                out = run_once(roots[side], workload, seed, bench["run_seconds"])
                results[side].append(out)
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({k: v["value"] for k, v in out["metrics"].items()}),
                      file=sys.stderr)
        workloads[workload] = {
            "seeds": list(SEEDS),
            "failed": {side: sum(r["failed"] for r in results[side]) for side in roots},
            "attempted": {side: sum(r["attempted"] for r in results[side]) for side in roots},
            "correct": all(r["correct"] for side in roots for r in results[side]),
            "metrics": {
                m["name"]: metric_record(
                    *([r["metrics"][m["name"]]["value"] for r in results[side]] for side in roots),
                    m["unit"], m["better"], m["bound"])
                for m in bench["end_to_end"]
            },
        }
    record = {
        "description": f"Paired end-to-end medians and quartiles, parent commit "
                       f"{commit(args.parent)} against change {commit(args.change)}. "
                       + args.description,
        "command": COMMAND.format(bench["run_seconds"]),
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}, "
                "PYTHONDONTWRITEBYTECODE=1",
        "pairs": f"seeds {SEEDS[0]}-{SEEDS[-1]}, one parent run and one change run per seed "
                 "and workload; the parent ran first on odd seeds and the change first on "
                 "even seeds",
        "quartiles": QUARTILES,
        "claimed": claimed,
        "workloads": workloads,
    }
    if claimed:
        metrics = workloads[claimed["workload"]]["metrics"]
        record["claim_check"] = claim_check(metrics[claimed["metric"]])
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
