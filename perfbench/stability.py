"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range over median), as used to set and
check the bounds in BENCHMARK.json.

    python3 perfbench/stability.py --workloads naturality cli-session --seeds 1-10

Run from the root of a checkout.  Each run's result object is appended,
one per line, to ``perfbench/results/<label>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--label", default="stability")
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log = os.path.join(HERE, "results", f"{args.label}.jsonl")
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            argv = [*config["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(workload, seed, {k: round(v["value"], 3) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        print(f"\n{workload}: correct {all(r['correct'] for r in runs)}, failed/attempted {sorted(shares)}")
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:12s} median {med:10.4f} {metric['unit']:4s} "
                  f"spread {(q3 - q1) / med:6.1%}  bound {metric['bound']:.0%}")


if __name__ == "__main__":
    main()
