"""Benchmark runner for hilblat.

    python3 perfbench/run.py --workload naturality --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It imports hilblat from ``src/``, builds
the workload's round of tasks from the seed (set-up), then runs whole
rounds, one task at a time, until ``--seconds`` have passed.  Every task
checks its outputs against the benchmark's own oracles.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, SRC)

from hostspeed import HostSpeed  # noqa: E402
from layers import Tracer, metric_names  # noqa: E402


WORKLOADS = ("naturality", "fixed-lattice", "cli-session")
DEADLINE_S = 6.0  # per task, wall time; the slowest task that finishes takes about 2 s
SETUP_REPEATS = 7  # set-ups per run: this process and six children
MIN_TASKS = 110  # so that at least ten timed tasks lie beyond the 90th percentile
STARTUP_SAMPLES = 5
SETUP_SAMPLES = 100  # reference-loop samples that correct one set-up time
SAMPLE_EVERY_S = 0.05  # one reference-loop sample per this much task time, at least one per task


class Overrun(BaseException):
    """A task ran past DEADLINE_S.  Not an Exception, so no handler in the
    program or in a task can swallow it."""


def _on_alarm(signum, frame):
    raise Overrun


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup(workload, seed, trace, workdir):
    """Import hilblat and build the round of tasks."""
    import hilblat as hl

    if workload == "naturality":
        import naturality

        return hl, naturality.build(seed, hl), None
    if workload == "fixed-lattice":
        import fixed_lattice

        return hl, fixed_lattice.build(seed, hl), None
    import cli_session
    import hilblat.cli  # noqa: F401

    runner = cli_session.in_process(hl) if trace else cli_session.ChildRunner(workdir, child_env())
    return hl, cli_session.build(seed, workdir, runner), runner


def run_rounds(tasks, seconds, min_tasks, speed):
    """Whole rounds until ``seconds`` have passed and at least ``min_tasks``
    were timed.  Only the program calls are timed, not the checks; the
    reference loop is sampled after each task.  Returns the raw task
    latencies, the failures, their summed latency, the wrong outputs and
    the rounds."""
    latencies, wrong = [], []
    failed = rounds = 0
    failed_s = 0.0
    gc.collect()
    gc.freeze()  # the inputs stay out of the collector's scans while timing
    clock = time.perf_counter
    start = clock()
    while True:
        for task in tasks:
            status = None
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            t = clock()
            try:
                out = task.run()
            except Overrun:
                status = "overrun"
            except Exception as exc:  # the program failed where it should not
                status = f"{type(exc).__name__}: {exc}"
            finally:
                latencies.append(clock() - t)
                signal.setitimer(signal.ITIMER_REAL, 0)
            if status is None:
                try:
                    task.check(out)
                except Exception as exc:  # WrongOutput, or an output of the wrong shape
                    status = f"wrong output: {type(exc).__name__}: {exc}"
            if status is not None:
                failed += 1
                failed_s += latencies[-1]
                if status != "overrun":
                    wrong.append(f"{task.name}: {status}")
            for _ in range(1 + int(latencies[-1] / SAMPLE_EVERY_S)):  # samples spread over time
                speed.sample()
        rounds += 1
        if clock() - start >= seconds and len(latencies) >= min_tasks:
            return latencies, failed, failed_s, wrong, rounds


def spawn_seconds(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def startup_metrics():
    env = child_env()
    start = [spawn_seconds([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_SAMPLES)]
    imp = [spawn_seconds([sys.executable, "-c", "import hilblat.cli"], env) for _ in range(STARTUP_SAMPLES)]
    start_s = statistics.median(start)
    return {"cli.interpreter_start_s": start_s, "cli.import_s": statistics.median(imp) - start_s}


def repeat_setup(workload, seed, count):
    """Set-up seconds of fresh runner processes that stop after set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
        out.append(float(proc.stdout.split()[-1]))
    return out


def measure(workload, seed, seconds, trace, min_tasks=MIN_TASKS, setup_repeats=SETUP_REPEATS):
    """Set up, run and return the result object (see the module docstring)."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        hl, tasks, runner = setup(workload, seed, trace, workdir)
        setup_s = time.perf_counter() - T0
        setup_s *= HostSpeed(SETUP_SAMPLES).factor()
        speed = HostSpeed()
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer = Tracer(hl) if trace else None
        try:
            latencies, failed, failed_s, wrong, rounds = run_rounds(tasks, seconds, min_tasks, speed)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(latencies)
    factor = speed.factor()
    raw_wall = sum(latencies)  # timed wall time: the program calls only
    latencies = [t * factor for t in latencies]
    # Throughput counts the time of completed tasks only: a task stopped at
    # the deadline shows in `failed` and in the tail, not as 6 s of waiting.
    completed_s = raw_wall - failed_s
    measured_rate = (attempted - failed) / completed_s if completed_s else 0.0
    tasks_per_s = measured_rate / factor
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{workload}: {rounds} rounds of {len(tasks)} tasks, {raw_wall:.2f} s timed, "
          f"{measured_rate:.3f} tasks/s as measured, {tasks_per_s:.3f} "
          f"at the reference speed (time factor {factor:.3f})", file=sys.stderr)
    if trace:
        values = tracer.metrics(rounds, factor)
        values.update({k: v * factor for k, v in startup_metrics().items()})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
        for name, stat in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time):
            print(f"{name:34s} self {stat.self_time / raw_wall:6.1%} of timed wall time", file=sys.stderr)
    else:
        setups = [setup_s] + repeat_setup(workload, seed, setup_repeats - 1)
        if runner is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:  # cli-session: the largest child
            rss_kb = runner.peak_rss_kb
        metrics = {
            "tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "task_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8] * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            setup(args.workload, args.seed, 0, workdir)
            setup_s = time.perf_counter() - T0
            print(setup_s * HostSpeed(SETUP_SAMPLES).factor())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
