"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload eval-random-16x16-6a --pairs 10 --first-seed 101 --out BENCH_<n>.json

DIR is a checkout holding ``perfbench/run.py`` and ``src/``. Pair k runs
``perfbench/run.py --workload W --seed S_k --seconds T`` once in each
checkout, one run after the other, parent first in even pairs and the
change first in odd ones; S_k is ``--first-seed + k``, so both sides of a
pair see the same inputs, and T is the change's BENCHMARK.json
``run_seconds``, so every pair runs for the benchmark's own length.
``--workload`` may be repeated; the pairs of one workload finish before
the next workload starts.

For every workload and end-to-end metric of the change's BENCHMARK.json
the file records each run's value, the median and quartiles of each side,
the change's win count over the pairs (ties count for neither side), and
the median of the per-pair change/parent ratios, and a verdict:

    gain        the change wins at least 9 of every 10 pairs and its median
                is better than the parent's by more than the parent's
                interquartile range
    worse       the change's median is worse than the parent's by more than
                the metric's BENCHMARK.json bound (a fraction of the
                parent's median)
    unresolved  neither

Each run also records its seed, order, the 1-minute load average just
before it started, its failed and attempted operation counts, and its
checkout's ``src/`` line count.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def src_lines(checkout: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    load = os.getloadavg()[0]
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"seed": seed, "loadavg_1min_before": load, "started_unix": started,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def wins(parent: list[float], change: list[float], higher: bool) -> int:
    """Pairs (``parent[k]``, ``change[k]``) in which the change is strictly better."""
    return sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))


def verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> str:
    """'gain', 'worse' or 'unresolved' for one metric over paired runs; see
    the module docstring."""
    q1, _, q3 = quartiles(parent)
    base = statistics.median(parent)
    better_by = statistics.median(change) - base
    if not higher:
        better_by = -better_by
    if 10 * wins(parent, change, higher) >= 9 * len(parent) and better_by > q3 - q1:
        return "gain"
    if -better_by > bound * abs(base):
        return "worse"
    return "unresolved"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    summary = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
            "change_wins": wins(parent, change, higher),
            "change_losses": wins(change, parent, higher), "pairs": len(pairs),
            "median_pair_ratio": statistics.median(b / a for a, b in zip(parent, change)),
            "verdict": verdict(parent, change, higher, spec["bound"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {
        "command": " ".join([os.path.basename(sys.argv[0])] + sys.argv[1:]),
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "seconds": seconds,
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed, seconds)
                run.update(pair=k, side=side, first=position == 0)
                runs.append(run)
                print(f"{workload} pair {k} {side}: "
                      f"{json.dumps(run['metrics'])} failed {run['failed']}", flush=True)
        summary = summarize(runs, bench["end_to_end"])
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, m in summary.items():
            print(f"{workload} {name}: {m['verdict']} (parent {m['parent_median']:.6g} "
                  f"[{m['parent_quartiles'][0]:.6g}, {m['parent_quartiles'][2]:.6g}], "
                  f"change {m['change_median']:.6g}, {m['change_wins']}/{m['pairs']} wins)",
                  flush=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
