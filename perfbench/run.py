"""gridmix benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed makes the inputs (config JSON,
map-set file, checkpoint) in ``.perfbench/``; then fresh worker processes
run the workload on them, one after the other, until S seconds have passed
(at least MIN_PROCESSES). With ``--trace 1`` one more, traced, process
follows. Each process is one attempted operation; it fails when it raises,
times out, or fails an output check, and the runs of one seed must produce
identical outputs. The last stdout line is the result JSON; the line before
it holds host facts and every process's figures. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK = os.path.join(ROOT, ".perfbench")
MIN_PROCESSES = 3
DEADLINE_S = 170.0   # the whole run, traced process included

END_TO_END = {"setup_s": "s", "env_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def host_facts() -> dict:
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GRIDMIX_THREADS": os.environ.get("GRIDMIX_THREADS"),
        "loadavg_at_start": os.getloadavg(),
        "src_lines": lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args: list[str], log_path: str, timeout: float, stamp: bool = False) -> int | None:
    """Run the worker with ``args``; returns its exit code, or None on timeout.

    With ``stamp``, the worker also gets ``--spawned-at``: this process's
    CLOCK_MONOTONIC reading just before the worker starts.
    """
    with open(log_path, "w") as log:
        if stamp:
            args = args + ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def run_process(inputs: str, out: str, trace: bool, timeout: float) -> dict:
    """One fresh worker process; returns its record with a ``problems`` list."""
    os.makedirs(out)
    code = spawn(["run", "--dir", inputs, "--out", out] + (["--trace"] if trace else []),
                 os.path.join(out, "log.txt"), timeout, stamp=True)
    result_path = os.path.join(out, "result.json")
    if code != 0 or not os.path.exists(result_path):
        with open(os.path.join(out, "log.txt")) as fh:
            tail = fh.read()[-2000:]
        print(f"worker failed (exit {code}):\n{tail}", file=sys.stderr)
        return {"problems": [f"worker exit code {code}"], "traced": trace}
    with open(result_path) as fh:
        record = json.load(fh)
    record["traced"] = trace
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridmix fresh-process benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gridmix", "__init__.py")):
        print(f"no gridmix sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    host = host_facts()
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(run_dir)
    try:
        code = spawn(["prepare", "--workload", args.workload, "--seed", str(args.seed),
                      "--dir", inputs], os.path.join(run_dir, "prepare.log"), DEADLINE_S)
        if code != 0:
            with open(os.path.join(run_dir, "prepare.log")) as fh:
                print(fh.read()[-2000:], file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 0

        # Untraced processes fill --seconds: another one starts only if a
        # typical process still fits, so a run's length barely depends on
        # how fast the program is.
        records = []
        durations = []
        measure_start = time.monotonic()
        while True:
            typical = statistics.median(durations) if durations else 0.0
            elapsed = time.monotonic() - measure_start
            if len(records) >= MIN_PROCESSES and elapsed + typical > args.seconds:
                break
            remaining = DEADLINE_S - (time.monotonic() - started)
            reserve = 3 * typical if args.trace else 0.0
            if records and max(durations) + reserve > remaining:
                break
            t0 = time.monotonic()
            records.append(run_process(inputs, os.path.join(run_dir, f"p{len(records)}"),
                                       False, remaining))
            durations.append(time.monotonic() - t0)
        if args.trace:
            remaining = DEADLINE_S - (time.monotonic() - started)
            records.append(run_process(inputs, os.path.join(run_dir, "traced"),
                                       True, remaining))

        digests = {r["digest"] for r in records if "digest" in r}
        if len(digests) > 1:
            for r in records:
                r["problems"].append("outputs differ between processes of one seed")
        failed = sum(1 for r in records if r["problems"])
        ok = [r for r in records if not r["problems"] and not r["traced"]]

        metrics = {}
        if ok and not args.trace:
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": statistics.median(r[name] for r in ok),
                                 "unit": unit}
        traced = records[-1] if args.trace else None
        if traced is not None and not traced["problems"] and ok:
            layers = traced["layers"]
            layers["trace.overhead_ratio"] = traced["env_steps_per_s"] / statistics.median(
                r["env_steps_per_s"] for r in ok)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER.items()}
            shutil.copy(os.path.join(run_dir, "traced", "spans.json"),
                        os.path.join(WORK, f"spans-{args.workload}.json"))

        for r in records:
            host.update(r.pop("host", {}))
        detail = {"workload": args.workload, "seed": args.seed, "host": host,
                  "processes": [{k: v for k, v in r.items() if k != "layers"}
                                for r in records]}
        print(json.dumps(detail))
        print(json.dumps({"correct": failed == 0, "attempted": len(records),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
