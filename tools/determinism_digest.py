"""Digests of fixed runs, to show that a change keeps outputs byte-identical.

Each training run below trains with a counter clock and prints one line:
the run's name, the sha256 of ``metrics.csv`` without its ``wall_s``
column, and the sha256 of the checkpoint's content: what ``load_bundle``
returns, as its header fields in canonical JSON followed by the bytes of
``theta``. That digest does not depend on how the file encodes them, so
it also holds across a change of checkpoint format. Each evaluation run prints
the sha256 of ``json.dumps([per_map, mean])`` of one evaluate() call. The
last line runs ``gridmix eval --baseline random --save-logs DIR`` on a
seeded 8x8 set and prints the sha256 of every file it writes there, names
and bytes in name order, so it checks the episode logs as well. Run it
against two source trees and compare:

    PYTHONPATH=src python3 tools/determinism_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 tools/determinism_digest.py > before.txt
    diff before.txt after.txt

Use the same BLAS thread setting for both trees. ``--only NAME``
(repeatable) limits the runs; the four trainings take a few minutes in all
on one core, the evaluations a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile

from gridmix import (EnvConfig, GreedyBfsPolicy, MixerBundle, RandomPolicy, RunConfig,
                     evaluate, gen_mapset, load_bundle, load_mapset, obs_dim, save_mapset,
                     train)
from gridmix.cli import main as cli_main

GIVEWAY_EVAL = "giveway70.json"
LOGS_RUN = "eval-logs-random8"


def _giveway(mode: str, maps_path: str) -> RunConfig:
    # the criteria 10/11 give-way config, first seed, at 20k steps
    return RunConfig(size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16,
                     goal_dist=None, seed=31, mode=mode, total_steps=20_000,
                     eval_interval=20_000, eval_maps=maps_path,
                     train_map_kind="giveway", buffer_capacity=50_000)


def configs(workdir: str) -> dict[str, RunConfig]:
    maps_path = os.path.join(workdir, GIVEWAY_EVAL)
    return {
        # criterion 7
        "qmix-criterion7": RunConfig(
            size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16, goal_dist=5,
            seed=17, mode="qmix", total_steps=20_000, eval_interval=5_000,
            eval_map_count=12, buffer_capacity=30_000),
        "vdn-giveway": _giveway("vdn", maps_path),
        "iql-giveway": _giveway("iql", maps_path),
        # criterion 9, first seed, without stop_at_success
        "iql-single-agent": RunConfig(
            size=8, density=0.3, n_agents=1, obs_radius=5, horizon=16, goal_dist=5,
            seed=101, mode="iql", total_steps=20_000, eval_interval=15_000,
            eval_map_count=50, buffer_capacity=50_000),
    }


def evaluations(workdir: str) -> dict:
    """Name -> (policy or bundle, map set, repeats) of each evaluate() run."""
    random16 = gen_mapset("random", 60, EnvConfig(
        size=16, density=0.3, n_agents=6, obs_radius=5, horizon=40, seed=0), seed=4242)
    bundle = MixerBundle(n_agents=6, obs_dim=obs_dim(5), state_dim=3 * 16 * 16,
                         mode="qmix", seed=4242)
    return {
        "eval-qmix-random16": (bundle, random16, 2),
        "eval-random-random16": (RandomPolicy(seed=9), random16, 3),
        "eval-greedy-giveway70": (GreedyBfsPolicy(),
                                  load_mapset(os.path.join(workdir, GIVEWAY_EVAL)), 1),
    }


def logs_digest(workdir: str) -> str:
    """sha256 of the files that ``gridmix eval --save-logs`` writes."""
    maps_path = os.path.join(workdir, "random8.json")
    save_mapset(gen_mapset("random", 30, EnvConfig(
        size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16, seed=0), seed=77),
        maps_path)
    logs = os.path.join(workdir, "logs")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["eval", "--baseline", "random", "--seed", "9", "--repeats", "2",
                         "--maps", maps_path, "--save-logs", logs])
    if code != 0:
        raise SystemExit(f"{LOGS_RUN}: gridmix eval exited {code}")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(logs)):
        with open(os.path.join(logs, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def metrics_digest(path: str) -> str:
    """sha256 of the metrics file with the wall_s column dropped."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    drop = rows[0].index("wall_s")
    out = io.StringIO()
    out.writelines(comments)
    csv.writer(out).writerows([c for i, c in enumerate(row) if i != drop] for row in rows)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def checkpoint_digest(path: str) -> str:
    """sha256 of the loaded bundle's header fields and theta, not of the file."""
    bundle = load_bundle(path)
    header = {"mode": bundle.mode, "gamma": bundle.gamma, "lr": bundle.adam.lr,
              "grad_clip": bundle.grad_clip, "embed_dim": bundle.embed_dim,
              "n_agents": bundle.n_agents, "obs_dim": bundle.obs_dim,
              "state_dim": bundle.state_dim, "train_steps": bundle.train_steps}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    digest.update(bundle.theta.tobytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run only this config (repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        base = EnvConfig(size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16,
                         goal_dist=None, seed=0)
        save_mapset(gen_mapset("giveway", 70, base, seed=12345),
                    os.path.join(workdir, GIVEWAY_EVAL))
        runs = configs(workdir)
        evals = evaluations(workdir)
        unknown = set(args.only) - set(runs) - set(evals) - {LOGS_RUN}
        if unknown:
            parser.error(f"unknown run {sorted(unknown)}; "
                         f"choose from {sorted(runs) + sorted(evals) + [LOGS_RUN]}")
        for name, config in runs.items():
            if args.only and name not in args.only:
                continue
            ticks = iter(range(1, 1 << 62))
            result = train(config, os.path.join(workdir, name),
                           time_fn=lambda: float(next(ticks)))
            print(f"{name}  metrics {metrics_digest(result.metrics_path)}  "
                  f"checkpoint {checkpoint_digest(result.checkpoint_path)}", flush=True)
        for name, (policy, mapset, repeats) in evals.items():
            if args.only and name not in args.only:
                continue
            report = evaluate(policy, mapset, repeats=repeats)
            digest = hashlib.sha256(json.dumps([report.per_map, report.mean]).encode())
            print(f"{name}  report {digest.hexdigest()}", flush=True)
        if not args.only or LOGS_RUN in args.only:
            print(f"{LOGS_RUN}  logs {logs_digest(workdir)}", flush=True)


if __name__ == "__main__":
    main()
