"""One benchmark process: prepare a workload's inputs, or run it once.

    python3 perfbench/worker.py prepare --workload NAME --seed N --dir INPUTS
    python3 perfbench/worker.py run --dir INPUTS --out OUT --spawned-at T [--trace]

``prepare`` writes the inputs a user would hand to gridmix (config JSON,
map-set file, checkpoint) and a manifest. ``run`` drives the public API
once on those files, the way a user does, in this fresh process; it times
set-up from ``--spawned-at`` (the parent's CLOCK_MONOTONIC reading taken
just before it started this process) and checks the outputs. It writes
OUT/result.json and, with ``--trace``, OUT/spans.json.

Set-up ends at the first env step of training or the first rollout step of
evaluation. Both are read through the API's own clock injection: train()
takes its first ``time_fn`` reading when it starts and records in the
step-0 metrics row (``wall_s``) the reading taken just before the
collection loop; evaluate() takes its first reading just before its first
rollout. No gridmix function is wrapped unless ``--trace`` is given.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

from gridmix import harness, mapsets, qmix_core
from gridmix.grid_world import EnvConfig
from gridmix.observation import obs_dim

import tracing
import workloads


def prepare(workload: str, seed: int, inputs: str) -> None:
    os.makedirs(inputs, exist_ok=True)
    manifest = {"workload": workload, "kind": workloads.WORKLOADS[workload]}
    if manifest["kind"] == "train":
        fields = dict(workloads.TRAIN_CONFIGS[workload], seed=seed)
        if fields.get("train_map_kind") == "giveway":
            env = harness.RunConfig(**fields).env_config(seed=0)
            maps_path = os.path.join(inputs, "giveway_eval.json")
            mapsets.save_mapset(
                mapsets.gen_mapset("giveway", workloads.GIVEWAY_EVAL_COUNT, env, seed),
                maps_path)
            fields["eval_maps"] = maps_path
        manifest["config"] = os.path.join(inputs, "config.json")
        harness.RunConfig(**fields).to_json(manifest["config"])
    else:
        spec = workloads.EVAL_MAPSET
        mapset = mapsets.gen_mapset("random", workloads.EVAL_MAP_COUNT,
                                    EnvConfig(seed=0, **spec), seed)
        manifest["maps"] = os.path.join(inputs, "maps.json")
        mapsets.save_mapset(mapset, manifest["maps"])
        bundle = qmix_core.MixerBundle(
            n_agents=spec["n_agents"], obs_dim=obs_dim(spec["obs_radius"]),
            state_dim=3 * spec["size"] ** 2, mode="qmix", seed=seed)
        manifest["checkpoint"] = os.path.join(inputs, "checkpoint.json")
        qmix_core.save_bundle(bundle, manifest["checkpoint"])
        manifest["repeats"] = workloads.EVAL_REPEATS
    with open(os.path.join(inputs, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_metrics(path: str) -> tuple[list[str], list[str], list[dict]]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    return comments, list(reader.fieldnames or []), list(reader)


def _deterministic_digest(metrics_path: str, checkpoint_path: str) -> str:
    """Hash of metrics.csv without its wall_s column, plus the checkpoint bytes."""
    comments, columns, rows = _read_metrics(metrics_path)
    keep = [c for c in columns if c != "wall_s"]
    text = "\n".join(comments + [",".join(keep)] +
                     [",".join(row[c] for c in keep) for row in rows])
    with open(checkpoint_path, "rb") as fh:
        ckpt = fh.read()
    return _sha256(text.encode()) + ":" + _sha256(ckpt)


def _check_training(config, result, out: str) -> list[str]:
    problems = []
    comments, columns, rows = _read_metrics(result.metrics_path)
    maps_path = config.eval_maps or os.path.join(out, "eval_maps.json")
    expected_hash = mapsets.mapset_hash(mapsets.load_mapset(maps_path))
    if f"# mapset_sha256={expected_hash}" not in comments:
        problems.append(f"metrics.csv lacks the map-set hash header {expected_hash}")
    missing = set(harness.METRICS_COLUMNS) - set(columns)
    if missing:
        problems.append(f"metrics.csv lacks columns {sorted(missing)}")
        return problems
    steps = [int(r["steps"]) for r in rows]
    if steps != [0, config.total_steps] or result.steps != config.total_steps:
        problems.append(f"metrics rows at steps {steps}, expected [0, {config.total_steps}]")
    for row in rows[1:]:
        for col in ("loss_mean", "q_tot_mean", "grad_norm"):
            if not math.isfinite(float(row[col])):
                problems.append(f"{col}={row[col]} at step {row['steps']}")
    for row in rows:
        if not 0.0 <= float(row["eval_success_mean"]) <= 1.0:
            problems.append(f"eval success {row['eval_success_mean']} outside [0, 1]")
    bundle = qmix_core.load_bundle(result.checkpoint_path)
    want = (config.n_agents, obs_dim(config.obs_radius), 3 * config.size ** 2,
            config.mode, config.embed_dim)
    got = (bundle.n_agents, bundle.obs_dim, bundle.state_dim, bundle.mode,
           bundle.embed_dim)
    if got != want:
        problems.append(f"checkpoint topology {got}, expected {want}")
    # one learner update per joint vector step once the buffer holds min_buffer
    start = -(-config.min_buffer // config.n_envs) * config.n_envs
    updates = (config.total_steps - start) // config.n_envs + 1
    if bundle.train_steps != updates:
        problems.append(f"checkpoint has {bundle.train_steps} updates, expected {updates}")
    return problems


def _check_eval(report, n_maps: int) -> list[str]:
    problems = []
    if len(report.per_map) != n_maps:
        problems.append(f"per_map has {len(report.per_map)} entries for {n_maps} maps")
    if not all(0.0 <= v <= 1.0 for v in report.per_map + [report.mean]):
        problems.append("success outside [0, 1]")
    # the env-step count below assumes every episode ran the full horizon
    if any(v >= 1.0 for v in report.per_map):
        problems.append("a map was solved, so an episode ended before the horizon")
    return problems


def _host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(inputs: str, out: str, spawned_at: float, trace: bool) -> dict:
    with open(os.path.join(inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    os.makedirs(out, exist_ok=True)
    readings: list[float] = []

    def clock() -> float:
        now = time.monotonic()
        if not readings:
            readings.append(now)
        return now

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if manifest["kind"] == "train":
            config = harness.RunConfig.from_json(manifest["config"])
            api_result = harness.train(config, os.path.join(out, "run"), time_fn=clock)
        else:
            api_result = harness.evaluate(manifest["checkpoint"], manifest["maps"],
                                          repeats=manifest["repeats"], time_fn=clock)
        end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {"peak_rss_mb": peak_rss_mb, "host": _host_facts()}
    if manifest["kind"] == "train":
        _, _, rows = _read_metrics(api_result.metrics_path)
        first_step = readings[0] + float(rows[0]["wall_s"])
        env_steps = api_result.steps
        record["problems"] = _check_training(config, api_result, os.path.join(out, "run"))
        record["digest"] = _deterministic_digest(api_result.metrics_path,
                                                 api_result.checkpoint_path)
        rate_name, units = "train_env_steps_per_s", env_steps
    else:
        first_step = readings[0]
        n_maps = len(mapsets.load_mapset(manifest["maps"])["maps"])
        episodes = n_maps * manifest["repeats"]
        env_steps = episodes * workloads.EVAL_MAPSET["horizon"]
        record["problems"] = _check_eval(api_result, n_maps)
        record["digest"] = _sha256(json.dumps([api_result.per_map,
                                               api_result.mean]).encode())
        rate_name, units = "eval_episodes_per_s", episodes
    record["setup_s"] = first_step - spawned_at
    record["work_s"] = end - first_step
    record["env_steps"] = env_steps
    record["env_steps_per_s"] = env_steps / record["work_s"]
    record[rate_name] = units / record["work_s"]

    if tracer is not None:
        still_wrapped = tracer.leftovers()
        if still_wrapped:
            record["problems"].append(f"tracer left wrappers on {still_wrapped}")
        spans = tracer.spans
        layers = tracing.layer_metrics(spans, end - spawned_at)
        if tracer.buffers:
            buf = tracer.buffers[0]
            ring = sum(v.nbytes for v in vars(buf).values() if isinstance(v, np.ndarray))
            layers["replay_buffer.bytes_per_entry"] = ring / buf.capacity
        record["layers"] = layers
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump({"fields": tracing.Span._fields, "spans": spans}, fh)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    r = sub.add_parser("run")
    r.add_argument("--dir", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--spawned-at", type=float, required=True)
    r.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "prepare":
        prepare(args.workload, args.seed, args.dir)
        return 0
    record = run(args.dir, args.out, args.spawned_at, args.trace)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
