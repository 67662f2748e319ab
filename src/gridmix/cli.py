"""Command-line interface.

Subcommands: train, eval, gen-maps, render, bench. Config files are JSON
mirroring RunConfig field names; map files use the grid_world map schema.
Any ValueError or OSError (such as a missing or malformed input file) ends
a subcommand with one ``<command>: <message>`` line on stderr, exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .baselines import baseline_policy
from .harness import RunConfig, bench_env_stepping, bench_train_loop, evaluate, train
from .mapsets import gen_mapset, load_mapset, save_mapset
from .observation import obs_dim
from .qmix_core import load_bundle
from .render import EpisodeLogs, render_episode, render_map
from .replay_buffer import Buffer


def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    result = train(config, args.out)
    print(f"trained {result.steps} env steps")
    print(f"final eval success: {result.final_eval.mean:.3f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    if args.baseline:
        policy = baseline_policy(args.baseline, seed=args.seed)
    else:
        policy = load_bundle(args.ckpt)
    recorder = EpisodeLogs() if args.save_logs else None
    report = evaluate(policy, load_mapset(args.maps), repeats=args.repeats,
                      on_step=recorder)
    print(f"maps: {len(report.per_map)}  repeats: {args.repeats}")
    print(f"mean success: {report.mean:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"mean": report.mean, "per_map": report.per_map,
                       "repeats": args.repeats}, fh)
        print(f"report: {args.out}")
    if recorder is not None:
        os.makedirs(args.save_logs, exist_ok=True)
        for i, log in recorder.items():
            with open(os.path.join(args.save_logs, f"episode_{i:04d}.json"), "w") as fh:
                json.dump(log, fh)
        print(f"episode logs: {args.save_logs}")
    return 0


def _cmd_gen_maps(args) -> int:
    config = RunConfig.from_json(args.config).env_config()
    mapset = gen_mapset(args.kind, args.count, config, args.seed)
    save_mapset(mapset, args.out)
    print(f"wrote {len(mapset['maps'])} {args.kind} maps to {args.out}")
    return 0


def _cmd_render(args) -> int:
    with open(args.log) as fh:
        data = json.load(fh)
    if "frames" in data:
        for k, frame in enumerate(render_episode(data, viewer=args.viewer)):
            print(f"t={k}")
            print(frame)
            print()
    elif "maps" in data:
        for k, record in enumerate(data["maps"]):
            print(f"map {k}")
            print(render_map(record))
            print()
    else:
        print(render_map(data))
    return 0


def _cmd_bench(args) -> int:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    stepping = bench_env_stepping(config, n_steps=args.env_steps)
    stepping_obs = bench_env_stepping(config, n_steps=args.env_steps,
                                      include_observations=True)
    loop = bench_train_loop(config, total_steps=args.loop_steps)
    # the replay ring this config allocates, per entry
    ring = Buffer(config.buffer_capacity, config.n_agents, obs_dim(config.obs_radius),
                  3 * config.size * config.size)
    results = {
        "env_agent_steps_per_s": stepping["agent_steps_per_s"],
        "env_agent_steps_with_obs_per_s": stepping_obs["agent_steps_per_s"],
        "train_env_steps_per_s": loop["env_steps_per_s"],
        "replay_bytes_per_entry": ring.nbytes / ring.capacity,
    }
    for key, value in results.items():
        print(f"{key}: {value:,.0f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"recorded: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmix")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a learner from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or baseline on a map set")
    p.add_argument("--ckpt")
    p.add_argument("--maps", required=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--baseline", choices=("random", "greedy_bfs"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--save-logs")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gen-maps", help="generate a fixed map set")
    p.add_argument("--kind", choices=("random", "giveway"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_maps)

    p = sub.add_parser("render", help="print ASCII frames of a map or episode log")
    p.add_argument("--log", required=True)
    p.add_argument("--viewer", type=int)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("bench", help="measure stepping and train-loop throughput "
                                     "and the replay ring's bytes per entry")
    p.add_argument("--config")
    p.add_argument("--env-steps", type=int, default=30_000)
    p.add_argument("--loop-steps", type=int, default=8_000)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "eval" and not args.baseline and not args.ckpt:
        print("eval requires --ckpt or --baseline", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
