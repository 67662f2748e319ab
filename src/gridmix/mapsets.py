"""Fixed evaluation map sets: random maps and give-way maps.

A map set is a JSON document holding a provenance tag, the generation
parameters, and a list of map records in the grid_world schema. The set is
immutable during a run; its content hash goes into the metrics header.

Give-way maps come from a corridor template family: the whole grid is
blocked except a single width-1 corridor spanning the map and one passing
alcove adjacent to it. Two agents start at opposite corridor ends with
goals at the far sides, so their unique shortest paths traverse the
corridor in opposite directions and one agent must step into the alcove to
let the other pass. Template parameters (corridor position, alcove
position and side, orientation) are swept deterministically from the seed.
Greedy shortest-path play strands both agents on every member of the
family: they meet head-on in the width-1 corridor, where neither greedy
move leads into the alcove. So no emitted map needs a certifying rollout;
greedy_rollout_fails() plays that rollout for any map record.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import numpy as np

from .baselines import GreedyBfsPolicy, play_episode
from .grid_world import (EnvConfig, GenerationFailed, _record, env_from_record,
                         generate_record, map_hash)

MAPSET_VERSION = 1


def _config_header(config: EnvConfig) -> dict:
    return {
        "size": config.size,
        "density": config.density,
        "n_agents": config.n_agents,
        "obs_radius": config.obs_radius,
        "horizon": config.horizon,
        "goal_dist": config.goal_dist,
    }


def mapset_hash(mapset: dict) -> str:
    canon = {
        "kind": mapset["kind"],
        "config": mapset["config"],
        "maps": [map_hash(m) for m in mapset["maps"]],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def save_mapset(mapset: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mapset, fh)


# config header keys that evaluation reads
_CONFIG_KEYS = ("size", "n_agents", "obs_radius", "horizon")


def load_mapset(path: str) -> dict:
    """The map set at ``path``; a missing config key or record key, a map or
    agent that is not a JSON object, or a cell that is not a pair raises
    ValueError naming the map."""
    with open(path) as fh:
        mapset = json.load(fh)
    if not isinstance(mapset, dict):
        raise ValueError(f"map set file {path} must hold a JSON object, "
                         f"not {type(mapset).__name__}")
    if mapset.get("format_version") != MAPSET_VERSION:
        raise ValueError(f"unsupported mapset version {mapset.get('format_version')}")
    config = mapset.get("config")
    missing = [key for key in _CONFIG_KEYS if not isinstance(config, dict) or key not in config]
    if missing:
        raise ValueError(f"map set config has no {', '.join(missing)}")
    if not isinstance(mapset.get("maps"), list):
        raise ValueError("map set has no list of maps")
    for i, record in enumerate(mapset["maps"]):
        if not isinstance(record, dict):
            raise ValueError(f"map {i} is not a JSON object")
        missing = [key for key in ("size", "blocked", "agents") if key not in record]
        if missing:
            raise ValueError(f"map {i} has no {', '.join(missing)}")
        agents = record["agents"]
        if not (isinstance(agents, list) and all(isinstance(a, dict) for a in agents)):
            raise ValueError(f"map {i} agents are not a list of JSON objects")
        missing = [f"agent {j} {key}" for j, agent in enumerate(agents)
                   for key in ("start", "goal") if key not in agent]
        if missing:
            raise ValueError(f"map {i} has no {', '.join(missing)}")
        cells = [agent[key] for agent in agents for key in ("start", "goal")]
        if not isinstance(record["blocked"], list) or not all(
                isinstance(cell, list) and len(cell) == 2 for cell in record["blocked"] + cells):
            raise ValueError(f"map {i} has a cell that is not a [row, col] pair")
    return mapset


def greedy_rollout_fails(record: dict, obs_radius: int, horizon: int) -> bool:
    """True when the simultaneous greedy shortest-path rollout strands an agent."""
    env = env_from_record(record, obs_radius=obs_radius, horizon=horizon)
    return not play_episode(env, GreedyBfsPolicy(), [(0, 0)]).all()


MIN_CORRIDOR_LEN = 4  # BFS distance along the corridor; shorter maps are trivial


def _giveway_record(size: int, row: int, lo: int, hi: int, alcove: int, side: int,
                    orient: int, seed: int) -> dict:
    """Corridor template instance; orient 0 is horizontal, 1 is vertical.

    Only the corridor cells (row, lo..hi) and one alcove next to it are
    free; agents start at opposite corridor ends with swapped goals.
    """
    blocked = np.ones((size, size), dtype=bool)
    if orient == 0:
        blocked[row, lo:hi + 1] = False
        blocked[row + side, alcove] = False
        starts = [(row, lo), (row, hi)]
    else:
        blocked[lo:hi + 1, row] = False
        blocked[alcove, row + side] = False
        starts = [(lo, row), (hi, row)]
    return _record(size, blocked, starts, starts[::-1], seed)


@functools.cache
def _giveway_combos(size: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Template sweep: corridor row, span, alcove position, side, orientation.

    Cached per size: every give-way training reset draws from it.
    """
    combos = []
    for orient in (0, 1):
        for row in range(1, size - 1):
            for lo in range(0, size - MIN_CORRIDOR_LEN):
                for hi in range(lo + MIN_CORRIDOR_LEN, size):
                    for alcove in range(lo + 1, hi):
                        for side in (-1, 1):
                            combos.append((row, lo, hi, alcove, side, orient))
    return tuple(combos)


def _check_giveway_config(config: EnvConfig) -> None:
    if config.n_agents != 2:
        raise GenerationFailed("the give-way template family is defined for 2 agents")
    if config.horizon < config.size + 3:
        raise GenerationFailed(
            f"horizon {config.horizon} leaves no room to yield on size {config.size}")


def sample_giveway_record(config: EnvConfig, rng: np.random.Generator) -> dict:
    """One random map of the give-way template family: a combo draw, then a
    seed draw."""
    _check_giveway_config(config)
    combos = _giveway_combos(config.size)
    combo = combos[int(rng.integers(len(combos)))]
    return _giveway_record(config.size, *combo, seed=int(rng.integers(2**63)))


def gen_mapset(kind: str, count: int, config: EnvConfig, seed: int) -> dict:
    """Build a fixed map set of ``count`` maps.

    kind 'random': independent generate_record() maps under ``config`` with
    per-map seeds drawn from ``seed``. kind 'giveway': the first ``count``
    corridor templates of a permutation drawn from ``seed``, each with a
    seed drawn after it; more than the family holds raises
    GenerationFailed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    maps: list[dict] = []
    if kind == "random":
        for _ in range(count):
            cfg = dataclasses.replace(config, seed=int(rng.integers(2**63)))
            maps.append(generate_record(cfg))
    elif kind == "giveway":
        _check_giveway_config(config)
        combos = _giveway_combos(config.size)
        if count > len(combos):
            raise GenerationFailed(
                f"give-way family for size {config.size} holds only {len(combos)} "
                f"maps, {count} requested")
        for idx in rng.permutation(len(combos))[:count]:
            maps.append(_giveway_record(config.size, *combos[int(idx)],
                                        seed=int(rng.integers(2**63))))
    else:
        raise ValueError(f"unknown mapset kind {kind!r}")
    return {
        "format_version": MAPSET_VERSION,
        "kind": kind,
        "config": _config_header(config),
        "maps": maps,
    }
