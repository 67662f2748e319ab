"""Non-learned reference policies and the rollout loop every evaluation uses.

A policy exposes ``actions(envs, keys) -> (E, n_agents) int array``: one
action row per env of the list, where ``keys[e]`` is env e's
``(map_index, repeat)``. Inactive agents get Stay. A policy that keeps
per-episode state starts it when it sees an env at ``t == 0``, so one
policy object can play any number of episodes, in any grouping, with the
same result. The evaluator drives a baseline or a trained bundle through
this interface, and play_episode steps a list of envs in lockstep.
"""
from __future__ import annotations

import numpy as np

from .grid_world import ACTION_DELTAS, N_ACTIONS, Action, EnvState


class RandomPolicy:
    """Uniform over the 5 actions; one stream per (seed, map, repeat), so an
    episode's draws do not depend on what else is played beside it."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def actions(self, envs: list[EnvState], keys) -> np.ndarray:
        acts = np.full((len(envs), envs[0].n_agents), int(Action.STAY), dtype=np.int64)
        for e, (env, key) in enumerate(zip(envs, keys)):
            if env.t == 0:
                self._streams[key] = np.random.default_rng(
                    np.random.SeedSequence((self.seed, *key)))
            rng = self._streams[key]
            for i, ag in enumerate(env.agents):
                if ag.active:
                    acts[e, i] = int(rng.integers(N_ACTIONS))
        return acts


class GreedyBfsPolicy:
    """Each agent moves to the neighbor cell minimizing its own static BFS
    distance to goal, ties broken by the lowest action code, ignoring what
    other agents intend to do. Blocked and off-grid neighbors never win
    (their distance is infinite)."""

    def actions(self, envs: list[EnvState], keys) -> np.ndarray:
        acts = np.full((len(envs), envs[0].n_agents), int(Action.STAY), dtype=np.int64)
        for e, env in enumerate(envs):
            size = env.grid.size
            for i, ag in enumerate(env.agents):
                if not ag.active:
                    continue
                r, c = ag.pos
                best_d = np.inf
                best_a = int(Action.STAY)
                for code in (Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT):
                    dr, dc = ACTION_DELTAS[code]
                    nr, nc = r + dr, c + dc
                    if not (0 <= nr < size and 0 <= nc < size):
                        continue
                    d = ag.dist_field[nr, nc]
                    if d < best_d:
                        best_d = d
                        best_a = int(code)
                acts[e, i] = best_a
        return acts


def play_episode(envs: list[EnvState], policy, keys, on_step=None) -> np.ndarray:
    """Step every env in lockstep until each episode ends; (E, n) goal-reached flags.

    Each timestep asks ``policy`` once for the actions of every env still
    playing (a finished env leaves the list) and then steps those envs in
    list order. ``keys[e]`` is env e's ``(map_index, repeat)``. When given,
    ``on_step(env, key)`` sees every env at its start and after each of its
    steps.
    """
    reached = np.zeros((len(envs), envs[0].n_agents), dtype=bool)
    if on_step is not None:
        for env, key in zip(envs, keys):
            on_step(env, key)
    live = [e for e, env in enumerate(envs) if not env.episode_over]
    while live:
        acts = policy.actions([envs[e] for e in live], [keys[e] for e in live])
        for e, row in zip(live, acts):
            reached[e] |= envs[e].step(row).done
            if on_step is not None:
                on_step(envs[e], keys[e])
        live = [e for e in live if not envs[e].episode_over]
    return reached


def baseline_policy(kind: str, seed: int = 0):
    """Factory for the evaluator: kind is 'random' or 'greedy_bfs'."""
    if kind == "random":
        return RandomPolicy(seed)
    if kind == "greedy_bfs":
        return GreedyBfsPolicy()
    raise ValueError(f"unknown baseline kind {kind!r}")
