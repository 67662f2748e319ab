"""Non-learned reference policies.

A policy exposes ``start_episode(map_index, repeat)`` and
``actions(env) -> (n_agents,) int array``; the evaluator drives either a
baseline or a trained bundle through the same interface.
"""
from __future__ import annotations

import numpy as np

from .grid_world import ACTION_DELTAS, Action, EnvState

N_ACTIONS = 5


class RandomPolicy:
    """Uniform over the 5 actions, reseeded per (map, repeat) for determinism."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def start_episode(self, map_index: int = 0, repeat: int = 0) -> None:
        self._rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, map_index, repeat)))

    def actions(self, env: EnvState) -> np.ndarray:
        acts = np.full(env.n_agents, int(Action.STAY), dtype=np.int64)
        for i, ag in enumerate(env.agents):
            if ag.active:
                acts[i] = int(self._rng.integers(N_ACTIONS))
        return acts


class GreedyBfsPolicy:
    """Each agent moves to the neighbor cell minimizing its own static BFS
    distance to goal, ties broken by the lowest action code, ignoring what
    other agents intend to do. Blocked and off-grid neighbors never win
    (their distance is infinite)."""

    def start_episode(self, map_index: int = 0, repeat: int = 0) -> None:
        pass

    def actions(self, env: EnvState) -> np.ndarray:
        size = env.grid.size
        acts = np.full(env.n_agents, int(Action.STAY), dtype=np.int64)
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
            acts[i] = best_a
        return acts


def play_episode(env: EnvState, policy) -> np.ndarray:
    """Step ``policy`` on ``env`` until the episode ends; per-agent goal-reached flags."""
    reached = np.zeros(env.n_agents, dtype=bool)
    while not env.episode_over:
        reached |= env.step(policy.actions(env)).done
    return reached


def baseline_policy(kind: str, seed: int = 0):
    """Factory for the evaluator: kind is 'random' or 'greedy_bfs'."""
    if kind == "random":
        return RandomPolicy(seed)
    if kind == "greedy_bfs":
        return GreedyBfsPolicy()
    raise ValueError(f"unknown baseline kind {kind!r}")
