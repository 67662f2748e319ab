"""Non-learned reference policies and the rollout loop every evaluation uses.

A policy exposes ``actions(block, keys) -> (E, n_agents) int array``: one
action row per row of an EnvState, where ``keys[e]`` is row e's
``(map_index, repeat)``. Inactive agents, and so finished rows, get Stay.
A policy that keeps per-episode state starts it when it sees a row at
``t[e] == 0``, so one policy object can play any number of episodes, in
any grouping, with the same result. The evaluator drives a baseline or a
trained bundle through this interface, and play_episode steps a block's
episodes in lockstep.
"""
from __future__ import annotations

import numpy as np

from .grid_world import N_ACTIONS, Action, EnvState


def greedy_moves(fields: np.ndarray) -> np.ndarray:
    """The greedy rule's action at every cell of (..., S, S) distance fields.

    An agent moves to the neighbour cell with the smallest distance, ties
    broken by the lowest action code; blocked and off-grid neighbours never
    win (their distance is infinite), and with no finite neighbour it stays.
    """
    fields = np.asarray(fields, dtype=np.float64)
    near = np.full((N_ACTIONS,) + fields.shape, np.inf)
    near[Action.UP, ..., 1:, :] = fields[..., :-1, :]
    near[Action.DOWN, ..., :-1, :] = fields[..., 1:, :]
    near[Action.LEFT, ..., 1:] = fields[..., :-1]
    near[Action.RIGHT, ..., :-1] = fields[..., 1:]
    return near.argmin(axis=0)


class RandomPolicy:
    """Uniform over the 5 actions; one stream per (seed, map, repeat), one
    draw per active agent in index order, so an episode's draws do not
    depend on what else is played beside it."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def actions(self, block: EnvState, keys) -> np.ndarray:
        acts = np.full(block.active.shape, int(Action.STAY), dtype=np.int64)
        for e in np.flatnonzero(block.t == 0):
            self._streams[keys[e]] = np.random.default_rng(
                np.random.SeedSequence((self.seed, *keys[e])))
        for e in np.flatnonzero(block.active.any(axis=1)):
            mask = block.active[e]
            acts[e, mask] = self._streams[keys[e]].integers(N_ACTIONS, size=int(mask.sum()))
        return acts


class GreedyBfsPolicy:
    """Each agent follows greedy_moves on its own static BFS field, ignoring
    what other agents intend to do; the move table is built from the fields
    of the block it is asked about, and rebuilt when that block changes."""

    def __init__(self):
        self._block: EnvState | None = None
        self._moves: np.ndarray | None = None

    def actions(self, block: EnvState, keys) -> np.ndarray:
        if block is not self._block:
            pad = block.planes.shape[-1]
            self._moves = greedy_moves(
                block.dist.reshape(block.dist.shape[:2] + (pad, pad))
            ).reshape(block.dist.shape)
            self._block = block
        acts = np.full(block.active.shape, int(Action.STAY), dtype=np.int64)
        b, i = np.nonzero(block.active)
        acts[b, i] = self._moves[block.map_of[b], i, block.cells[b, i]]
        return acts


def play_episode(block: EnvState, policy, keys, on_step=None) -> np.ndarray:
    """Step every episode of ``block`` in lockstep until each ends; (E, n)
    goal-reached flags.

    Each timestep asks ``policy`` once for the actions of the whole block
    and steps it once; a finished row stays as it is. ``keys[e]`` is row
    e's ``(map_index, repeat)``. When given, ``on_step(block, e, key)``
    sees every row at its start and after each of its steps.
    """
    reached = np.zeros(block.active.shape, dtype=bool)
    if on_step is not None:
        for e, key in enumerate(keys):
            on_step(block, e, key)
    while not block.episode_over:
        live = np.flatnonzero(block.active.any(axis=1))
        reached |= block.step(policy.actions(block, keys)).done
        if on_step is not None:
            for e in live:
                on_step(block, int(e), keys[e])
    return reached


def baseline_policy(kind: str, seed: int = 0):
    """Factory for the evaluator: kind is 'random' or 'greedy_bfs'."""
    if kind == "random":
        return RandomPolicy(seed)
    if kind == "greedy_bfs":
        return GreedyBfsPolicy()
    raise ValueError(f"unknown baseline kind {kind!r}")
