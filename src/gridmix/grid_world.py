"""Multi-agent grid pathfinding environment.

A square grid holds static obstacles, agents, and per-agent goal cells.
Agents move in the four cardinal directions or stay; an agent that enters
its own goal cell is removed from the map. Rewards are shaped by each
agent's BFS distance-to-goal field, computed once when a row is built
over the static grid (other agents are never obstacles for the field).

EnvState is the one environment type: it holds any number of episodes as
arrays, one per row, and steps them together. Every row is built from a
map record: generate_record() draws a random one, and EnvState(records,
repeats, obs_radius, horizon) is the one constructor. Training keeps one
row per environment slot and evaluation one per (map, repeat); generate()
and env_from_record() build a single row.

Conventions: row 0 is the top row, column 0 is leftmost, Up decreases the
row index. All dynamics are deterministic; randomness enters only through
map generation.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

REWARD_TOWARD = 0.5
REWARD_STAY = -0.5
REWARD_AWAY = -1.0

MAX_GENERATION_ATTEMPTS = 64


class GenerationFailed(ValueError):
    """No obstacle/start/goal placement satisfied the config within the
    attempt budget: the config asks for a map that no draw produced."""


class InvalidActionCount(ValueError):
    """step() received actions whose shape is not (rows, agents)."""


class Action(IntEnum):
    STAY = 0
    UP = 1
    DOWN = 2
    LEFT = 3
    RIGHT = 4


N_ACTIONS = len(Action)

# (row delta, col delta) per action code; codes are part of the wire format.
ACTION_DELTAS: tuple[tuple[int, int], ...] = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class EnvConfig:
    """Generation parameters for one environment instance."""

    size: int
    density: float
    n_agents: int
    obs_radius: int
    horizon: int
    goal_dist: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"size must be >= 2, got {self.size}")
        if not (0.0 <= self.density < 1.0):
            raise ValueError(f"density must be in [0, 1), got {self.density}")
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if not (1 <= self.obs_radius <= self.size):
            raise ValueError(f"obs_radius must be in [1, size], got {self.obs_radius}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.goal_dist is not None and not (1 <= self.goal_dist <= self.size**2):
            raise ValueError(f"goal_dist must be in [1, size^2], got {self.goal_dist}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class StepOutcome:
    """Per-step results of every row: ``rewards``, ``done`` and ``moved`` are
    (E, n), ``episode_over`` is (E,) and tells which rows have finished.
    Inactive agents, and so finished rows, receive reward 0 and done False."""

    rewards: np.ndarray
    done: np.ndarray
    episode_over: np.ndarray
    moved: np.ndarray


def bfs_distance_field(blocked: np.ndarray, goal: tuple[int, int]) -> np.ndarray:
    """4-connected BFS distances to ``goal`` over the unblocked cells of the
    (S, S) matrix ``blocked``.

    Blocked and unreachable cells are set to ``inf``; the goal cell itself
    is 0. The field ignores agents entirely (static grid only).
    """
    size = len(blocked)
    gr, gc = goal
    if blocked[gr, gc]:
        raise ValueError("goal cell is blocked")
    blocked = np.asarray(blocked, dtype=bool).tobytes()
    dist = [math.inf] * (size * size)
    start = gr * size + gc
    dist[start] = 0.0
    frontier = [start]
    d = 0.0
    while frontier:
        d += 1.0
        nxt = []
        for cell in frontier:
            r, c = divmod(cell, size)
            if r > 0:
                k = cell - size
                if not blocked[k] and dist[k] == math.inf:
                    dist[k] = d
                    nxt.append(k)
            if r + 1 < size:
                k = cell + size
                if not blocked[k] and dist[k] == math.inf:
                    dist[k] = d
                    nxt.append(k)
            if c > 0:
                k = cell - 1
                if not blocked[k] and dist[k] == math.inf:
                    dist[k] = d
                    nxt.append(k)
            if c + 1 < size:
                k = cell + 1
                if not blocked[k] and dist[k] == math.inf:
                    dist[k] = d
                    nxt.append(k)
        frontier = nxt
    return np.array(dist, dtype=np.float64).reshape(size, size)


def bfs_distance_fields(blocked: np.ndarray, goals: np.ndarray) -> np.ndarray:
    """Every goal's BFS distance field at once: (M, k, S, S) for ``blocked``
    (M, S, S) and ``goals`` (M, k, 2), each equal to bfs_distance_field of
    that map and goal.

    One frontier dilation steps all M * k searches together, one BFS ring
    per step, until no search reaches a new cell. It runs on flat planes
    with a blocked border, where the four neighbours are shifts by 1 and W.
    """
    n_maps, k = goals.shape[:2]
    size = blocked.shape[-1]
    width = size + 2
    free = np.zeros((n_maps, 1, width, width), dtype=bool)
    free[:, 0, 1:-1, 1:-1] = ~np.asarray(blocked, dtype=bool)
    free = free.reshape(n_maps, 1, -1)
    seen = np.zeros((n_maps, k, width * width), dtype=bool)
    seen[np.arange(n_maps)[:, None], np.arange(k),
         (goals[..., 0] + 1) * width + goals[..., 1] + 1] = True
    dist = np.where(seen, 0.0, np.inf)
    frontier = seen.copy()
    grown = np.empty_like(seen)
    d = 0.0
    while frontier.any():
        d += 1.0
        grown[:] = False
        grown[..., width:] |= frontier[..., :-width]
        grown[..., :-width] |= frontier[..., width:]
        grown[..., 1:] |= frontier[..., :-1]
        grown[..., :-1] |= frontier[..., 1:]
        grown &= free
        np.greater(grown, seen, out=frontier)
        seen |= frontier
        dist[frontier] = d
    return dist.reshape(n_maps, k, width, width)[..., 1:-1, 1:-1]


def _check_agents(blocked: np.ndarray, starts, goals, start_dists) -> None:
    """Starts and goals on free cells, distinct starts, reachable goals."""
    seen: set[tuple[int, int]] = set()
    for start, goal, d in zip(starts, goals, start_dists):
        if blocked[tuple(start)] or blocked[tuple(goal)]:
            raise ValueError("agent start/goal on a blocked cell")
        if tuple(start) in seen:
            raise ValueError("two agents share a start cell")
        seen.add(tuple(start))
        if not np.isfinite(d):
            raise ValueError("agent goal is unreachable from its start")


# --- map records --------------------------------------------------------------

def _record(size: int, blocked: np.ndarray, starts, goals, seed: int) -> dict:
    return {
        "size": int(size),
        "blocked": [[int(r), int(c)] for r, c in np.argwhere(blocked)],
        "agents": [{"start": [int(s[0]), int(s[1])], "goal": [int(g[0]), int(g[1])]}
                   for s, g in zip(starts, goals)],
        "seed": int(seed),
    }


def map_hash(record: dict) -> str:
    """Canonical content hash of (map, starts, goals); the seed is excluded."""
    canon = {
        "size": record["size"],
        "blocked": sorted(map(tuple, record["blocked"])),
        "agents": [(tuple(a["start"]), tuple(a["goal"])) for a in record["agents"]],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def _parse_record(record: dict, obs_radius: int, horizon: int
                  ) -> tuple[EnvConfig, np.ndarray, list, list]:
    """A map record's config, blocked matrix, starts and goals; a blocked
    cell, start or goal outside the grid, or a blocked goal, raises
    ValueError naming it."""
    size = int(record["size"])

    def cell(value, field: str) -> tuple[int, int]:
        r, c = int(value[0]), int(value[1])
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"{field} [{r}, {c}] lies outside [0, {size})")
        return r, c

    blocked = np.zeros((size, size), dtype=bool)
    for value in record["blocked"]:
        blocked[cell(value, "blocked cell")] = True
    starts, goals = [], []
    for i, a in enumerate(record["agents"]):
        starts.append(cell(a["start"], f"agent {i} start"))
        goals.append(cell(a["goal"], f"agent {i} goal"))
        if blocked[goals[-1]]:
            raise ValueError("goal cell is blocked")
    config = EnvConfig(
        size=size,
        density=int(blocked.sum()) / (size * size),
        n_agents=len(starts),
        obs_radius=obs_radius,
        horizon=horizon,
        goal_dist=None,
        seed=int(record.get("seed", 0)),
    )
    return config, blocked, starts, goals


# --- the environment ------------------------------------------------------------

# the arrays that hold one row's episode; load() copies them
_ROW_ARRAYS = ("planes", "cells", "goal_cells", "active", "t", "dist")


class EnvState:
    """Episodes held as arrays, one per row, and stepped together.

    Row ``e`` plays map ``map_of[e]``; every map has the same size and
    agent count n. Per row the state holds padded planes (obstacles with
    out-of-grid cells 1, active agents, and a count of active agents'
    goals; ``planes[e]`` is (3, P, P) with P = size + 2 * obs_radius), per
    agent its cell and goal cell as flat indices into a padded plane and
    its active flag, and the row's clock ``t[e]``. ``dist[map_of[e], i]`` is
    agent i's flat padded BFS distance field, infinite off the grid; a
    map's repeats share it. A row whose agents are all inactive has
    finished: step() leaves it alone, and load() may put a new episode in
    its place. Stepping is deterministic: rows built from the same map and
    fed the same actions evolve bit-identically.
    """

    def __init__(self, records: list[dict], repeats: int, obs_radius: int, horizon: int):
        """Rows for map records, each played by ``repeats`` consecutive
        rows; a record that cannot be played raises ValueError naming the
        fault. One map gets its fields from bfs_distance_field, whose Python
        BFS costs less than the batched one for a few goals; more maps share
        one bfs_distance_fields."""
        parsed = [_parse_record(record, obs_radius, horizon) for record in records]
        blocked = np.array([p[1] for p in parsed])
        starts = np.array([p[2] for p in parsed], dtype=np.intp).reshape(len(parsed), -1, 2)
        goals = np.array([p[3] for p in parsed], dtype=np.intp).reshape(starts.shape)
        if len(parsed) == 1:
            fields = np.array([[bfs_distance_field(blocked[0], goal) for goal in parsed[0][3]]])
        else:
            fields = bfs_distance_fields(blocked, goals)
        n_maps, n = starts.shape[:2]
        agents = np.arange(n)
        for m, (_, _, s, g) in enumerate(parsed):
            _check_agents(blocked[m], s, g, fields[m, agents, starts[m, :, 0], starts[m, :, 1]])
        size = blocked.shape[-1]
        rad = obs_radius
        pad = size + 2 * rad
        self.size, self.obs_radius, self.horizon = size, obs_radius, horizon
        self._setups = list(zip(starts.tolist(), goals.tolist(), [p[0].seed for p in parsed]))
        self.map_of = np.arange(n_maps).repeat(repeats)
        dist = np.full((n_maps, n, pad, pad), np.inf)
        dist[:, :, rad:rad + size, rad:rad + size] = fields
        self.dist = dist.reshape(n_maps, n, pad * pad)
        start_cells = starts @ (pad, 1) + rad * (pad + 1)
        goal_cells = goals @ (pad, 1) + rad * (pad + 1)
        # goal counts fit the smallest unsigned type that holds n
        planes = np.zeros((n_maps, 3, pad * pad), dtype=np.min_scalar_type(n))
        planes[:, 0] = 1
        planes.reshape(n_maps, 3, pad, pad)[:, 0, rad:rad + size, rad:rad + size] = blocked
        maps = np.arange(n_maps)[:, None]
        planes[maps, 1, start_cells] = 1
        np.add.at(planes, (maps, 2, goal_cells), 1)
        if repeats > 1:  # a one-row reset skips the copies
            planes, start_cells, goal_cells = (np.repeat(a, repeats, axis=0)
                                               for a in (planes, start_cells, goal_cells))
        self.planes = planes.reshape(-1, 3, pad, pad)
        self.cells, self.goal_cells = start_cells, goal_cells
        self.active = np.ones(self.cells.shape, dtype=bool)
        self.t = np.zeros(len(self.cells), dtype=np.int64)
        # flat padded index step of each action code
        self._moves = np.array(ACTION_DELTAS) @ (pad, 1)

    def load(self, e: int, env: EnvState) -> None:
        """Put the one-row state ``env`` in row ``e`` of a state built with
        one repeat per record, so that every row has its own map."""
        for name in _ROW_ARRAYS:
            getattr(self, name)[e] = getattr(env, name)[0]
        self._setups[e] = env._setups[0]

    @property
    def episode_over(self) -> bool:
        """True when every row has finished."""
        return not self.active.any()

    def positions(self, e: int) -> np.ndarray:
        """Grid (row, col) of every agent of row ``e``, (n, 2); a finished
        agent keeps its last cell."""
        pad = self.planes.shape[-1]
        return np.stack(np.divmod(self.cells[e], pad), axis=-1) - self.obs_radius

    def record(self, e: int) -> dict:
        """The JSON-serializable map record of row ``e``: its size, blocked
        cells, agents' starts and goals, and seed."""
        rad, size = self.obs_radius, self.size
        return _record(size, self.planes[e, 0, rad:rad + size, rad:rad + size] > 0,
                       *self._setups[self.map_of[e]])

    def step(self, actions) -> StepOutcome:
        """Resolve one joint step of every row that has not finished.

        ``actions`` is (E, n). In each row agents resolve in ascending
        index, each index over every row at once. A move into a blocked
        cell, off the grid, or into a cell occupied by another active agent
        (at its position after earlier-indexed agents resolved) fails: the
        agent stays and is rewarded as staying. An agent entering its own
        goal is removed from the map immediately, so later-indexed agents
        may traverse the vacated cell this step. A row whose clock reaches
        the horizon is truncated: its active agents leave without done.

        Moving one step closer to the goal along any shortest route pays
        0.5, moving away pays -1.0, and staying in place (including failed
        moves) pays -0.5. The grid graph is bipartite, so a successful move
        changes the BFS distance by exactly 1; this is asserted.
        """
        actions = np.asarray(actions)
        if actions.shape != self.active.shape:
            raise InvalidActionCount(f"expected actions of shape {self.active.shape}, "
                                     f"got {actions.shape}")
        live = self.active.any(axis=1)
        if not live.any():
            raise RuntimeError("step() called on a finished episode")
        n_rows, n = self.active.shape
        flat = self.planes.reshape(n_rows, 3, -1)
        obstacles, occupied, goal_count = flat[:, 0], flat[:, 1], flat[:, 2]
        rewards = np.zeros((n_rows, n), dtype=np.float64)
        done = np.zeros((n_rows, n), dtype=bool)
        moved = np.zeros((n_rows, n), dtype=bool)
        for i in range(n):
            e = np.flatnonzero(self.active[:, i])
            if not len(e):
                continue
            rewards[e, i] = REWARD_STAY
            old = self.cells[e, i]
            new = old + self._moves[actions[e, i]]
            # a stay targets the agent's own, occupied cell and fails like a
            # blocked move; off-grid cells are obstacles in the padding
            ok = (obstacles[e, new] == 0) & (occupied[e, new] == 0)
            e, old, new = e[ok], old[ok], new[ok]
            m = self.map_of[e]
            d_old, d_new = self.dist[m, i, old], self.dist[m, i, new]
            assert np.all(np.abs(d_new - d_old) == 1.0), \
                "successful move must change BFS distance by 1"
            rewards[e, i] = np.where(d_new < d_old, REWARD_TOWARD, REWARD_AWAY)
            moved[e, i] = True
            occupied[e, old] = 0
            self.cells[e, i] = new
            arrived = new == self.goal_cells[e, i]
            done[e[arrived], i] = True
            self.active[e[arrived], i] = False
            goal_count[e[arrived], new[arrived]] -= 1
            occupied[e[~arrived], new[~arrived]] = 1
        self.t[live] += 1
        over = live & (self.t >= self.horizon)
        if over.any():
            for i in range(n):  # truncated, not successful
                e = np.flatnonzero(over & self.active[:, i])
                occupied[e, self.cells[e, i]] = 0
                goal_count[e, self.goal_cells[e, i]] -= 1
                self.active[e, i] = False
        return StepOutcome(rewards, done, ~self.active.any(axis=1), moved)

    def global_state(self, out: np.ndarray | None = None) -> np.ndarray:
        """Full-information state of every row, (E, 3, size, size).

        Channel 0: obstacles, channel 1: active-agent occupancy, channel 2:
        goal cells of active agents. Flattening a row is row-major per
        channel, channels in this order. ``out`` may supply a preallocated
        float64 array.
        """
        rad, size = self.obs_radius, self.size
        if out is None:
            out = np.empty((len(self.planes), 3, size, size))
        np.greater(self.planes[:, :, rad:rad + size, rad:rad + size], 0, out=out)
        return out


def generate_record(config: EnvConfig) -> dict:
    """The map record of a random map with guaranteed goal reachability.

    Exactly ``floor(density * size^2)`` obstacle cells are sampled without
    replacement. Starts are distinct free cells; each goal is drawn among
    cells at BFS distance ``goal_dist`` from the start (any reachable cell
    at distance >= 1 when unset). The whole map is resampled when any agent
    has no valid goal, up to MAX_GENERATION_ATTEMPTS.
    """
    rng = np.random.default_rng(config.seed)
    size = config.size
    n_cells = size * size
    n_blocked = math.floor(config.density * n_cells)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        blocked_flat = np.zeros(n_cells, dtype=bool)
        if n_blocked:
            blocked_flat[rng.choice(n_cells, size=n_blocked, replace=False)] = True
        free = np.flatnonzero(~blocked_flat)
        if len(free) < config.n_agents:
            continue
        blocked = blocked_flat.reshape(size, size)
        starts, goals = [], []
        for start_flat in rng.choice(free, size=config.n_agents, replace=False):
            starts.append(divmod(int(start_flat), size))
            from_start = bfs_distance_field(blocked, starts[-1]).reshape(-1)
            if config.goal_dist is not None:
                candidates = np.flatnonzero(from_start == config.goal_dist)
            else:
                candidates = np.flatnonzero(np.isfinite(from_start) & (from_start >= 1))
            if len(candidates) == 0:
                break
            goals.append(divmod(int(rng.choice(candidates)), size))
        if len(goals) == config.n_agents:
            return _record(size, blocked, starts, goals, config.seed)
    raise GenerationFailed(
        f"no valid placement after {MAX_GENERATION_ATTEMPTS} attempts; "
        f"config is over-constrained: {config}")


def generate(config: EnvConfig) -> EnvState:
    """A random one-row environment: the map of generate_record(config)."""
    return EnvState([generate_record(config)], 1, config.obs_radius, config.horizon)


def env_from_record(record: dict, obs_radius: int, horizon: int) -> EnvState:
    """Rebuild a playable one-row EnvState from a map record; a blocked
    cell, start or goal outside the grid raises ValueError naming the
    field."""
    return EnvState([record], 1, obs_radius, horizon)
