"""Multi-agent grid pathfinding environment.

A square grid holds static obstacles, agents, and per-agent goal cells.
Agents move in the four cardinal directions or stay; an agent that enters
its own goal cell is removed from the map. Rewards are shaped by each
agent's BFS distance-to-goal field, which is computed once at generation
over the static grid (other agents are never obstacles for the field).

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


class GenerationFailed(RuntimeError):
    """No obstacle/start/goal placement satisfied the config within the attempt budget."""


class InvalidActionCount(ValueError):
    """step() received a number of actions different from the number of agents."""


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
class GridMap:
    """Static obstacle field. ``blocked[r, c]`` is True on obstacle cells."""

    size: int
    blocked: np.ndarray

    def __post_init__(self) -> None:
        self.blocked = np.asarray(self.blocked, dtype=bool)
        if self.blocked.shape != (self.size, self.size):
            raise ValueError("blocked matrix shape does not match size")
        # flat byte mirror for the stepping hot path
        self._blocked_bytes = bytes(self.blocked.reshape(-1).view(np.uint8))


@dataclass
class AgentState:
    """One agent: position, goal, liveness, and its static distance field.

    ``dist_field[r, c]`` is the 4-connected BFS distance from (r, c) to the
    goal over unblocked cells; blocked and unreachable cells hold ``inf``.
    ``active`` flips to False exactly once: on reaching the goal or on
    episode truncation.
    """

    pos: tuple[int, int]
    goal: tuple[int, int]
    active: bool
    dist_field: np.ndarray


@dataclass
class StepOutcome:
    """Per-step results. Inactive agents receive reward 0 and done False."""

    rewards: np.ndarray
    done: np.ndarray
    episode_over: bool
    moved: np.ndarray


def bfs_distance_field(grid: GridMap, goal: tuple[int, int]) -> np.ndarray:
    """4-connected BFS distances to ``goal`` over unblocked cells.

    Blocked and unreachable cells are set to ``inf``; the goal cell itself
    is 0. The field ignores agents entirely (static grid only).
    """
    size = grid.size
    gr, gc = goal
    if grid.blocked[gr, gc]:
        raise ValueError("goal cell is blocked")
    blocked = grid._blocked_bytes
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


def reward_for(agent: AgentState, old_pos: tuple[int, int], new_pos: tuple[int, int]) -> float:
    """Reward for one resolved agent transition.

    Moving one step closer to the goal along any shortest route pays 0.5,
    moving away pays -1.0, and staying in place (including failed moves)
    pays -0.5. The grid graph is bipartite, so a successful move changes
    the BFS distance by exactly 1; this is asserted.
    """
    if new_pos == old_pos:
        return REWARD_STAY
    d_old = agent.dist_field[old_pos]
    d_new = agent.dist_field[new_pos]
    assert abs(d_new - d_old) == 1.0, "successful move must change BFS distance by 1"
    return REWARD_TOWARD if d_new < d_old else REWARD_AWAY


class EnvState:
    """Mutable environment state for one episode.

    Instances are single-threaded but independent; a harness may step many
    instances in parallel. ``step`` mutates in place and is deterministic:
    two instances built from the same config and fed the same actions
    evolve bit-identically.
    """

    def __init__(self, grid: GridMap, agents: list[AgentState], config: EnvConfig):
        self.grid = grid
        self.agents = agents
        self.config = config
        self.t = 0
        self._validate()
        self._build_caches()

    def _validate(self) -> None:
        _check_agents(self.grid.blocked, [ag.pos for ag in self.agents],
                      [ag.goal for ag in self.agents],
                      [ag.dist_field[ag.pos] for ag in self.agents])
        if len(self.agents) < 1 or self.grid.size != self.config.size:
            raise ValueError("inconsistent environment state")

    def _build_caches(self) -> None:
        size = self.grid.size
        rad = self.config.obs_radius
        pad = size + 2 * rad
        self._blocked_f64 = self.grid.blocked.astype(np.float64)
        self._home(np.zeros((1, 3, pad, pad), dtype=np.float64), 0)
        self._pad_obstacles[:] = 1.0
        self._pad_obstacles[rad:rad + size, rad:rad + size] = self._blocked_f64
        self._occ = bytearray(size * size)
        for ag in self.agents:
            if ag.active:
                r, c = ag.pos
                self._occ[r * size + c] = 1
                self._pad_agents[r + rad, c + rad] = 1.0
                gr, gc = ag.goal
                self._pad_goals[gr + rad, gc + rad] += 1.0

    def _home(self, stack: np.ndarray, row: int) -> None:
        # the padded obstacle, agent and goal planes are views of stack[row]
        self._stack, self._row = stack, row
        self._pad_obstacles, self._pad_agents, self._pad_goals = stack[row]

    def move_planes(self, stack: np.ndarray, row: int) -> None:
        """Copy the padded obstacle, agent and goal planes into ``stack[row]``
        and keep them there: the env's caches become views of that row, so
        stepping the env keeps it current."""
        stack[row] = self._stack[self._row]
        self._home(stack, row)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def episode_over(self) -> bool:
        return self.t >= self.config.horizon or not any(ag.active for ag in self.agents)

    def _deactivate(self, agent: AgentState, *, at_goal: bool) -> None:
        # removes the agent and its goal from occupancy and observation caches
        size = self.grid.size
        rad = self.config.obs_radius
        agent.active = False
        if not at_goal:
            r, c = agent.pos
            self._occ[r * size + c] = 0
            self._pad_agents[r + rad, c + rad] = 0.0
        gr, gc = agent.goal
        self._pad_goals[gr + rad, gc + rad] -= 1.0

    def step(self, actions) -> StepOutcome:
        """Resolve one joint step; sequential in ascending agent index.

        A move into a blocked cell, off the grid, or into a cell occupied
        by another active agent (at its position after earlier-indexed
        agents resolved) fails: the agent stays and is rewarded as staying.
        An agent entering its own goal is removed from the map immediately,
        so later-indexed agents may traverse the vacated cell this step.
        """
        n = len(self.agents)
        if len(actions) != n:
            raise InvalidActionCount(f"expected {n} actions, got {len(actions)}")
        if self.episode_over:
            raise RuntimeError("step() called on a finished episode")
        size = self.grid.size
        rad = self.config.obs_radius
        blocked = self.grid._blocked_bytes
        occ = self._occ
        rewards = np.zeros(n, dtype=np.float64)
        done = np.zeros(n, dtype=bool)
        moved = np.zeros(n, dtype=bool)
        for i in range(n):
            ag = self.agents[i]
            if not ag.active:
                continue
            dr, dc = ACTION_DELTAS[int(actions[i])]
            r, c = ag.pos
            if dr == 0 and dc == 0:
                rewards[i] = reward_for(ag, ag.pos, ag.pos)
                continue
            nr = r + dr
            nc = c + dc
            if not (0 <= nr < size and 0 <= nc < size) or blocked[nr * size + nc] \
                    or occ[nr * size + nc]:
                rewards[i] = reward_for(ag, ag.pos, ag.pos)
                continue
            new_pos = (nr, nc)
            rewards[i] = reward_for(ag, ag.pos, new_pos)
            occ[r * size + c] = 0
            self._pad_agents[r + rad, c + rad] = 0.0
            ag.pos = new_pos
            moved[i] = True
            if new_pos == ag.goal:
                done[i] = True
                self._deactivate(ag, at_goal=True)
            else:
                occ[nr * size + nc] = 1
                self._pad_agents[nr + rad, nc + rad] = 1.0
        self.t += 1
        if self.t >= self.config.horizon:
            for ag in self.agents:
                if ag.active:
                    self._deactivate(ag, at_goal=False)  # truncated, not successful
            episode_over = True
        else:
            episode_over = not any(ag.active for ag in self.agents)
        return StepOutcome(rewards, done, episode_over, moved)

    def global_state(self, out: np.ndarray | None = None) -> np.ndarray:
        """Full-information state tensor 3 x size x size.

        Channel 0: obstacles, channel 1: active-agent occupancy, channel 2:
        goal cells of active agents. Flattening is row-major per channel,
        channels in this order. ``out`` may supply a preallocated array.
        """
        size = self.grid.size
        rad = self.config.obs_radius
        g = np.empty((3, size, size), dtype=np.float64) if out is None else out
        g[0] = self._blocked_f64
        g[1] = self._pad_agents[rad:rad + size, rad:rad + size]
        np.greater(self._pad_goals[rad:rad + size, rad:rad + size], 0.0, out=g[2])
        return g


def shared_planes(envs: list[EnvState]) -> tuple[np.ndarray, list[int]]:
    """One array holding every env's padded planes, and each env's row in it.

    That is the envs' common stack when move_planes() homed them all in
    one (always so for a single env); otherwise a stacked copy.
    """
    stack = envs[0]._stack
    if all(env._stack is stack for env in envs):
        return stack, [env._row for env in envs]
    return np.stack([env._stack[env._row] for env in envs]), list(range(len(envs)))


def generate(config: EnvConfig) -> EnvState:
    """Generate a random environment with guaranteed goal reachability.

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
        grid = GridMap(size, blocked_flat.reshape(size, size))
        starts = rng.choice(free, size=config.n_agents, replace=False)
        agents: list[AgentState] = []
        for start_flat in starts:
            start = (int(start_flat) // size, int(start_flat) % size)
            from_start = bfs_distance_field(grid, start).reshape(-1)
            if config.goal_dist is not None:
                candidates = np.flatnonzero(from_start == config.goal_dist)
            else:
                candidates = np.flatnonzero(np.isfinite(from_start) & (from_start >= 1))
            if len(candidates) == 0:
                break
            goal_flat = int(rng.choice(candidates))
            goal = (goal_flat // size, goal_flat % size)
            agents.append(AgentState(start, goal, True, bfs_distance_field(grid, goal)))
        if len(agents) == config.n_agents:
            return EnvState(grid, agents, config)
    raise GenerationFailed(
        f"no valid placement after {MAX_GENERATION_ATTEMPTS} attempts; "
        f"config is over-constrained: {config}")


# --- map (de)serialization -------------------------------------------------

def _record(size: int, blocked: np.ndarray, starts, goals, seed: int) -> dict:
    return {
        "size": int(size),
        "blocked": [[int(r), int(c)] for r, c in np.argwhere(blocked)],
        "agents": [{"start": [int(s[0]), int(s[1])], "goal": [int(g[0]), int(g[1])]}
                   for s, g in zip(starts, goals)],
        "seed": int(seed),
    }


def map_record(state: EnvState) -> dict:
    """JSON-serializable record of the static episode setup."""
    return _record(state.grid.size, state.grid.blocked, [ag.pos for ag in state.agents],
                   [ag.goal for ag in state.agents], state.config.seed)


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


def env_from_record(record: dict, obs_radius: int, horizon: int) -> EnvState:
    """Rebuild a playable EnvState from a map record; a blocked cell, start
    or goal outside the grid raises ValueError naming the field."""
    config, blocked, starts, goals = _parse_record(record, obs_radius, horizon)
    grid = GridMap(config.size, blocked)
    agents = [AgentState(start, goal, True, bfs_distance_field(grid, goal))
              for start, goal in zip(starts, goals)]
    return EnvState(grid, agents, config)


# --- lockstep blocks ----------------------------------------------------------

class EnvBlock:
    """Episodes on a list of map records, each record played ``repeats``
    times, held as arrays and stepped together.

    Row ``e`` plays record ``e // repeats``. Every record needs the same
    size and agent count. Per row the block holds padded planes like an
    EnvState's (obstacles with out-of-grid cells 1, active agents, and a
    count of active agents' goals; ``planes[e]`` is (3, P, P) with P = size
    + 2 * obs_radius), and per agent its cell and goal cell as flat indices
    into a padded plane, and its active flag. ``dist[m, i]`` is agent i's
    flat padded BFS distance field on record m, infinite off the grid; a
    record's repeats share it. All rows share one clock ``t``; a row whose
    agents are all inactive has finished and is left alone by step().
    """

    def __init__(self, records: list[dict], repeats: int, obs_radius: int, horizon: int):
        parsed = [_parse_record(record, obs_radius, horizon) for record in records]
        blocked = np.array([p[1] for p in parsed])
        starts = np.array([p[2] for p in parsed], dtype=np.intp).reshape(len(parsed), -1, 2)
        goals = np.array([p[3] for p in parsed], dtype=np.intp).reshape(starts.shape)
        fields = bfs_distance_fields(blocked, goals)
        n_maps, n, size = len(parsed), starts.shape[1], blocked.shape[1]
        maps, agents = np.arange(n_maps)[:, None], np.arange(n)
        for m, (_, _, s, g) in enumerate(parsed):
            _check_agents(blocked[m], s, g, fields[m, agents, starts[m, :, 0], starts[m, :, 1]])
        self.size, self.obs_radius, self.horizon = size, obs_radius, horizon
        self._setups = [(s, g, config.seed) for config, _, s, g in parsed]
        self.t = 0
        rad = obs_radius
        pad = size + 2 * rad
        self.map_of = np.repeat(np.arange(n_maps), repeats)
        self.dist = np.full((n_maps, n, pad, pad), np.inf)
        self.dist[:, :, rad:rad + size, rad:rad + size] = fields
        self.dist = self.dist.reshape(n_maps, n, pad * pad)
        start_cells = (starts[..., 0] + rad) * pad + starts[..., 1] + rad
        goal_cells = (goals[..., 0] + rad) * pad + goals[..., 1] + rad
        # goal counts fit the smallest unsigned type that holds n
        planes = np.zeros((n_maps, 3, pad * pad), dtype=np.min_scalar_type(n))
        planes[:, 0] = 1
        planes.reshape(n_maps, 3, pad, pad)[:, 0, rad:rad + size, rad:rad + size] = blocked
        planes[maps, 1, start_cells] = 1
        np.add.at(planes, (maps, 2, goal_cells), 1)
        self.planes = np.repeat(planes, repeats, axis=0).reshape(-1, 3, pad, pad)
        self.cells = np.repeat(start_cells, repeats, axis=0)
        self.goal_cells = np.repeat(goal_cells, repeats, axis=0)
        self.active = np.ones(self.cells.shape, dtype=bool)
        # flat padded index step of each action code
        self._moves = np.array([dr * pad + dc for dr, dc in ACTION_DELTAS], dtype=np.intp)

    @property
    def episode_over(self) -> bool:
        """True when every row has finished."""
        return self.t >= self.horizon or not self.active.any()

    def positions(self, e: int) -> np.ndarray:
        """Grid (row, col) of every agent of row ``e``, (n, 2); a finished
        agent keeps its last cell."""
        pad = self.planes.shape[-1]
        return np.stack(np.divmod(self.cells[e], pad), axis=-1) - self.obs_radius

    def record(self, e: int) -> dict:
        """The map record of row ``e``, as map_record() writes it."""
        rad, size = self.obs_radius, self.size
        return _record(size, self.planes[e, 0, rad:rad + size, rad:rad + size] > 0,
                       *self._setups[self.map_of[e]])

    def step(self, actions) -> StepOutcome:
        """Resolve one joint step of every row that has not finished.

        ``actions`` is (E, n). The rules are EnvState.step's, row by row:
        agents resolve in ascending index, each one over every row at once,
        and an agent entering its goal leaves the map before the next index
        moves. The outcome's fields are (E, n) arrays, and ``episode_over``
        is (E,): which rows have finished.
        """
        actions = np.asarray(actions)
        if actions.shape != self.active.shape:
            raise InvalidActionCount(f"expected actions of shape {self.active.shape}, "
                                     f"got {actions.shape}")
        if self.episode_over:
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
        self.t += 1
        if self.t >= self.horizon:
            for i in range(n):  # truncated, not successful
                e = np.flatnonzero(self.active[:, i])
                occupied[e, self.cells[e, i]] = 0
                goal_count[e, self.goal_cells[e, i]] -= 1
                self.active[e, i] = False
        return StepOutcome(rewards, done, ~self.active.any(axis=1), moved)
