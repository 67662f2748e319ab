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

import copy
import hashlib
import json
import math
from dataclasses import dataclass, replace
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
        size = self.grid.size
        seen: set[tuple[int, int]] = set()
        for ag in self.agents:
            if self.grid.blocked[ag.pos] or self.grid.blocked[ag.goal]:
                raise ValueError("agent start/goal on a blocked cell")
            if ag.pos in seen:
                raise ValueError("two agents share a start cell")
            seen.add(ag.pos)
            if not np.isfinite(ag.dist_field[ag.pos]):
                raise ValueError("agent goal is unreachable from its start")
        if len(self.agents) < 1 or size != self.config.size:
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

    def clone(self) -> "EnvState":
        """An independent copy of the mutable state; the grid and the
        agents' distance fields are shared, not copied."""
        twin = copy.copy(self)
        twin.agents = [replace(ag) for ag in self.agents]
        twin._occ = bytearray(self._occ)
        twin._home(self._stack[self._row][None].copy(), 0)
        return twin

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


def stack_planes(envs: list[EnvState]) -> None:
    """Move the envs' padded observation planes into one (E, 3, pad, pad) array.

    Row e holds env e's obstacle, agent and goal planes, and that env's
    caches become views of the row, so stepping it keeps the stack
    current. Every env needs the same size and view radius.
    """
    shapes = {env._stack.shape[1:] for env in envs}
    if len(shapes) != 1:
        raise ValueError(f"envs have different padded plane shapes {sorted(shapes)}")
    stack = np.empty((len(envs),) + shapes.pop(), dtype=np.float64)
    for e, env in enumerate(envs):
        stack[e] = env._stack[env._row]
        env._home(stack, e)


def shared_planes(envs: list[EnvState]) -> tuple[np.ndarray, list[int]]:
    """One array holding every env's padded planes, and each env's row in it.

    That is the envs' common stack when stack_planes() built one for them
    (always so for a single env); otherwise a stacked copy.
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

def map_record(state: EnvState) -> dict:
    """JSON-serializable record of the static episode setup."""
    return {
        "size": state.grid.size,
        "blocked": [[int(r), int(c)] for r, c in np.argwhere(state.grid.blocked)],
        "agents": [
            {"start": [int(ag.pos[0]), int(ag.pos[1])],
             "goal": [int(ag.goal[0]), int(ag.goal[1])]}
            for ag in state.agents
        ],
        "seed": int(state.config.seed),
    }


def map_hash(record: dict) -> str:
    """Canonical content hash of (map, starts, goals); the seed is excluded."""
    canon = {
        "size": record["size"],
        "blocked": sorted(map(tuple, record["blocked"])),
        "agents": [(tuple(a["start"]), tuple(a["goal"])) for a in record["agents"]],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def env_from_record(record: dict, obs_radius: int, horizon: int) -> EnvState:
    """Rebuild a playable EnvState from a map record; a blocked cell, start
    or goal outside the grid raises ValueError naming the field."""
    size = int(record["size"])

    def cell(value, field: str) -> tuple[int, int]:
        r, c = int(value[0]), int(value[1])
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"{field} [{r}, {c}] lies outside [0, {size})")
        return r, c

    blocked = np.zeros((size, size), dtype=bool)
    for value in record["blocked"]:
        blocked[cell(value, "blocked cell")] = True
    grid = GridMap(size, blocked)
    agents = []
    for i, a in enumerate(record["agents"]):
        start = cell(a["start"], f"agent {i} start")
        goal = cell(a["goal"], f"agent {i} goal")
        agents.append(AgentState(start, goal, True, bfs_distance_field(grid, goal)))
    n_blocked = int(blocked.sum())
    config = EnvConfig(
        size=size,
        density=n_blocked / (size * size),
        n_agents=len(agents),
        obs_radius=obs_radius,
        horizon=horizon,
        goal_dist=None,
        seed=int(record.get("seed", 0)),
    )
    return EnvState(grid, agents, config)
