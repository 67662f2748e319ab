"""Independent reference implementations used as test oracles.

These deliberately share no code with the package: the simulator works on
plain dicts and tuples and recomputes every BFS field from scratch each
step, the goal projection is a plain clamp and the border search enumerates
window border cells directly, the window reference reads a map record and
the agents' positions cell by cell, and the gradient checker compares
against central finite differences. The greedy rule reads each agent's
flood-fill field one neighbour at a time. stack_rows() is the one helper
that is not an oracle: it only calls the state's own constructor and load().
"""
from __future__ import annotations

import numpy as np

# action code -> (row delta, col delta); part of the serialization contract
DELTAS = {0: (0, 0), 1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1)}


def flood_fill(size, blocked_cells, goal):
    """Plain dict BFS over free cells; unreachable cells are absent."""
    dist = {goal: 0}
    frontier = [goal]
    while frontier:
        nxt = []
        for (r, c) in frontier:
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                cell = (r + dr, c + dc)
                if not (0 <= cell[0] < size and 0 <= cell[1] < size):
                    continue
                if cell in blocked_cells or cell in dist:
                    continue
                dist[cell] = dist[(r, c)] + 1
                nxt.append(cell)
        frontier = nxt
    return dist


class BruteForceSim:
    """Reference dynamics: sequential resolution, BFS recomputed per step."""

    def __init__(self, record, horizon):
        self.record = record
        self.size = record["size"]
        self.blocked = {(r, c) for r, c in record["blocked"]}
        self.agents = [
            {"pos": tuple(a["start"]), "goal": tuple(a["goal"]), "active": True}
            for a in record["agents"]
        ]
        self.horizon = horizon
        self.t = 0

    @property
    def episode_over(self):
        return self.t >= self.horizon or not any(a["active"] for a in self.agents)

    def step(self, actions):
        n = len(self.agents)
        rewards = [0.0] * n
        done = [False] * n
        moved = [False] * n
        occupied = {a["pos"] for a in self.agents if a["active"]}
        for i in range(n):
            agent = self.agents[i]
            if not agent["active"]:
                continue
            field = flood_fill(self.size, self.blocked, agent["goal"])
            dr, dc = DELTAS[int(actions[i])]
            r, c = agent["pos"]
            target = (r + dr, c + dc)
            ok = (
                (dr, dc) != (0, 0)
                and 0 <= target[0] < self.size
                and 0 <= target[1] < self.size
                and target not in self.blocked
                and target not in occupied
            )
            if not ok:
                rewards[i] = -0.5
                continue
            d_old = field[agent["pos"]]
            d_new = field[target]
            rewards[i] = 0.5 if d_new == d_old - 1 else -1.0
            occupied.discard(agent["pos"])
            agent["pos"] = target
            moved[i] = True
            if target == agent["goal"]:
                agent["active"] = False
                done[i] = True
            else:
                occupied.add(target)
        self.t += 1
        if self.t >= self.horizon:
            for agent in self.agents:
                agent["active"] = False
        over = self.t >= self.horizon or not any(a["active"] for a in self.agents)
        return {"rewards": rewards, "done": done, "moved": moved,
                "episode_over": over}


def border_cells(radius):
    cells = []
    for r in range(-radius, radius + 1):
        for c in range(-radius, radius + 1):
            if max(abs(r), abs(c)) == radius:
                cells.append((r, c))
    return cells


def project_goal(delta_row, delta_col, radius):
    """Clamp a goal offset into the observation window [-R, R]^2.

    In-window offsets are returned unchanged. Otherwise the result lies on
    the window border: it keeps any in-range axis coordinate, and lands on
    the nearest corner when both axes are out of range.
    """
    return (min(max(delta_row, -radius), radius),
            min(max(delta_col, -radius), radius))


def nearest_border_cells(delta_row, delta_col, radius):
    """Border cells minimizing (Chebyshev, then Euclidean) distance to the delta."""
    def key(cell):
        dr = cell[0] - delta_row
        dc = cell[1] - delta_col
        return (max(abs(dr), abs(dc)), dr * dr + dc * dc)

    cells = border_cells(radius)
    best = min(key(c) for c in cells)
    return [c for c in cells if key(c) == best]


def reference_window(record, radius, positions, active, i):
    """Agent i's (4, 2R+1, 2R+1) window, cell by cell, from a map record and
    every agent's (row, col) position and active flag.

    The centre's goal distance comes from flood_fill on the record.
    """
    size = record["size"]
    blocked = {tuple(cell) for cell in record["blocked"]}
    goals = [tuple(a["goal"]) for a in record["agents"]]
    positions = [tuple(int(v) for v in pos) for pos in positions]
    assert active[i]
    others = [j for j in range(len(positions)) if j != i and active[j]]
    me = positions[i]
    window = np.zeros((4, 2 * radius + 1, 2 * radius + 1))
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            cell = (me[0] + dr, me[1] + dc)
            at = (dr + radius, dc + radius)
            inside = 0 <= cell[0] < size and 0 <= cell[1] < size
            window[0][at] = 1.0 if not inside or cell in blocked else 0.0
            window[1][at] = 1.0 if any(positions[j] == cell for j in others) else 0.0
            window[2][at] = 1.0 if any(goals[j] == cell for j in others) else 0.0
    window[1, radius, radius] = 1.0 / flood_fill(size, blocked, goals[i])[me]
    gr = min(max(goals[i][0] - me[0], -radius), radius)
    gc = min(max(goals[i][1] - me[1], -radius), radius)
    window[3, gr + radius, gc + radius] = 1.0
    return window


def greedy_actions(record, positions, active):
    """The greedy baseline's rule per agent, from a map record and the
    agents' positions and active flags: the neighbour with the smallest
    flood_fill distance to the agent's goal, ties to the lowest action code,
    Stay when no in-grid neighbour is reachable; inactive agents Stay."""
    size = record["size"]
    blocked = {tuple(cell) for cell in record["blocked"]}
    acts = []
    for agent, pos, live in zip(record["agents"], positions, active):
        field = flood_fill(size, blocked, tuple(agent["goal"]))
        best_d, best_a = np.inf, 0
        for code in (1, 2, 3, 4):
            cell = (int(pos[0]) + DELTAS[code][0], int(pos[1]) + DELTAS[code][1])
            if live and field.get(cell, np.inf) < best_d:
                best_d, best_a = field[cell], code
        acts.append(best_a)
    return acts


def sim_window(sim, radius, i):
    """reference_window of agent i in a BruteForceSim's current state."""
    return reference_window(sim.record, radius, [a["pos"] for a in sim.agents],
                            [a["active"] for a in sim.agents], i)


def sim_greedy(sim):
    """greedy_actions in a BruteForceSim's current state."""
    return greedy_actions(sim.record, [a["pos"] for a in sim.agents],
                          [a["active"] for a in sim.agents])


# activations with a non-differentiable point at 0
KINKED_ACTIVATIONS = ("relu", "abs")


def stack_rows(envs):
    """One state with a row per one-row state of ``envs``, in order, each
    row where its env stands: built from the envs' map records, then every
    row loaded from its env."""
    first = envs[0]
    state = type(first)([env.record(0) for env in envs], 1, first.obs_radius, first.horizon)
    for e, env in enumerate(envs):
        state.load(e, env)
    return state


def tape_has_kink(tape, threshold=1e-7):
    """True when some ReLU/Abs pre-activation of a forward tape sits within
    ``threshold`` of 0, where finite differences are unreliable."""
    for act, z in zip(tape.params.topology.activations, tape.preacts):
        if act in KINKED_ACTIVATIONS and np.any(np.abs(z) < threshold):
            return True
    return False


def finite_diff_check(flat_params, loss_fn, eps=1e-5, n_coords=None, rng=None,
                      tolerance=None):
    """Compare analytic gradients against central finite differences.

    ``loss_fn(flat) -> (loss, grad)`` must be differentiable at the given
    point (resample the instance when a kink is hit, see tape_has_kink).
    Checks every coordinate, or a random subset of ``n_coords``. The
    relative error denominator is floored at 1e-6 to absorb cancellation
    noise in near-zero gradient entries. When ``tolerance`` is given, an
    AssertionError reports the worst coordinate if it is exceeded. Returns
    the largest relative error.
    """
    flat_params = np.asarray(flat_params, dtype=np.float64)
    # a copy: loss_fn may return a buffer that the perturbed calls overwrite
    analytic = np.array(loss_fn(flat_params)[1])
    n = flat_params.shape[0]
    if n_coords is None or n_coords >= n:
        coords = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=n_coords, replace=False)
    work = flat_params.copy()
    max_err = 0.0
    worst = -1
    for i in coords:
        saved = work[i]
        work[i] = saved + eps
        loss_plus = loss_fn(work)[0]
        work[i] = saved - eps
        loss_minus = loss_fn(work)[0]
        work[i] = saved
        fd = (loss_plus - loss_minus) / (2.0 * eps)
        err = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-6)
        if err > max_err:
            max_err = err
            worst = int(i)
    if tolerance is not None and max_err > tolerance:
        raise AssertionError(
            f"gradient mismatch {max_err:.3e} > {tolerance:.1e} at coord {worst}")
    return max_err
