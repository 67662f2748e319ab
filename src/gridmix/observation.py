"""Egocentric partial observations.

Each active agent sees a 4 x (2R+1) x (2R+1) window centered on itself:

  channel 0: obstacles, with out-of-grid cells encoded 1
  channel 1: other active agents; the center holds 1/d where d is the
             agent's own BFS distance to goal (d >= 1 while active)
  channel 2: goal cells of other active agents inside the window
  channel 3: the agent's own goal, projected onto the window border via
             componentwise clamping when it lies outside

Channels are independent matrices; a projected goal marker may land on a
cell that channel 0 marks as an obstacle. Finished agents and their goals
appear in no channel. Observations are pure functions of the environment
state.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid_world import EnvState, shared_planes


class InactiveAgent(RuntimeError):
    """observe() was called for an agent that already left the map."""


def project_goal(delta_row: int, delta_col: int, radius: int) -> tuple[int, int]:
    """Clamp a goal offset into the observation window [-R, R]^2.

    In-window offsets are returned unchanged. Otherwise the result lies on
    the window border: it keeps any in-range axis coordinate, and lands on
    the nearest corner when both axes are out of range.
    """
    return (
        min(max(delta_row, -radius), radius),
        min(max(delta_col, -radius), radius),
    )


def obs_dim(obs_radius: int) -> int:
    """Flattened observation length for a given view radius."""
    width = 2 * obs_radius + 1
    return 4 * width * width


def observe(state: EnvState, agent_index: int, out: np.ndarray | None = None) -> np.ndarray:
    """Encode the observation of one active agent as a (4, 2R+1, 2R+1) array.

    Flattening it row-major gives the channel blocks in declared order.
    ``out`` may supply a preallocated float64 array to avoid churn on the
    training hot path.
    """
    ag = state.agents[agent_index]
    if not ag.active:
        raise InactiveAgent(f"agent {agent_index} is no longer on the map")
    rad = state.config.obs_radius
    width = 2 * rad + 1
    r, c = ag.pos  # padded-array window origin equals the grid position
    if out is None:
        out = np.empty((4, width, width), dtype=np.float64)
    out[0] = state._pad_obstacles[r:r + width, c:c + width]
    out[1] = state._pad_agents[r:r + width, c:c + width]
    d = ag.dist_field[r, c]
    out[1, rad, rad] = 1.0 / d  # center carries inverse goal distance, not self
    np.greater(state._pad_goals[r:r + width, c:c + width], 0.0, out=out[2])
    gr, gc = ag.goal
    if abs(gr - r) <= rad and abs(gc - c) <= rad:
        out[2, gr - r + rad, gc - c + rad] = (
            1.0 if state._pad_goals[gr + rad, gc + rad] > 1.0 else 0.0
        )
    out[3] = 0.0
    pr, pc = project_goal(gr - r, gc - c, rad)
    out[3, pr + rad, pc + rad] = 1.0
    return out


def observe_all(state: EnvState, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (n_agents, 4, 2R+1, 2R+1) for every agent; return the active mask.

    Rows of agents that have left the map are zeroed.
    """
    active = np.array([ag.active for ag in state.agents], dtype=bool)
    for i in range(len(active)):
        if active[i]:
            observe(state, i, out=out[i])
        else:
            out[i] = 0.0
    return active


def observe_envs(envs: list[EnvState]) -> tuple[np.ndarray, np.ndarray]:
    """Observe every active agent of every env with one window gather.

    Returns ``(obs, active)``. ``active`` is the (E, n) mask of active
    agents; ``obs`` is (K, 4, 2R+1, 2R+1) with one row per True entry of
    ``active``, in row-major order of the mask, and each row equals what
    observe() gives for that agent. The envs need one size and view
    radius; when stack_planes() has put their planes in one stack, no
    plane is copied.
    """
    stack, rows = shared_planes(envs)
    rad = envs[0].config.obs_radius
    width = 2 * rad + 1
    flags, picks, dists = [], [], []
    for env, row in zip(envs, rows):
        for ag in env.agents:
            flags.append(ag.active)
            if ag.active:
                picks += (row, *ag.pos, *ag.goal)
                dists.append(ag.dist_field.item(ag.pos))
    active = np.array(flags, dtype=bool).reshape(len(envs), -1)
    b, r, c, gr, gc = np.array(picks, dtype=np.intp).reshape(-1, 5).T
    k = np.arange(len(dists))
    windows = sliding_window_view(stack, (width, width), axis=(2, 3))
    obs = np.empty((len(dists), 4, width, width), dtype=np.float64)
    obs[:, :3] = windows[b, :, r, c]
    obs[k, 1, rad, rad] = 1.0 / np.array(dists, dtype=np.float64)
    np.greater(obs[:, 2], 0.0, out=obs[:, 2])
    dr, dc = gr - r, gc - c
    near = (np.abs(dr) <= rad) & (np.abs(dc) <= rad)
    obs[k[near], 2, dr[near] + rad, dc[near] + rad] = \
        stack[b[near], 2, gr[near] + rad, gc[near] + rad] > 1.0
    obs[:, 3] = 0.0
    obs[k, 3, np.clip(dr, -rad, rad) + rad, np.clip(dc, -rad, rad) + rad] = 1.0
    return obs, active
