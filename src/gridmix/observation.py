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
from numpy.lib.stride_tricks import as_strided

from .grid_world import EnvState


def obs_dim(obs_radius: int) -> int:
    """Flattened observation length for a given view radius."""
    width = 2 * obs_radius + 1
    return 4 * width * width


def observe(state: EnvState, out: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Observe every active agent of every row of ``state`` with one window
    gather, read straight from its arrays.

    Returns ``(obs, active)``. ``active`` is the (E, n) mask of active
    agents; ``obs`` is (K, 4, 2R+1, 2R+1) with one window per True entry of
    ``active``, in row-major order of the mask. Flattening a window
    row-major gives the channel blocks in declared order. ``out`` may
    supply a float64 array with at least K such rows; ``obs`` is then its
    leading K rows.
    """
    stack, active, rad = state.planes, state.active, state.obs_radius
    b, i = np.nonzero(active)
    cells = state.cells[b, i]
    # flat padded cell (r + R) * P + c + R back to grid (r, c)
    corner = rad * stack.shape[-1] + rad
    r, c = np.divmod(cells - corner, stack.shape[-1])
    gr, gc = np.divmod(state.goal_cells[b, i] - corner, stack.shape[-1])
    dists = state.dist[state.map_of[b], i, cells]
    width = 2 * rad + 1
    k = np.arange(len(dists))
    # windows[e, ch, r, c] is env e's channel ch window whose top-left is
    # padded cell (r, c), so centred on grid cell (r, c); sliding_window_view
    # gives the same view at several times the cost, which counts in the
    # training loop's small gathers
    n_envs, n_ch, pad, _ = stack.shape
    windows = as_strided(stack, (n_envs, n_ch, pad - 2 * rad, pad - 2 * rad, width, width),
                         stack.strides + stack.strides[2:], writeable=False)
    obs = np.empty((len(dists), 4, width, width)) if out is None else out[:len(dists)]
    obs[:, :3] = windows[b, :, r, c]
    obs[k, 1, rad, rad] = 1.0 / dists
    # the goal plane counts active agents' goals: drop the agent's own goal,
    # so that its cell stays marked only when another agent's goal is there
    dr, dc = gr - r, gc - c
    near = (np.abs(dr) <= rad) & (np.abs(dc) <= rad)
    obs[k[near], 2, dr[near] + rad, dc[near] + rad] -= 1.0
    np.greater(obs[:, 2], 0.0, out=obs[:, 2])
    obs[:, 3] = 0.0
    obs[k, 3, np.minimum(np.maximum(dr, -rad), rad) + rad,
        np.minimum(np.maximum(dc, -rad), rad) + rad] = 1.0
    return obs, active
