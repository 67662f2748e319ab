"""Fixed-capacity uniform-sampling store of joint transitions.

One entry holds a full joint step for all agents: observations, action
codes, rewards, next observations, the flattened global state before and
after, done flags, active-at-step-start flags, and a terminal marker (all
agents finished or the episode was truncated).

Storage is preallocated ring arrays; once full, the oldest entry is
overwritten. Observations and states are binary planes, so the ring keeps
them bit-packed along their last axis (``np.packbits``, 8 entries per
byte). The one exception is channel 1's centre, which holds the agent's
inverse goal distance 1/d: it is kept beside the bits as one float32 per
agent. Sampling unpacks to float64 and writes the centre back, so every
sampled value is ``float64(float32(x))``. ``push`` raises ``ValueError``
on any observation entry (other than the centre) or state entry outside
{0, 1} rather than round it. Everything else keeps its native width.

``push`` takes a block of k entries (every field with a leading axis of
length k) or a single entry (no leading axis); a block lands in the same
slots, in the same order, as k single pushes. ``sample`` unpacks into
float64 arrays the buffer owns and reuses on its next call. Single writer,
single sampler: the training loop alternates push and sample phases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Underfilled(RuntimeError):
    """sample() asked for more entries than the buffer currently holds."""


@dataclass
class JointTransition:
    # shapes of one entry; a block of k entries adds a leading axis of k
    obs: np.ndarray          # (n_agents, obs_dim) {0, 1} but channel 1's centre
    actions: np.ndarray      # (n_agents,)
    rewards: np.ndarray      # (n_agents,) stored verbatim as float64
    next_obs: np.ndarray     # (n_agents, obs_dim) as obs
    state: np.ndarray        # (state_dim,) {0, 1}
    next_state: np.ndarray   # (state_dim,) {0, 1}
    done: np.ndarray         # (n_agents,) reached goal this step
    active: np.ndarray       # (n_agents,) active at step start
    terminal: bool           # episode ended with this step; (k,) in a block


@dataclass
class Batch:
    obs: np.ndarray          # (b, n_agents, obs_dim) float64, unpacked from bits
    actions: np.ndarray      # (b, n_agents) int64
    rewards: np.ndarray      # (b, n_agents) float64
    next_obs: np.ndarray     # as obs
    state: np.ndarray        # (b, state_dim) float64, unpacked from bits
    next_state: np.ndarray
    done: np.ndarray         # (b, n_agents) bool
    active: np.ndarray       # (b, n_agents) bool
    terminal: np.ndarray     # (b,) bool

    def __len__(self) -> int:
        return self.obs.shape[0]


def _pack(x: np.ndarray, width: int, free: int | None = None) -> np.ndarray:
    """Bit-pack the last axis of a {0, 1} array; index ``free`` may hold any value."""
    if x.shape[-1] != width:
        raise ValueError(f"replay entries are {x.shape[-1]} wide, the ring holds {width}")
    bits = x != 0
    off = x != bits
    if free is not None:
        off[..., free] = False
    if off.any():
        raise ValueError(f"replay entry {float(x[off][0])} is not 0 or 1, cannot bit-pack it")
    return np.packbits(bits, axis=-1)


def _unpack(packed: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = np.unpackbits(packed, axis=-1, count=out.shape[-1])
    return out


class Buffer:
    """Ring buffer over joint transitions with uniform with-replacement sampling."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int, state_dim: int,
                 seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.n_agents = n_agents
        self.obs_dim = obs_dim
        self.state_dim = state_dim
        # flat index of channel 1's centre: with q = (2R+1)^2 cells per
        # channel it is q + (q - 1) / 2, which equals q + q // 2 for odd q
        q = obs_dim // 4
        self.centre = q + q // 2
        self.size = 0
        self.cursor = 0
        self.rng = np.random.default_rng(seed)
        obs_bytes, state_bytes = -(-obs_dim // 8), -(-state_dim // 8)
        self._obs = np.zeros((capacity, n_agents, obs_bytes), dtype=np.uint8)
        self._next_obs = np.zeros((capacity, n_agents, obs_bytes), dtype=np.uint8)
        self._obs_centre = np.zeros((capacity, n_agents), dtype=np.float32)
        self._next_obs_centre = np.zeros((capacity, n_agents), dtype=np.float32)
        self._state = np.zeros((capacity, state_bytes), dtype=np.uint8)
        self._next_state = np.zeros((capacity, state_bytes), dtype=np.uint8)
        self._actions = np.zeros((capacity, n_agents), dtype=np.int64)
        self._rewards = np.zeros((capacity, n_agents), dtype=np.float64)
        self._done = np.zeros((capacity, n_agents), dtype=bool)
        self._active = np.zeros((capacity, n_agents), dtype=bool)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._unpacked: tuple[np.ndarray, ...] | None = None  # sample()'s outputs

    @property
    def nbytes(self) -> int:
        """Bytes of the ring arrays, which are allocated for the full capacity."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))

    def push(self, block: JointTransition) -> None:
        """Store k entries at cursor .. cursor+k-1 (mod capacity), oldest first.

        Overwrites FIFO when full; of a block longer than the capacity only
        the last ``capacity`` entries survive. Raises ``ValueError``, leaving
        the ring untouched, if an observation or state entry is not binary.
        """
        if np.ndim(block.terminal) == 0:  # one entry: give it the block axis
            block = JointTransition(*(np.asarray(v)[None] for v in vars(block).values()))
        centre = self.centre
        rows = (
            (self._obs, _pack(block.obs, self.obs_dim, centre)),
            (self._next_obs, _pack(block.next_obs, self.obs_dim, centre)),
            (self._obs_centre, block.obs[..., centre]),
            (self._next_obs_centre, block.next_obs[..., centre]),
            (self._state, _pack(block.state, self.state_dim)),
            (self._next_state, _pack(block.next_state, self.state_dim)),
            (self._actions, block.actions),
            (self._rewards, block.rewards),
            (self._done, block.done),
            (self._active, block.active),
            (self._terminal, block.terminal),
        )
        # entry j goes to slot (cursor + j) % capacity; keep the last
        # `keep` entries, `wrap` of which continue from slot 0
        k = len(block.terminal)
        keep = min(k, self.capacity)
        first = (self.cursor + k - keep) % self.capacity
        wrap = max(first + keep - self.capacity, 0)
        for ring, values in rows:
            ring[first:first + keep - wrap] = values[k - keep:k - wrap]
            if wrap:
                ring[:wrap] = values[k - wrap:]
        self.cursor = (self.cursor + k) % self.capacity
        self.size = min(self.size + k, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        """Uniform with replacement; deterministic given the buffer's rng state.

        The batch's float64 ``obs``, ``next_obs``, ``state`` and ``next_state``
        arrays are reused by the next call with the same batch size; copy them
        to keep them. Fresh arrays of that size would come back from the
        allocator as untouched pages on every learner update.
        """
        if self.size < batch_size:
            raise Underfilled(f"buffer holds {self.size} < batch {batch_size}")
        idx = self.rng.integers(0, self.size, size=batch_size)
        if self._unpacked is None or len(self._unpacked[0]) != batch_size:
            self._unpacked = tuple(np.empty((batch_size,) + shape) for shape in (
                (self.n_agents, self.obs_dim), (self.n_agents, self.obs_dim),
                (self.state_dim,), (self.state_dim,)))
        obs, next_obs, state, next_state = self._unpacked
        _unpack(self._obs[idx], obs)[..., self.centre] = self._obs_centre[idx]
        _unpack(self._next_obs[idx], next_obs)[..., self.centre] = self._next_obs_centre[idx]
        return Batch(
            obs=obs,
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_obs=next_obs,
            state=_unpack(self._state[idx], state),
            next_state=_unpack(self._next_state[idx], next_state),
            done=self._done[idx],
            active=self._active[idx],
            terminal=self._terminal[idx],
        )
