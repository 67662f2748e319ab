"""Ring storage, bit-packing and uniform sampling."""
import numpy as np
import pytest

from gridmix.grid_world import Action, EnvConfig, env_from_record, generate
from gridmix.harness import RunConfig
from gridmix.observation import obs_dim, observe
from gridmix.replay_buffer import Buffer, JointTransition, Underfilled


def bits(tag, width):
    """``tag``'s binary digits, lowest first, as ``width`` float entries."""
    return ((int(tag) >> np.arange(width)) & 1).astype(np.float64)


def transition(tag, n_agents=2, obs_dim=6, state_dim=4):
    """A transition whose entries encode ``tag``; ``rewards`` holds it verbatim."""
    return JointTransition(
        obs=np.tile(bits(tag, obs_dim), (n_agents, 1)),
        actions=np.full(n_agents, tag % 5),
        rewards=np.full(n_agents, float(tag)),
        next_obs=np.tile(bits(tag + 1, obs_dim), (n_agents, 1)),
        state=bits(tag, state_dim),
        next_state=bits(tag + 1, state_dim),
        done=np.array([tag % 2 == 0] * n_agents),
        active=np.ones(n_agents, dtype=bool),
        terminal=tag % 3 == 0,
    )


def block(tags, **kwargs):
    """The transitions of ``tags`` stacked along a leading block axis."""
    singles = [transition(tag, **kwargs) for tag in tags]
    return JointTransition(**{name: np.stack([np.asarray(getattr(t, name)) for t in singles])
                              for name in JointTransition.__dataclass_fields__})


def make_buffer(capacity=3, seed=0):
    return Buffer(capacity, n_agents=2, obs_dim=6, state_dim=4, seed=seed)


def assert_matches_tag(batch, i):
    """Every field of sampled entry ``i`` belongs to the transition of its reward tag."""
    expected = transition(int(batch.rewards[i, 0]))
    for name in ("obs", "actions", "rewards", "next_obs", "state", "next_state",
                 "done", "active", "terminal"):
        assert np.array_equal(getattr(batch, name)[i], getattr(expected, name)), name


def ring(buf):
    return {k: v.copy() for k, v in vars(buf).items() if isinstance(v, np.ndarray)}


class TestPush:
    def test_first_push(self):
        buf = make_buffer()
        buf.push(transition(1))
        assert buf.size == 1
        assert buf.cursor == 1

    def test_ring_overwrite(self):
        buf = make_buffer(capacity=3)
        for tag in range(4):
            buf.push(transition(tag))
        assert buf.size == 3
        # entry 0 was overwritten by tag 3; tags 1 and 2 survive
        stored = sorted(buf._rewards[:, 0].tolist())
        assert stored == [1.0, 2.0, 3.0]

    def test_cursor_wraps_to_zero(self):
        buf = make_buffer(capacity=3)
        for tag in range(3):
            buf.push(transition(tag))
        assert buf.cursor == 0
        assert buf.size == 3

    def test_overwrite_is_atomic(self):
        # every field of a slot belongs to the newest transition written there
        buf = make_buffer(capacity=2)
        for tag in range(5):
            buf.push(transition(tag))
        # slot 0 was last written by tag 4, slot 1 by tag 3
        tags = set()
        for _ in range(32):
            batch = buf.sample(2)
            tags |= set(batch.rewards[:, 0].tolist())
            for i in range(len(batch)):
                assert_matches_tag(batch, i)
        assert tags == {3.0, 4.0}


class TestPacking:
    def test_env_observations_round_trip(self):
        # observations and states of real episodes (a finished agent's zeroed
        # row, 1/d centres) sample to exactly what a float32 ring gives
        radius = 2
        envs = [generate(EnvConfig(size=8, density=0.3, n_agents=3, obs_radius=radius,
                                   horizon=12, seed=s)) for s in range(4)]
        record = {"size": 8, "blocked": [], "seed": 0, "agents": [
            {"start": [2, 2], "goal": [5, 5]}, {"start": [2, 4], "goal": [2, 3]},
            {"start": [4, 1], "goal": [0, 0]}]}
        envs.append(env_from_record(record, obs_radius=radius, horizon=10))
        od = obs_dim(radius)
        rng = np.random.default_rng(0)
        obs_ref, state_ref = [], []
        for env in envs:
            for _ in range(3):
                obs, active = observe(env)
                rows = np.zeros((3, od), dtype=np.float32)  # zero rows when inactive
                rows[active[0]] = obs.reshape(len(obs), od)
                obs_ref.append(rows)
                state_ref.append(env.global_state()[0].reshape(-1).astype(np.float32))
                moves = rng.integers(0, 5, size=3)
                if env is envs[-1]:
                    moves = [Action.STAY, Action.LEFT, Action.STAY]  # agent 1 finishes
                if env.step(np.reshape(moves, (1, 3))).episode_over[0]:
                    break
        obs_ref, state_ref = np.array(obs_ref), np.array(state_ref)
        count, sd = len(obs_ref), state_ref.shape[1]
        buf = Buffer(count, 3, od, sd, seed=5)
        assert (obs_ref == 0).all(axis=-1).any()          # a zeroed inactive row
        centres = obs_ref[:, :, buf.centre]
        assert ((centres > 0) & (centres < 1)).any()      # a 1/d centre below 1
        nxt = np.roll(np.arange(count), -1)
        buf.push(JointTransition(
            obs=obs_ref, actions=np.zeros((count, 3)),
            rewards=np.repeat(np.arange(count, dtype=float)[:, None], 3, axis=1),
            next_obs=obs_ref[nxt], state=state_ref, next_state=state_ref[nxt],
            done=np.zeros((count, 3), bool), active=np.ones((count, 3), bool),
            terminal=np.zeros(count, bool)))
        batch = buf.sample(count)
        tags = batch.rewards[:, 0].astype(int)
        for got, want in ((batch.obs, obs_ref[tags]), (batch.next_obs, obs_ref[nxt][tags]),
                          (batch.state, state_ref[tags]),
                          (batch.next_state, state_ref[nxt][tags])):
            assert got.dtype == np.float64
            assert np.array_equal(got, want.astype(np.float64))

    def test_non_binary_observation_rejected(self):
        buf = make_buffer()
        bad = transition(1)
        bad.obs[1, 0] = 0.5
        with pytest.raises(ValueError, match="0.5"):
            buf.push(bad)
        assert buf.size == 0 and buf.cursor == 0

    def test_centre_holds_any_value(self):
        buf = make_buffer()
        t = transition(1)
        t.obs[:, buf.centre] = 1.0 / 3.0
        buf.push(t)
        assert buf.sample(1).obs[0, 0, buf.centre] == float(np.float32(1.0 / 3.0))

    def test_non_binary_state_rejected(self):
        buf = make_buffer()
        bad = transition(1)
        bad.next_state[2] = 2.0
        with pytest.raises(ValueError):
            buf.push(bad)
        assert buf.size == 0

    def test_wrong_width_rejected(self):
        # a 4-wide observation packs to one byte, which would broadcast
        buf = make_buffer()
        with pytest.raises(ValueError, match="4 wide"):
            buf.push(transition(1, obs_dim=4))
        assert buf.size == 0

    def test_block_equals_single_pushes(self):
        # a block that wraps around the ring lands where k single pushes do
        singles, blocked = make_buffer(capacity=5, seed=9), make_buffer(capacity=5, seed=9)
        for tag in range(3):
            singles.push(transition(tag))
            blocked.push(transition(tag))
        for tag in range(3, 7):
            singles.push(transition(tag))
        blocked.push(block(range(3, 7)))
        assert (blocked.size, blocked.cursor) == (singles.size, singles.cursor) == (5, 2)
        for name, values in ring(singles).items():
            assert np.array_equal(ring(blocked)[name], values), name
        a, b = singles.sample(5), blocked.sample(5)
        for name in JointTransition.__dataclass_fields__:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_block_longer_than_capacity_keeps_last_entries(self):
        buf = make_buffer(capacity=3)
        buf.push(transition(0))
        buf.push(block(range(10, 17)))
        assert (buf.size, buf.cursor) == (3, (1 + 7) % 3)
        oldest_first = [(buf.cursor + j) % 3 for j in range(3)]
        assert buf._rewards[oldest_first, 0].tolist() == [14.0, 15.0, 16.0]
        singles = make_buffer(capacity=3)
        for tag in (0, *range(10, 17)):
            singles.push(transition(tag))
        for name, values in ring(singles).items():
            assert np.array_equal(ring(buf)[name], values), name

    @pytest.mark.parametrize("size,n_agents,limit_mb", [(8, 2, 50), (32, 16, 400)])
    def test_ring_size_at_default_capacity(self, size, n_agents, limit_mb):
        # RunConfig defaults, and the README's 32x32 16-agent row
        config = RunConfig(size=size, n_agents=n_agents)
        buf = Buffer(config.buffer_capacity, n_agents, obs_dim(config.obs_radius),
                     3 * size * size)
        assert config.buffer_capacity == 100_000
        assert buf.nbytes < limit_mb * 1e6


class TestSample:
    def test_single_entry(self):
        buf = make_buffer()
        buf.push(transition(7))
        batch = buf.sample(1)
        assert len(batch) == 1
        assert batch.rewards[0, 0] == 7.0
        assert batch.obs.dtype == np.float64

    def test_underfilled(self):
        buf = make_buffer()
        buf.push(transition(0))
        with pytest.raises(Underfilled):
            buf.sample(2)

    def test_deterministic_given_seed(self):
        batches = []
        for _ in range(2):
            buf = make_buffer(capacity=10, seed=42)
            for tag in range(10):
                buf.push(transition(tag))
            batch = buf.sample(6)
            batches.append(batch.rewards[:, 0].tolist())
        assert batches[0] == batches[1]

    def test_shapes_and_dtypes(self):
        buf = make_buffer(capacity=8)
        for tag in range(8):
            buf.push(transition(tag))
        batch = buf.sample(5)
        assert batch.obs.shape == (5, 2, 6)
        assert batch.next_obs.shape == (5, 2, 6)
        assert batch.state.shape == (5, 4)
        assert batch.actions.shape == (5, 2)
        assert batch.actions.dtype == np.int64
        assert batch.rewards.dtype == np.float64
        assert batch.done.dtype == np.bool_
        assert batch.terminal.shape == (5,)

    def test_near_uniform_frequencies(self):
        # repeated draws from a 4-entry buffer: each entry within 5 sigma of 1/4
        buf = make_buffer(capacity=4, seed=3)
        for tag in range(4):
            buf.push(transition(tag))
        draws = 40_000
        counts = np.zeros(4)
        for _ in range(draws // 4):
            batch = buf.sample(4)
            counts += np.bincount(batch.rewards[:, 0].astype(int), minlength=4)
        p = 0.25
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.abs(counts - draws * p).max() < 5 * sigma

    def test_only_stored_entries_sampled(self):
        buf = make_buffer(capacity=10)
        for tag in (1, 2, 3):
            buf.push(transition(tag))
        batch = buf.sample(3)
        assert set(batch.rewards[:, 0].tolist()) <= {1.0, 2.0, 3.0}
