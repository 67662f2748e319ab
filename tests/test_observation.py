"""Egocentric observation encoding and goal projection."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmix.grid_world import Action, EnvConfig, EnvState, env_from_record, generate
from gridmix.observation import obs_dim, observe

from oracles import nearest_border_cells, project_goal, reference_window, stack_rows


def row_window(state, e, i):
    """reference_window of agent i in row e of ``state``."""
    return reference_window(state.record(e), state.obs_radius, state.positions(e),
                            state.active[e], i)


def env_from(size, blocked, agents, obs_radius, horizon=10):
    record = {"size": size, "blocked": blocked,
              "agents": [{"start": list(s), "goal": list(g)} for s, g in agents],
              "seed": 0}
    return env_from_record(record, obs_radius=obs_radius, horizon=horizon)


def window(env, i):
    """Agent i's row of observe(env) for a one-row env."""
    obs, active = observe(env)
    assert active[0, i]
    return obs[int(active[0, :i].sum())]


class TestProjectGoal:
    def test_in_window_identity(self):
        assert project_goal(3, -2, 5) == (3, -2)

    def test_one_axis_out(self):
        # border cell sharing the in-range column coordinate
        assert project_goal(7, 2, 5) == (5, 2)

    def test_both_axes_out_nearest_corner(self):
        assert project_goal(9, -8, 5) == (5, -5)

    @given(dr=st.integers(-20, 20), dc=st.integers(-20, 20), radius=st.integers(1, 6))
    def test_idempotent(self, dr, dc, radius):
        once = project_goal(dr, dc, radius)
        assert project_goal(*once, radius) == once

    @given(dr=st.integers(-13, 13), dc=st.integers(-13, 13))
    @settings(max_examples=60)
    def test_out_of_window_lands_on_nearest_border_cell(self, dr, dc):
        radius = 4
        if abs(dr) <= radius and abs(dc) <= radius:
            return
        projected = project_goal(dr, dc, radius)
        assert projected in nearest_border_cells(dr, dc, radius)


class TestObserve:
    def test_shape_and_flat_length(self):
        env = generate(EnvConfig(size=8, density=0.3, n_agents=2, obs_radius=5,
                                 horizon=16, goal_dist=5, seed=4))
        obs = window(env, 0)
        assert obs.shape == (4, 11, 11)
        assert obs.reshape(-1).shape == (484,)
        assert obs_dim(5) == 484

    def test_flat_ordering_row_major_channel_blocks(self):
        env = env_from(4, [[0, 3]], [((1, 1), (3, 3))], obs_radius=1)
        obs = window(env, 0)
        flat = obs.reshape(-1)
        width = 3
        for ch in range(4):
            block = flat[ch * width * width:(ch + 1) * width * width]
            assert np.array_equal(block.reshape(width, width), obs[ch])

    def test_out_of_grid_encoded_as_obstacle(self):
        # agent in the top-left corner: everything above and left is 1
        env = env_from(6, [], [((0, 0), (5, 5))], obs_radius=2)
        ch0 = window(env, 0)[0]
        assert (ch0[:2, :] == 1.0).all()
        assert (ch0[:, :2] == 1.0).all()
        assert ch0[2, 2] == 0.0  # own (free) cell

    def test_center_carries_inverse_goal_distance(self):
        env = env_from(6, [], [((2, 2), (2, 5))], obs_radius=2)
        obs = window(env, 0)
        assert obs[1, 2, 2] == pytest.approx(1.0 / 3.0)

    def test_center_value_one_when_adjacent(self):
        env = env_from(6, [], [((2, 2), (2, 3))], obs_radius=2)
        assert window(env, 0)[1, 2, 2] == 1.0

    def test_sees_other_agent_not_self(self):
        env = env_from(6, [], [((2, 2), (5, 5)), ((2, 4), (0, 0))], obs_radius=2)
        ch1 = window(env, 0)[1]
        assert ch1[2, 4] == 1.0          # the other agent
        assert 0.0 < ch1[2, 2] < 1.0     # center is 1/d, never a self marker
        assert ch1.sum() == ch1[2, 4] + ch1[2, 2]

    def test_other_goal_channel(self):
        env = env_from(6, [], [((2, 2), (5, 5)), ((4, 4), (2, 3))], obs_radius=2)
        obs = window(env, 0)
        assert obs[2, 2, 3] == 1.0  # other agent's goal, in window
        assert obs[2].sum() == 1.0
        # own goal out of window: not in channel 2, projected in channel 3
        assert obs[3, 4, 4] == 1.0  # clamped (+3,+3) -> (+2,+2)
        assert obs[3].sum() == 1.0

    def test_own_goal_inside_window_exact_cell(self):
        env = env_from(6, [], [((2, 2), (3, 3))], obs_radius=2)
        obs = window(env, 0)
        assert obs[3, 3, 3] == 1.0
        assert obs[3].sum() == 1.0

    def test_other_goals_not_projected(self):
        # the second agent's goal is far outside the first agent's window
        env = env_from(8, [], [((1, 1), (7, 7)), ((1, 3), (7, 0))], obs_radius=2)
        obs = window(env, 0)
        assert obs[2].sum() == 0.0

    def test_shared_goal_still_marked_for_other(self):
        env = env_from(6, [], [((2, 2), (2, 3)), ((4, 4), (2, 3))], obs_radius=2)
        obs = window(env, 0)
        # another active agent shares my goal cell: channel 2 keeps the mark
        assert obs[2, 2, 3] == 1.0

    def test_projection_may_overlap_obstacle_marks(self):
        # channels are independent: the projected goal cell may be a wall
        env = env_from(8, [[2, 4]], [((2, 2), (2, 7))], obs_radius=2)
        obs = window(env, 0)
        assert obs[0, 2, 4] == 1.0
        assert obs[3, 2, 4] == 1.0

    def test_finished_agents_invisible(self):
        env = env_from(6, [], [((2, 2), (5, 5)), ((2, 4), (2, 3))], obs_radius=2)
        env.step([[Action.STAY, Action.LEFT]])  # agent 1 reaches its goal
        obs = window(env, 0)
        assert obs[1, 2, 4] == 0.0  # no longer on the map
        assert obs[2].sum() == 0.0  # its goal marker is gone too

    def test_inactive_agent_has_no_row(self):
        env = env_from(6, [], [((2, 2), (2, 3))], obs_radius=2)
        env.step([[Action.RIGHT]])
        obs, active = observe(env)
        assert obs.shape == (0, 4, 5, 5)
        assert active.tolist() == [[False]]

    def test_value_ranges_and_binary_channels(self):
        env = generate(EnvConfig(size=8, density=0.3, n_agents=3, obs_radius=3,
                                 horizon=16, goal_dist=None, seed=8))
        rng = np.random.default_rng(0)
        while not env.episode_over:
            for i in range(3):
                if not env.active[0, i]:
                    continue
                data = window(env, i)
                assert (data >= 0.0).all() and (data <= 1.0).all()
                for ch in (0, 2, 3):
                    assert set(np.unique(data[ch])) <= {0.0, 1.0}
                assert data[3].sum() == 1.0
                assert data[0, 3, 3] == 0.0
            env.step(rng.integers(0, 5, size=(1, 3)))

    def test_out_parameter_reuses_storage(self):
        env = env_from(6, [], [((2, 2), (2, 3))], obs_radius=2)
        buf = np.zeros((3, 4, 5, 5))
        obs, _ = observe(env, out=buf)
        assert np.shares_memory(obs, buf) and obs.shape == (1, 4, 5, 5)
        assert np.array_equal(buf[0], row_window(env, 0, 0))

    def test_rows_skip_inactive_agents(self):
        env = env_from(6, [], [((2, 2), (5, 5)), ((2, 4), (2, 3)), ((4, 1), (0, 0))],
                       obs_radius=2)
        env.step([[Action.STAY, Action.LEFT, Action.STAY]])  # agent 1 reaches its goal
        obs, active = observe(env)
        assert active.tolist() == [[True, False, True]]
        assert active.dtype == bool
        assert len(obs) == 2
        for row, i in zip(obs, (0, 2)):
            assert np.array_equal(row, row_window(env, 0, i))


def random_record(rng, size, n_agents, obs_radius):
    """A random open-ish map record whose agents may share goal cells."""
    while True:
        cells = rng.permutation(size * size)
        n_blocked = int(rng.integers(0, size * size // 4))
        free = cells[n_blocked:]
        starts = rng.choice(free, size=n_agents, replace=False)
        goals = rng.choice(free, size=n_agents)
        if n_agents > 1 and rng.random() < 0.5:
            goals[1] = goals[0]
        if (starts == goals).any():
            continue
        record = {"size": size,
                  "blocked": [divmod(int(k), size) for k in cells[:n_blocked]],
                  "agents": [{"start": divmod(int(a), size), "goal": divmod(int(g), size)}
                             for a, g in zip(starts, goals)],
                  "seed": 0}
        try:
            env_from_record(record, obs_radius, horizon=1)
        except ValueError:  # a goal unreachable from its start
            continue
        return record


class TestObserveEnvs:
    @pytest.mark.parametrize("stacked", [True, False])
    def test_rows_equal_observe(self, stacked):
        # rows equal the oracle's windows with inactive agents, finished
        # episodes, goals outside the window and shared goal cells. Stacked:
        # one-row envs stepped apart, then loaded into the rows of a state
        # built from their records (stack_rows); else one state built from
        # the records, two rows per record, stepped together
        rng = np.random.default_rng(3 if stacked else 4)
        shared = outside = inactive = 0
        for _ in range(30):
            size, n = int(rng.integers(4, 13)), int(rng.integers(1, 5))
            radius = int(rng.integers(1, min(size, 4) + 1))
            horizon = int(rng.integers(4, 14))
            records = [random_record(rng, size, n, radius)
                       for _ in range(int(rng.integers(1, 6)))]
            if stacked:
                envs = [env_from_record(record, radius, horizon) for record in records]
                for env in envs:
                    for _ in range(int(rng.integers(0, horizon + 1))):
                        if env.episode_over:
                            break
                        env.step(rng.integers(0, 5, size=(1, n)))
                state = stack_rows(envs)
            else:
                state = EnvState(records, 2, radius, horizon)
                for _ in range(int(rng.integers(0, horizon + 1))):
                    if state.episode_over:
                        break
                    state.step(rng.integers(0, 5, size=state.active.shape))
            obs, active = observe(state)
            if stacked:
                assert active.tolist() == [env.active[0].tolist() for env in envs]
            rows = range(len(state.active))
            expected = [row_window(state, e, i) for e in rows
                        for i in range(n) if state.active[e, i]]
            assert obs.shape == (len(expected), 4, 2 * radius + 1, 2 * radius + 1)
            assert all(np.array_equal(row, ref) for row, ref in zip(obs, expected))
            inactive += int((~active).sum())
            for e in rows:
                live = np.flatnonzero(active[e])
                goals = [tuple(state.record(e)["agents"][i]["goal"]) for i in live]
                shared += len(goals) > len(set(goals))
                outside += sum(max(abs(goal[0] - cell[0]), abs(goal[1] - cell[1])) > radius
                               for goal, cell in zip(goals, state.positions(e)[live]))
        assert shared and outside and inactive
