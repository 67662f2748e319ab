"""Environment generation, BFS fields, and step dynamics of one-row EnvStates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmix.grid_world import (Action, EnvConfig, GenerationFailed, InvalidActionCount,
                                bfs_distance_field, env_from_record, generate,
                                generate_record, map_hash)

from oracles import BruteForceSim, flood_fill, stack_rows


def make_env(size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16,
             goal_dist=5, seed=0):
    return generate(EnvConfig(size=size, density=density, n_agents=n_agents,
                              obs_radius=obs_radius, horizon=horizon,
                              goal_dist=goal_dist, seed=seed))


def pos(env, i):
    """Agent i's (row, col) in a one-row env."""
    return tuple(int(v) for v in env.positions(0)[i])


def blocked_of(env):
    record = env.record(0)
    blocked = np.zeros((record["size"], record["size"]), dtype=bool)
    for r, c in record["blocked"]:
        blocked[r, c] = True
    return blocked


def field_of(env, i):
    """Agent i's BFS distance field, (S, S), from the env's map record."""
    return bfs_distance_field(blocked_of(env), tuple(env.record(0)["agents"][i]["goal"]))


def start_distance(env, i):
    """flood_fill distance from agent i's start to its goal; inf when unreachable."""
    record = env.record(0)
    agent = record["agents"][i]
    field = flood_fill(record["size"], {tuple(c) for c in record["blocked"]},
                       tuple(agent["goal"]))
    return field.get(tuple(agent["start"]), np.inf)


class TestEnvConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(size=1),
        dict(density=1.0),
        dict(density=-0.1),
        dict(n_agents=0),
        dict(obs_radius=0),
        dict(obs_radius=9),
        dict(horizon=0),
        dict(goal_dist=0),
        dict(goal_dist=65),
        dict(seed=-1),
        dict(seed=2**64),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16)
        base.update(kwargs)
        with pytest.raises(ValueError):
            EnvConfig(**base)


class TestBfsDistanceField:
    def test_empty_grid_equals_manhattan(self):
        field = bfs_distance_field(np.zeros((3, 3), dtype=bool), (1, 1))
        for r in range(3):
            for c in range(3):
                assert field[r, c] == abs(r - 1) + abs(c - 1)

    def test_goal_cell_is_zero(self):
        assert bfs_distance_field(np.zeros((5, 5), dtype=bool), (4, 2))[4, 2] == 0.0

    def test_separated_component_is_unreachable(self):
        # full middle column wall: the right side cannot reach a left-side goal
        blocked = np.zeros((3, 3), dtype=bool)
        blocked[:, 1] = True
        field = bfs_distance_field(blocked, (1, 0))
        assert np.isinf(field[:, 2]).all()
        assert np.isinf(field[:, 1]).all()
        assert field[0, 0] == 1.0 and field[2, 0] == 1.0

    def test_blocked_goal_rejected(self):
        blocked = np.zeros((3, 3), dtype=bool)
        blocked[1, 1] = True
        with pytest.raises(ValueError):
            bfs_distance_field(blocked, (1, 1))


class TestGenerate:
    def test_tiny_grid_adjacent_goal(self):
        env = make_env(size=2, density=0.0, n_agents=1, obs_radius=1,
                       horizon=4, goal_dist=1, seed=11)
        goal = env.record(0)["agents"][0]["goal"]
        assert start_distance(env, 0) == 1.0
        assert abs(pos(env, 0)[0] - goal[0]) + abs(pos(env, 0)[1] - goal[1]) == 1

    def test_exact_obstacle_count(self):
        env = make_env(seed=5)
        assert int(blocked_of(env).sum()) == math.floor(0.3 * 64) == 19

    def test_reference_scale_distances(self):
        env = generate(EnvConfig(size=15, density=0.3, n_agents=2, obs_radius=5,
                                 horizon=30, goal_dist=8, seed=21))
        for i in range(2):
            assert start_distance(env, i) == 8.0
        assert int(blocked_of(env).sum()) == math.floor(0.3 * 225)

    def test_starts_distinct_and_free(self):
        env = make_env(n_agents=4, goal_dist=None, seed=9)
        positions = [pos(env, i) for i in range(4)]
        assert len(set(positions)) == 4
        blocked = blocked_of(env)
        for i, agent in enumerate(env.record(0)["agents"]):
            assert not blocked[positions[i]]
            assert not blocked[tuple(agent["goal"])]
            assert np.isfinite(start_distance(env, i))
            assert start_distance(env, i) >= 1.0

    def test_deterministic(self):
        a = make_env(seed=77)
        b = make_env(seed=77)
        assert a.record(0) == b.record(0)
        assert np.array_equal(a.planes, b.planes)
        assert np.array_equal(a.dist, b.dist)

    def test_overconstrained_config_fails(self):
        # an empty 2x2 grid has no pair of cells at BFS distance 3
        with pytest.raises(GenerationFailed):
            generate(EnvConfig(size=2, density=0.0, n_agents=1, obs_radius=1,
                               horizon=4, goal_dist=3, seed=0))

    @pytest.mark.parametrize("seed", range(50))
    def test_row_is_its_record(self, seed):
        # the one-row state of generate() plays the record generate_record()
        # draws, with each agent's field the BFS field of its goal
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 17))
        config = EnvConfig(size=size, density=float(rng.choice([0.0, 0.1, 0.2, 0.3])),
                           n_agents=int(rng.integers(1, 7)),
                           obs_radius=int(rng.integers(1, size + 1)), horizon=20,
                           goal_dist=None if seed % 2 else int(rng.integers(1, size // 2 + 1)),
                           seed=int(rng.integers(2**63)))
        record = generate_record(config)
        env = generate(config)
        assert env.record(0) == record
        blocked = np.zeros((size, size), dtype=bool)
        for r, c in record["blocked"]:
            blocked[r, c] = True
        rad = config.obs_radius
        pad = size + 2 * rad
        fields = env.dist[0].reshape(-1, pad, pad)
        assert len(fields) == len(record["agents"]) == config.n_agents
        for field, agent in zip(fields, record["agents"]):
            assert np.array_equal(field[rad:rad + size, rad:rad + size],
                                  bfs_distance_field(blocked, tuple(agent["goal"])))
            assert np.isinf(field[:rad]).all() and np.isinf(field[:, -rad:]).all()

    @given(seed=st.integers(0, 2**32), goal_dist=st.sampled_from([None, 3, 5, 7]))
    @settings(max_examples=25, deadline=None)
    def test_goal_distance_honored(self, seed, goal_dist):
        env = make_env(goal_dist=goal_dist, seed=seed)
        for i in range(2):
            d = start_distance(env, i)
            if goal_dist is None:
                assert np.isfinite(d) and d >= 1.0
            else:
                assert d == goal_dist


class TestStep:
    def test_move_toward_goal(self):
        env = make_env(size=5, density=0.0, n_agents=1, obs_radius=2,
                       horizon=10, goal_dist=3, seed=1)
        r, c = pos(env, 0)
        field = field_of(env, 0)
        for code, (dr, dc) in zip((1, 2, 3, 4), ((-1, 0), (1, 0), (0, -1), (0, 1))):
            nr, nc = r + dr, c + dc
            if 0 <= nr < 5 and 0 <= nc < 5 and field[nr, nc] == field[r, c] - 1:
                out = env.step([[code]])
                assert out.rewards[0, 0] == 0.5
                assert out.moved[0, 0]
                return
        pytest.fail("no improving move found on an empty grid")

    def test_stay_penalized(self):
        env = make_env(size=5, density=0.0, n_agents=1, obs_radius=2,
                       horizon=10, goal_dist=3, seed=1)
        before = pos(env, 0)
        out = env.step([[Action.STAY]])
        assert out.rewards[0, 0] == -0.5
        assert pos(env, 0) == before
        assert not out.moved[0, 0]

    def test_move_away_penalized(self):
        env = make_env(size=5, density=0.0, n_agents=1, obs_radius=2,
                       horizon=10, goal_dist=2, seed=3)
        r, c = pos(env, 0)
        field = field_of(env, 0)
        for code, (dr, dc) in zip((1, 2, 3, 4), ((-1, 0), (1, 0), (0, -1), (0, 1))):
            nr, nc = r + dr, c + dc
            if 0 <= nr < 5 and 0 <= nc < 5 and field[nr, nc] == field[r, c] + 1:
                out = env.step([[code]])
                assert out.rewards[0, 0] == -1.0
                return
        pytest.fail("no worsening move found")

    def test_blocked_move_is_a_stay(self):
        record = {
            "size": 3,
            "blocked": [[0, 1]],
            "agents": [{"start": [0, 0], "goal": [2, 0]}],
            "seed": 0,
        }
        env = env_from_record(record, obs_radius=1, horizon=5)
        out = env.step([[Action.RIGHT]])  # into the obstacle
        assert out.rewards[0, 0] == -0.5
        assert pos(env, 0) == (0, 0)

    def test_offgrid_move_is_a_stay(self):
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [2, 2]}], "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=5)
        out = env.step([[Action.UP]])
        assert out.rewards[0, 0] == -0.5
        assert pos(env, 0) == (0, 0)

    def test_collision_blocks_second_agent(self):
        # agent 1 tries to enter agent 0's cell while agent 0 stays
        record = {"size": 4, "blocked": [],
                  "agents": [{"start": [1, 1], "goal": [3, 3]},
                             {"start": [1, 2], "goal": [1, 0]}],
                  "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=8)
        out = env.step([[Action.STAY, Action.LEFT]])
        assert pos(env, 1) == (1, 2)
        assert out.rewards[0, 1] == -0.5

    def test_swap_fails(self):
        record = {"size": 4, "blocked": [],
                  "agents": [{"start": [1, 1], "goal": [1, 3]},
                             {"start": [1, 2], "goal": [1, 0]}],
                  "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=8)
        out = env.step([[Action.RIGHT, Action.LEFT]])
        # agent 0 cannot enter the still-occupied cell; agent 1 then cannot
        # enter agent 0's cell either
        assert pos(env, 0) == (1, 1)
        assert pos(env, 1) == (1, 2)
        assert out.rewards[0, 0] == -0.5 and out.rewards[0, 1] == -0.5

    def test_lower_index_vacates_for_higher(self):
        # agent 0 moves right, agent 1 takes its old cell in the same step
        record = {"size": 4, "blocked": [],
                  "agents": [{"start": [1, 1], "goal": [1, 3]},
                             {"start": [1, 0], "goal": [1, 2]}],
                  "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=8)
        out = env.step([[Action.RIGHT, Action.RIGHT]])
        assert pos(env, 0) == (1, 2)
        assert pos(env, 1) == (1, 1)
        assert out.moved.all()

    def test_goal_entry_removes_agent(self):
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [0, 1]},
                             {"start": [2, 2], "goal": [2, 0]}],
                  "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=8)
        out = env.step([[Action.RIGHT, Action.LEFT]])
        assert out.done[0, 0] and not out.done[0, 1]
        assert not env.active[0, 0]
        assert out.rewards[0, 0] == 0.5
        # the vacated goal cell is free for others now
        out2 = env.step([[Action.STAY, Action.LEFT]])
        assert out2.rewards[0, 0] == 0.0  # inactive agents earn nothing
        assert pos(env, 1) == (2, 0)
        assert out2.episode_over[0]  # everyone finished

    def test_same_step_goal_vacating(self):
        # agent 0 finishes on the cell agent 1 wants: removal is immediate,
        # so agent 1 passes through in the same joint step
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [0, 1]},
                             {"start": [0, 2], "goal": [0, 0]}],
                  "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=8)
        out = env.step([[Action.RIGHT, Action.LEFT]])
        assert out.done[0, 0]
        assert pos(env, 1) == (0, 1)

    def test_truncation_deactivates_without_done(self):
        record = {"size": 5, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [4, 4]}], "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=2)
        env.step([[Action.STAY]])
        out = env.step([[Action.STAY]])
        assert out.episode_over[0]
        assert not out.done[0, 0]
        assert not env.active[0, 0]

    def test_wrong_action_count(self):
        env = make_env(seed=2)
        with pytest.raises(InvalidActionCount):
            env.step([[Action.STAY]])

    def test_step_after_episode_over_raises(self):
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [2, 2]}], "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=1)
        env.step([[Action.STAY]])
        with pytest.raises(RuntimeError):
            env.step([[Action.STAY]])

    def test_t_increments(self):
        env = make_env(seed=2)
        assert env.t[0] == 0
        env.step([[Action.STAY, Action.STAY]])
        assert env.t[0] == 1


def run_episode_pair(seed, size=8, density=0.3, n_agents=2, horizon=16):
    """Step the package env and the brute-force simulator in lockstep."""
    env = make_env(size=size, density=density, n_agents=n_agents,
                   obs_radius=5, horizon=horizon, goal_dist=None, seed=seed)
    sim = BruteForceSim(env.record(0), horizon)
    rng = np.random.default_rng(seed + 1)
    while not env.episode_over:
        actions = rng.integers(0, 5, size=n_agents)
        out = env.step(actions[None])
        ref = sim.step(actions)
        assert list(out.rewards[0]) == ref["rewards"]
        assert list(out.done[0]) == ref["done"]
        assert list(out.moved[0]) == ref["moved"]
        assert out.episode_over[0] == ref["episode_over"]
        for i, ref_ag in enumerate(sim.agents):
            assert pos(env, i) == ref_ag["pos"]
            assert env.active[0, i] == ref_ag["active"]


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        run_episode_pair(seed)


class TestProperties:
    @given(seed=st.integers(0, 2**31), n_agents=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_and_reward_invariants(self, seed, n_agents):
        env = make_env(size=6, density=0.2, n_agents=n_agents, obs_radius=3,
                       horizon=12, goal_dist=None, seed=seed)
        rng = np.random.default_rng(seed)
        blocked = blocked_of(env)
        while not env.episode_over:
            active_before = env.active[0].tolist()
            out = env.step(rng.integers(0, 5, size=(1, n_agents)))
            cells = [pos(env, i) for i in range(n_agents) if env.active[0, i]]
            assert len(cells) == len(set(cells))
            for cell in cells:
                assert not blocked[cell]
            for i, was_active in enumerate(active_before):
                if was_active:
                    assert out.rewards[0, i] in (0.5, -0.5, -1.0)
                else:
                    assert out.rewards[0, i] == 0.0

    def test_step_determinism(self):
        rng = np.random.default_rng(123)
        actions = [rng.integers(0, 5, size=2) for _ in range(16)]
        histories = []
        for _ in range(2):
            env = make_env(seed=55)
            hist = []
            for acts in actions:
                if env.episode_over:
                    break
                out = env.step(acts[None])
                hist.append((tuple(out.rewards[0]), tuple(out.done[0]),
                             tuple(pos(env, i) for i in range(2))))
            histories.append(hist)
        assert histories[0] == histories[1]


class TestGlobalState:
    def test_channel_contents(self):
        env = make_env(seed=5)
        assert env.global_state().shape == (1, 3, 8, 8)
        g = env.global_state()[0]
        assert g.reshape(-1).shape == (192,)
        assert np.array_equal(g[0], blocked_of(env).astype(float))
        assert g[1].sum() == 2.0
        for i, agent in enumerate(env.record(0)["agents"]):
            assert g[1][pos(env, i)] == 1.0
            assert g[2][tuple(agent["goal"])] == 1.0

    def test_empty_after_all_finish(self):
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [0, 1]}], "seed": 0}
        env = env_from_record(record, obs_radius=1, horizon=5)
        env.step([[Action.RIGHT]])
        g = env.global_state()[0]
        assert g[1].sum() == 0.0 and g[2].sum() == 0.0

    def test_rows_are_each_rows_state(self):
        # one slice of a stacked state, with rows at different clocks, into
        # a preallocated array
        envs = [make_env(seed=s, goal_dist=None) for s in range(5)]
        rng = np.random.default_rng(1)
        for k, env in enumerate(envs):
            for _ in range(k):
                if not env.episode_over:
                    env.step(rng.integers(0, 5, size=(1, 2)))
        state = stack_rows(envs)
        out = np.full((5, 3, 8, 8), 7.0)
        assert state.global_state(out=out) is out
        for e, env in enumerate(envs):
            assert np.array_equal(out[e], env.global_state()[0])


class TestMapRecords:
    def test_round_trip(self):
        env = make_env(seed=31)
        record = env.record(0)
        clone = env_from_record(record, obs_radius=5, horizon=16)
        assert clone.record(0) == record
        for name in ("planes", "cells", "goal_cells", "active", "t", "dist"):
            assert np.array_equal(getattr(clone, name), getattr(env, name)), name

    def test_hash_ignores_seed_only(self):
        env = make_env(seed=31)
        record = env.record(0)
        reseeded = dict(record, seed=999)
        assert map_hash(record) == map_hash(reseeded)
        moved = dict(record, agents=[{"start": a["goal"], "goal": a["start"]}
                                     for a in record["agents"]])
        assert map_hash(record) != map_hash(moved)

    def test_invalid_record_rejected(self):
        record = {"size": 3, "blocked": [[0, 1], [1, 0], [1, 1]],
                  "agents": [{"start": [0, 0], "goal": [2, 2]}], "seed": 0}
        with pytest.raises(ValueError):
            env_from_record(record, obs_radius=1, horizon=5)

    @pytest.mark.parametrize("blocked,agent,field", [
        ([[99, 99]], {"start": [0, 0], "goal": [2, 2]}, "blocked cell"),
        ([[0, -1]], {"start": [0, 0], "goal": [2, 2]}, "blocked cell"),
        ([], {"start": [-1, 0], "goal": [2, 2]}, "agent 0 start"),
        ([], {"start": [0, 0], "goal": [2, 8]}, "agent 0 goal"),
    ])
    def test_cell_outside_grid_rejected(self, blocked, agent, field):
        record = {"size": 8, "blocked": blocked, "agents": [agent], "seed": 0}
        with pytest.raises(ValueError, match=f"{field} .* lies outside"):
            env_from_record(record, obs_radius=1, horizon=5)
