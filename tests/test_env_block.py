"""EnvBlock: lockstep episodes as arrays, checked against per-env stepping.

Every step of a randomized block must give what EnvState.step and the
brute-force simulator give on the same actions, row by row; every window
must equal the oracle's; and the block policies must act as the per-env
rules they replace.
"""
import numpy as np
import pytest

from gridmix.baselines import GreedyBfsPolicy, RandomPolicy, greedy_moves
from gridmix.grid_world import (Action, EnvBlock, GridMap, InvalidActionCount,
                                bfs_distance_field, bfs_distance_fields, env_from_record)
from gridmix.observation import observe

from oracles import DELTAS, BruteForceSim, flood_fill, greedy_actions, reference_window


def random_record(rng, size, n_agents):
    """A random map whose agents may share goal cells; None when a goal is
    unreachable from its start."""
    cells = rng.permutation(size * size)
    n_blocked = int(rng.integers(0, size * size // 3))
    free = cells[n_blocked:]
    starts = rng.choice(free, size=n_agents, replace=False)
    goals = rng.choice(free, size=n_agents)
    if n_agents > 1 and rng.random() < 0.4:
        goals[1] = goals[0]
    if (starts == goals).any():
        return None
    record = {"size": size,
              "blocked": [list(divmod(int(k), size)) for k in cells[:n_blocked]],
              "agents": [{"start": list(divmod(int(a), size)), "goal": list(divmod(int(g), size))}
                         for a, g in zip(starts, goals)],
              "seed": int(rng.integers(2**63))}
    try:
        env_from_record(record, 1, 1)
    except ValueError:
        return None
    return record


# agent 0 reaches its goal (0, 1) and agent 1 enters that cell in the same step
HANDOVER = {"size": 4, "blocked": [[1, 1]], "seed": 0, "agents": [
    {"start": [0, 0], "goal": [0, 1]}, {"start": [0, 2], "goal": [1, 0]}]}


def random_block(rng):
    size, n = int(rng.integers(3, 9)), int(rng.integers(1, 5))
    if rng.random() < 0.25:
        size, n = 4, 2
        records = [HANDOVER]
    else:
        records = []
    while len(records) < int(rng.integers(1, 5)):
        record = random_record(rng, size, n)
        if record is not None:
            records.append(record)
    radius = int(rng.integers(1, min(size, 3) + 1))
    return records, int(rng.integers(1, 4)), radius, int(rng.integers(2, 13))


def planes_of(env):
    return env._stack[env._row]


class Coverage:
    def __init__(self):
        self.counts = dict.fromkeys(["wall", "off_grid", "agent", "handover", "shared_goal",
                                     "truncated", "repeats", "reached"], 0)

    def failed_moves(self, env, actions):
        size = env.grid.size
        taken = {ag.pos for ag in env.agents if ag.active}
        for ag, a in zip(env.agents, actions):
            if not ag.active or a == 0:
                continue
            r, c = ag.pos[0] + DELTAS[a][0], ag.pos[1] + DELTAS[a][1]
            if not (0 <= r < size and 0 <= c < size):
                self.counts["off_grid"] += 1
            elif env.grid.blocked[r, c]:
                self.counts["wall"] += 1
            elif (r, c) in taken:
                self.counts["agent"] += 1

    def handovers(self, env, done, moved):
        for i, ag in enumerate(env.agents):
            if done[i]:
                self.counts["reached"] += 1
                self.counts["handover"] += sum(
                    1 for j in range(i + 1, env.n_agents)
                    if moved[j] and env.agents[j].pos == ag.goal)


def test_block_steps_like_each_env():
    rng = np.random.default_rng(19)
    cov = Coverage()
    for _ in range(60):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvBlock(records, repeats, radius, horizon)
        envs = [env_from_record(records[e // repeats], radius, horizon)
                for e in range(len(records) * repeats)]
        sims = [BruteForceSim(records[e // repeats], horizon) for e in range(len(envs))]
        cov.counts["repeats"] += repeats > 1
        cov.counts["shared_goal"] += any(
            len({tuple(a["goal"]) for a in r["agents"]}) < len(r["agents"]) for r in records)
        assert [block.record(e) for e in range(len(envs))] == \
            [{**r, "blocked": sorted(r["blocked"])} for r in records for _ in range(repeats)]
        while not block.episode_over:
            live = [e for e, env in enumerate(envs) if not env.episode_over]
            actions = np.zeros(block.active.shape, dtype=np.int64)
            for e in live:
                greedy = greedy_actions(envs[e])
                actions[e] = [g if rng.random() < 0.6 else int(rng.integers(5))
                              for g in greedy]
                actions[e][~block.active[e]] = int(rng.integers(5))  # ignored
            for e in range(len(envs)):
                if e not in live:
                    actions[e] = rng.integers(5, size=block.active.shape[1])
            step = block.step(actions)
            for e, (env, sim) in enumerate(zip(envs, sims)):
                if e not in live:
                    assert not step.rewards[e].any() and not step.done[e].any()
                    assert not step.moved[e].any() and step.episode_over[e]
                    continue
                cov.failed_moves(env, actions[e])
                ref = env.step(actions[e])
                brute = sim.step(actions[e])
                cov.handovers(env, ref.done, ref.moved)
                for got, want in ((step.rewards[e], ref.rewards), (step.done[e], ref.done),
                                  (step.moved[e], ref.moved)):
                    assert np.array_equal(got, want)
                assert step.rewards[e].tolist() == brute["rewards"]
                assert step.done[e].tolist() == brute["done"]
                assert step.moved[e].tolist() == brute["moved"]
                assert step.episode_over[e] == ref.episode_over == brute["episode_over"]
                cov.counts["truncated"] += ref.episode_over and env.t >= horizon \
                    and not ref.done.all()
            for e, (env, sim) in enumerate(zip(envs, sims)):
                positions = block.positions(e).tolist()
                assert positions == [list(ag.pos) for ag in env.agents]
                assert positions == [list(a["pos"]) for a in sim.agents]
                assert block.active[e].tolist() == [ag.active for ag in env.agents]
                assert np.array_equal(block.planes[e], planes_of(env))
            if not block.episode_over:
                obs, active = observe(block)
                expected = [reference_window(env, i) for env in envs
                            for i, ag in enumerate(env.agents) if ag.active]
                assert active.tolist() == [[ag.active for ag in env.agents] for env in envs]
                assert len(obs) == len(expected)
                assert all(np.array_equal(row, ref) for row, ref in zip(obs, expected))
        assert block.t == max(env.t for env in envs)
    assert all(cov.counts.values()), cov.counts


def test_random_policy_draws_as_per_env_streams():
    rng = np.random.default_rng(5)
    for seed in range(8):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvBlock(records, repeats, radius, horizon)
        envs = [env_from_record(records[e // repeats], radius, horizon)
                for e in range(len(records) * repeats)]
        keys = [(7 + e // repeats, e % repeats) for e in range(len(envs))]
        streams = {key: np.random.default_rng(np.random.SeedSequence((seed, *key)))
                   for key in keys}
        policy = RandomPolicy(seed)
        while not block.episode_over:
            acts = policy.actions(block, keys)
            for e, (env, key) in enumerate(zip(envs, keys)):
                want = [int(streams[key].integers(5)) if ag.active else 0
                        for ag in env.agents]
                assert acts[e].tolist() == want
                if not env.episode_over:
                    env.step(acts[e])
            block.step(acts)


def test_greedy_policy_is_the_per_env_rule():
    rng = np.random.default_rng(6)
    for _ in range(20):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvBlock(records, repeats, radius, horizon)
        envs = [env_from_record(records[e // repeats], radius, horizon)
                for e in range(len(records) * repeats)]
        policy = GreedyBfsPolicy()
        while not block.episode_over:
            acts = policy.actions(block, [(e, 0) for e in range(len(envs))])
            assert acts.tolist() == [greedy_actions(env) for env in envs]
            for e, env in enumerate(envs):
                if not env.episode_over:
                    env.step(acts[e])
            block.step(acts)


def test_greedy_policy_alternates_between_blocks():
    """One policy object asked about two blocks in turn, each first seen
    after its start, acts on each block by that block's own fields."""
    rng = np.random.default_rng(16)
    policy = GreedyBfsPolicy()
    for _ in range(10):
        games = []
        for _ in range(2):
            records, repeats, radius, horizon = random_block(rng)
            block = EnvBlock(records, repeats, radius, horizon)
            envs = [env_from_record(records[e // repeats], radius, horizon)
                    for e in range(len(records) * repeats)]
            stay = np.full(block.active.shape, int(Action.STAY))
            block.step(stay)
            for env in envs:
                env.step(stay[0])
            games.append((block, envs))
        while not all(block.episode_over for block, _ in games):
            for block, envs in games:
                if block.episode_over:
                    continue
                acts = policy.actions(block, [(e, 0) for e in range(len(envs))])
                assert acts.tolist() == [greedy_actions(env) for env in envs]
                for e, env in enumerate(envs):
                    if not env.episode_over:
                        env.step(acts[e])
                block.step(acts)


def test_greedy_moves_table_is_the_rule():
    rng = np.random.default_rng(8)
    for _ in range(10):
        record = random_record(rng, int(rng.integers(3, 9)), 3)
        if record is None:
            continue
        env = env_from_record(record, 1, 5)
        table = greedy_moves([ag.dist_field for ag in env.agents])
        # each agent's own rule at every free cell
        for i in range(env.n_agents):
            for cell in zip(*np.nonzero(~env.grid.blocked)):
                env.agents[i].pos = tuple(int(v) for v in cell)
                assert table[i][cell] == greedy_actions(env)[i]


def test_batched_bfs_equals_single_fields():
    rng = np.random.default_rng(9)
    for _ in range(20):
        size = int(rng.integers(2, 12))
        blocked = rng.random((3, size, size)) < 0.3
        goals = np.array([[np.argwhere(~b)[int(rng.integers((~b).sum()))] for _ in range(2)]
                          for b in blocked if (~b).any()])
        blocked = np.array([b for b in blocked if (~b).any()])
        fields = bfs_distance_fields(blocked, goals)
        for m in range(len(blocked)):
            cells = {tuple(int(v) for v in c) for c in np.argwhere(blocked[m])}
            for k, goal in enumerate(goals[m]):
                goal = tuple(int(v) for v in goal)
                assert np.array_equal(fields[m, k], bfs_distance_field(GridMap(size, blocked[m]),
                                                                       goal))
                reach = flood_fill(size, cells, goal)
                assert {c for c in np.ndindex(size, size)
                        if np.isfinite(fields[m, k][c])} == set(reach)


OPEN = {"size": 4, "blocked": [], "seed": 0, "agents": [
    {"start": [0, 0], "goal": [3, 3]}, {"start": [0, 3], "goal": [3, 0]}]}


@pytest.mark.parametrize("change", [
    "start_outside", "goal_outside", "blocked_outside", "goal_blocked", "start_blocked",
    "shared_start", "unreachable", "bad_seed", "size_one",
])
def test_bad_record_raises_env_from_record_text(change):
    record = {**OPEN, "agents": [dict(a) for a in OPEN["agents"]]}
    if change == "start_outside":
        record["agents"][1]["start"] = [0, 4]
    elif change == "goal_outside":
        record["agents"][0]["goal"] = [-1, 2]
    elif change == "blocked_outside":
        record["blocked"] = [[1, 1], [7, 0]]
    elif change == "goal_blocked":
        record["blocked"] = [[3, 3]]
    elif change == "start_blocked":
        record["blocked"] = [[0, 3]]
    elif change == "shared_start":
        record["agents"][1]["start"] = [0, 0]
    elif change == "unreachable":
        record["blocked"] = [[2, 3], [3, 2]]
    elif change == "bad_seed":
        record["seed"] = -1
    else:
        record = {"size": 1, "blocked": [], "seed": 0,
                  "agents": [{"start": [0, 0], "goal": [0, 0]}]}
    with pytest.raises(ValueError) as single:
        env_from_record(record, 1, 5)
    with pytest.raises(ValueError) as block:
        EnvBlock([OPEN, record], 2, 1, 5)
    assert str(block.value) == str(single.value)


def test_step_checks_shape_and_end():
    block = EnvBlock([OPEN], 2, 1, 1)
    with pytest.raises(InvalidActionCount):
        block.step(np.zeros((2, 3), dtype=np.int64))
    block.step(np.zeros((2, 2), dtype=np.int64))
    assert block.episode_over and not block.active.any()
    assert not block.planes[:, 1:].any()  # truncation clears agents and goals
    with pytest.raises(RuntimeError):
        block.step(np.zeros((2, 2), dtype=np.int64))
