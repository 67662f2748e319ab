"""Many-row EnvStates: lockstep episodes as arrays, checked row by row.

Every step of a randomized block must give, row by row, what a one-row
EnvState of that row's map and the brute-force simulator give on the same
actions; every window must equal the oracle's; and the block policies must
act as the per-episode rules they implement.
"""
import numpy as np
import pytest

from gridmix.baselines import GreedyBfsPolicy, RandomPolicy, greedy_moves
from gridmix.grid_world import (Action, EnvState, InvalidActionCount, bfs_distance_field,
                                bfs_distance_fields, env_from_record)
from gridmix.observation import observe

from oracles import DELTAS, BruteForceSim, flood_fill, greedy_actions, sim_greedy, sim_window


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


def sim_rows(records, repeats, horizon):
    return [BruteForceSim(records[e // repeats], horizon)
            for e in range(len(records) * repeats)]


class Coverage:
    def __init__(self):
        self.counts = dict.fromkeys(["wall", "off_grid", "agent", "handover", "shared_goal",
                                     "truncated", "repeats", "reached"], 0)

    def failed_moves(self, sim, actions):
        taken = {a["pos"] for a in sim.agents if a["active"]}
        for agent, a in zip(sim.agents, actions):
            if not agent["active"] or a == 0:
                continue
            r, c = agent["pos"][0] + DELTAS[a][0], agent["pos"][1] + DELTAS[a][1]
            if not (0 <= r < sim.size and 0 <= c < sim.size):
                self.counts["off_grid"] += 1
            elif (r, c) in sim.blocked:
                self.counts["wall"] += 1
            elif (r, c) in taken:
                self.counts["agent"] += 1

    def handovers(self, sim, done, moved):
        for i, agent in enumerate(sim.agents):
            if done[i]:
                self.counts["reached"] += 1
                self.counts["handover"] += sum(
                    1 for j in range(i + 1, len(sim.agents))
                    if moved[j] and sim.agents[j]["pos"] == agent["goal"])


def test_block_steps_like_each_env():
    rng = np.random.default_rng(19)
    cov = Coverage()
    for _ in range(60):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvState(records, repeats, radius, horizon)
        envs = [env_from_record(records[e // repeats], radius, horizon)
                for e in range(len(records) * repeats)]
        sims = sim_rows(records, repeats, horizon)
        cov.counts["repeats"] += repeats > 1
        cov.counts["shared_goal"] += any(
            len({tuple(a["goal"]) for a in r["agents"]}) < len(r["agents"]) for r in records)
        assert [block.record(e) for e in range(len(envs))] == \
            [{**r, "blocked": sorted(r["blocked"])} for r in records for _ in range(repeats)]
        while not block.episode_over:
            live = [e for e, env in enumerate(envs) if not env.episode_over]
            actions = np.zeros(block.active.shape, dtype=np.int64)
            for e in live:
                greedy = sim_greedy(sims[e])
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
                cov.failed_moves(sim, actions[e])
                ref = env.step(actions[e:e + 1])
                brute = sim.step(actions[e])
                cov.handovers(sim, brute["done"], brute["moved"])
                for got, want in ((step.rewards[e], ref.rewards[0]),
                                  (step.done[e], ref.done[0]), (step.moved[e], ref.moved[0])):
                    assert np.array_equal(got, want)
                assert step.rewards[e].tolist() == brute["rewards"]
                assert step.done[e].tolist() == brute["done"]
                assert step.moved[e].tolist() == brute["moved"]
                assert step.episode_over[e] == ref.episode_over[0] == brute["episode_over"]
                cov.counts["truncated"] += brute["episode_over"] and sim.t >= horizon \
                    and not all(brute["done"])
            for e, (env, sim) in enumerate(zip(envs, sims)):
                positions = block.positions(e).tolist()
                assert positions == env.positions(0).tolist()
                assert positions == [list(a["pos"]) for a in sim.agents]
                assert block.active[e].tolist() == env.active[0].tolist()
                assert block.active[e].tolist() == [a["active"] for a in sim.agents]
                assert np.array_equal(block.planes[e], env.planes[0])
                assert block.t[e] == env.t[0] == sim.t
            if not block.episode_over:
                obs, active = observe(block)
                expected = [sim_window(sim, radius, i) for sim in sims
                            for i, a in enumerate(sim.agents) if a["active"]]
                assert active.tolist() == [[a["active"] for a in sim.agents] for sim in sims]
                assert len(obs) == len(expected)
                assert all(np.array_equal(row, ref) for row, ref in zip(obs, expected))
    assert all(cov.counts.values()), cov.counts


def test_random_policy_draws_as_per_env_streams():
    rng = np.random.default_rng(5)
    for seed in range(8):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvState(records, repeats, radius, horizon)
        sims = sim_rows(records, repeats, horizon)
        keys = [(7 + e // repeats, e % repeats) for e in range(len(sims))]
        streams = {key: np.random.default_rng(np.random.SeedSequence((seed, *key)))
                   for key in keys}
        policy = RandomPolicy(seed)
        while not block.episode_over:
            acts = policy.actions(block, keys)
            for e, (sim, key) in enumerate(zip(sims, keys)):
                want = [int(streams[key].integers(5)) if a["active"] else 0
                        for a in sim.agents]
                assert acts[e].tolist() == want
                if not sim.episode_over:
                    sim.step(acts[e])
            block.step(acts)


def test_greedy_policy_is_the_per_env_rule():
    rng = np.random.default_rng(6)
    for _ in range(20):
        records, repeats, radius, horizon = random_block(rng)
        block = EnvState(records, repeats, radius, horizon)
        sims = sim_rows(records, repeats, horizon)
        policy = GreedyBfsPolicy()
        while not block.episode_over:
            acts = policy.actions(block, [(e, 0) for e in range(len(sims))])
            assert acts.tolist() == [sim_greedy(sim) for sim in sims]
            for e, sim in enumerate(sims):
                if not sim.episode_over:
                    sim.step(acts[e])
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
            block = EnvState(records, repeats, radius, horizon)
            sims = sim_rows(records, repeats, horizon)
            stay = np.full(block.active.shape, int(Action.STAY))
            block.step(stay)
            for sim in sims:
                sim.step(stay[0])
            games.append((block, sims))
        while not all(block.episode_over for block, _ in games):
            for block, sims in games:
                if block.episode_over:
                    continue
                acts = policy.actions(block, [(e, 0) for e in range(len(sims))])
                assert acts.tolist() == [sim_greedy(sim) for sim in sims]
                for e, sim in enumerate(sims):
                    if not sim.episode_over:
                        sim.step(acts[e])
                block.step(acts)


def test_greedy_moves_table_is_the_rule():
    rng = np.random.default_rng(8)
    for _ in range(10):
        record = random_record(rng, int(rng.integers(3, 9)), 3)
        if record is None:
            continue
        size = record["size"]
        blocked = np.zeros((size, size), dtype=bool)
        for r, c in record["blocked"]:
            blocked[r, c] = True
        table = greedy_moves([bfs_distance_field(blocked, tuple(a["goal"]))
                              for a in record["agents"]])
        # each agent's own rule at every free cell
        starts = [a["start"] for a in record["agents"]]
        for i in range(len(starts)):
            for cell in zip(*np.nonzero(~blocked)):
                positions = starts[:i] + [cell] + starts[i + 1:]
                assert table[i][cell] == greedy_actions(record, positions, [True] * 3)[i]


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
                assert np.array_equal(fields[m, k], bfs_distance_field(blocked[m], goal))
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
        EnvState([OPEN, record], 2, 1, 5)
    assert str(block.value) == str(single.value)


def test_step_checks_shape_and_end():
    block = EnvState([OPEN], 2, 1, 1)
    with pytest.raises(InvalidActionCount):
        block.step(np.zeros((2, 3), dtype=np.int64))
    block.step(np.zeros((2, 2), dtype=np.int64))
    assert block.episode_over and not block.active.any()
    assert not block.planes[:, 1:].any()  # truncation clears agents and goals
    with pytest.raises(RuntimeError):
        block.step(np.zeros((2, 2), dtype=np.int64))
