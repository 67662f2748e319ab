"""Map sets, baselines, rendering, evaluation, and the training loop."""
import json
import math
import os

import numpy as np
import pytest

from gridmix import harness
from gridmix.baselines import GreedyBfsPolicy, RandomPolicy, baseline_policy, play_episode
from gridmix.grid_world import EnvConfig, EnvState, GenerationFailed, map_hash
from gridmix.harness import (ConfigInvalid, RunConfig, TopologyMismatch,
                             bench_env_stepping, bench_train_loop, epsilon_at,
                             evaluate, train)
from gridmix.mapsets import (_giveway_combos, _giveway_record, gen_mapset,
                             greedy_rollout_fails, load_mapset, mapset_hash,
                             sample_giveway_record, save_mapset)
from gridmix.observation import obs_dim
from gridmix.qmix_core import MixerBundle, load_bundle, select_actions
from gridmix.render import (EpisodeLogs, MalformedLog, render_episode, render_frame,
                            render_map)

from oracles import BruteForceSim, flood_fill, sim_greedy, sim_window


def env_config(size=8, density=0.3, n_agents=2, obs_radius=5, horizon=16,
               goal_dist=5, seed=0):
    return EnvConfig(size=size, density=density, n_agents=n_agents,
                     obs_radius=obs_radius, horizon=horizon, goal_dist=goal_dist,
                     seed=seed)


def make_goal_seeking_bundle(obs_radius=5, n_agents=1, state_dim=192):
    """Hand-built net that walks toward the own-goal marker on open ground.

    Layer 1 computes, for each action, a positive score that grows as the
    goal marker (channel 3) gets closer to the cell that action enters;
    ReLU layers pass the positive scores through untouched.
    """
    width = 2 * obs_radius + 1
    od = obs_dim(obs_radius)
    bundle = MixerBundle(n_agents=n_agents, obs_dim=od, state_dim=state_dim,
                         mode="iql", seed=0)
    bundle.theta[:] = 0.0
    w1, _ = bundle.agent_net.layers[0]
    offset = 3 * width * width  # channel 3 block in the flat observation
    deltas = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
    ceiling = float(8 * width * width)
    for action, (dr, dc) in enumerate(deltas):
        target = (obs_radius + dr, obs_radius + dc)
        for r in range(width):
            for c in range(width):
                d2 = (r - target[0]) ** 2 + (c - target[1]) ** 2
                w1[action, offset + r * width + c] = ceiling - d2
    w2, _ = bundle.agent_net.layers[1]
    w3, _ = bundle.agent_net.layers[2]
    for a in range(5):
        w2[a, a] = 1.0
        w3[a, a] = 1.0
    return bundle


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        config = RunConfig(size=10, mode="vdn", total_steps=500, eval_interval=250)
        path = str(tmp_path / "config.json")
        config.to_json(path)
        assert RunConfig.from_json(path) == config

    def test_unknown_field_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump({"size": 8, "learning_rate": 1.0}, fh)
        with pytest.raises(ConfigInvalid):
            RunConfig.from_json(path)

    def test_non_object_config_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump([1, 2], fh)
        with pytest.raises(ConfigInvalid, match="must hold a JSON object"):
            RunConfig.from_json(path)

    @pytest.mark.parametrize("kwargs", [
        dict(mode="sarsa"),
        dict(total_steps=-1),
        dict(eval_interval=0),
        dict(eval_interval=200, total_steps=100),
        dict(train_map_kind="mazes"),
        dict(min_buffer=32, batch_size=64),
        dict(eps_start=0.1, eps_end=0.5),
        dict(size=1),
        dict(eval_map_count=0),
        dict(min_buffer=200, buffer_capacity=100),
        dict(gamma=1.0),
    ])
    def test_invalid_configs(self, kwargs):
        config = RunConfig(**{**dict(total_steps=1000, eval_interval=500), **kwargs})
        with pytest.raises(ConfigInvalid):
            config.validate()

    @pytest.mark.parametrize("kwargs,ok", [
        (dict(size=8.0), False),
        (dict(seed=True), False),
        (dict(n_envs="8"), False),
        (dict(goal_dist=2.5), False),
        (dict(mode=None), False),
        (dict(lr=1), True),
        (dict(eps_end=0), True),
        (dict(goal_dist=None, stop_at_success=None, eval_maps=None), True),
        (dict(stop_at_success=1), True),
    ])
    def test_field_types(self, kwargs, ok):
        # int fields take no bool, float or str; float fields take an int;
        # optional fields take None
        config = RunConfig(**{**dict(total_steps=1000, eval_interval=500), **kwargs})
        if ok:
            config.validate()
        else:
            with pytest.raises(ConfigInvalid, match=f"^{next(iter(kwargs))} must be"):
                config.validate()

    @pytest.mark.parametrize("kwargs", [
        dict(target_sync=0),
        dict(embed_dim=0),
        dict(lr=0.0),
        dict(grad_clip=-1.0),
    ], ids=["target_sync", "embed_dim", "lr", "grad_clip"])
    def test_invalid_learner_fields(self, kwargs, tmp_path):
        # rejected before any output is written, not after the step-0 row
        config = RunConfig(**{**dict(total_steps=1000, eval_interval=500), **kwargs})
        with pytest.raises(ConfigInvalid):
            config.validate()
        with pytest.raises(ConfigInvalid):
            train(config, str(tmp_path / "run"))
        assert not os.path.exists(tmp_path / "run" / "metrics.csv")

    def test_epsilon_schedule(self):
        config = RunConfig(total_steps=10_000, eval_interval=1000,
                           eps_start=1.0, eps_end=0.05, eps_fraction=0.1)
        assert epsilon_at(0, config) == 1.0
        assert epsilon_at(500, config) == pytest.approx(0.525)
        assert epsilon_at(1000, config) == pytest.approx(0.05)
        assert epsilon_at(9000, config) == pytest.approx(0.05)


class TestMapsets:
    def test_random_mapset(self):
        mapset = gen_mapset("random", 12, env_config(), seed=5)
        assert len(mapset["maps"]) == 12
        assert mapset["kind"] == "random"
        for record in mapset["maps"]:
            assert len(record["blocked"]) == math.floor(0.3 * 64)
            blocked = {tuple(cell) for cell in record["blocked"]}
            for agent in record["agents"]:
                field = flood_fill(8, blocked, tuple(agent["goal"]))
                assert field[tuple(agent["start"])] == 5

    def test_deterministic(self):
        a = gen_mapset("random", 6, env_config(), seed=9)
        b = gen_mapset("random", 6, env_config(), seed=9)
        assert a == b
        assert mapset_hash(a) == mapset_hash(b)
        c = gen_mapset("random", 6, env_config(), seed=10)
        assert mapset_hash(a) != mapset_hash(c)

    def test_save_load(self, tmp_path):
        mapset = gen_mapset("random", 3, env_config(), seed=1)
        path = str(tmp_path / "maps.json")
        save_mapset(mapset, path)
        assert load_mapset(path) == mapset

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_mapset("labyrinth", 1, env_config(), seed=0)

    def test_giveway_set_of_70(self):
        mapset = gen_mapset("giveway", 70, env_config(goal_dist=None), seed=3)
        assert len(mapset["maps"]) == 70
        hashes = {map_hash(m) for m in mapset["maps"]}
        assert len(hashes) == 70
        for record in mapset["maps"]:
            assert greedy_rollout_fails(record, obs_radius=5, horizon=16)

    def test_giveway_deterministic(self):
        a = gen_mapset("giveway", 10, env_config(), seed=4)
        b = gen_mapset("giveway", 10, env_config(), seed=4)
        assert a == b

    def test_giveway_needs_two_agents(self):
        with pytest.raises(GenerationFailed):
            gen_mapset("giveway", 5, env_config(n_agents=3), seed=0)

    def test_giveway_needs_horizon_slack(self):
        with pytest.raises(GenerationFailed):
            gen_mapset("giveway", 5, env_config(horizon=8), seed=0)

    def test_giveway_count_bounded_by_family(self):
        with pytest.raises(GenerationFailed):
            gen_mapset("giveway", 10_000, env_config(), seed=0)

    @pytest.mark.parametrize("size", [5, 6, 7, 8])
    def test_greedy_strands_both_agents_on_every_giveway_map(self, size):
        # why give-way maps need no certifying rollout: on every member of
        # the family, simultaneous greedy play (the oracles' rule over
        # flood_fill fields, stepped by the brute-force simulator) reaches a
        # state where no agent moves while both are active. The rule and the
        # dynamics are deterministic, so that state repeats at every horizon
        combos = _giveway_combos(size)
        assert combos
        for combo in combos:
            sim = BruteForceSim(_giveway_record(size, *combo, seed=0), 4 * size)
            while True:
                assert not sim.episode_over, combo
                out = sim.step(sim_greedy(sim))
                if not any(out["moved"]):
                    break
            assert all(a["active"] for a in sim.agents), combo

    def test_sampled_giveway_is_certified(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            record = sample_giveway_record(env_config(), rng)
            assert greedy_rollout_fails(record, obs_radius=5, horizon=16)


class TestBaselines:
    def test_factory(self):
        assert isinstance(baseline_policy("random"), RandomPolicy)
        assert isinstance(baseline_policy("greedy_bfs"), GreedyBfsPolicy)
        with pytest.raises(ValueError):
            baseline_policy("astar")

    def test_greedy_solo_reaches_goal_in_d_steps(self):
        record = {"size": 6, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [3, 4]}], "seed": 0}
        block = EnvState([record], 1, obs_radius=2, horizon=10)
        policy = GreedyBfsPolicy()
        steps = 0
        while not block.episode_over:
            out = block.step(policy.actions(block, [(0, 0)]))
            steps += 1
        assert out.done[0, 0]
        assert steps == 7  # exactly the BFS distance

    def test_greedy_fails_on_giveway_maps(self):
        mapset = gen_mapset("giveway", 8, env_config(), seed=6)
        report = evaluate(GreedyBfsPolicy(), mapset)
        assert max(report.per_map) < 1.0

    def test_random_rarely_reaches_distant_goal(self):
        mapset = gen_mapset("random", 25, env_config(goal_dist=7, seed=0), seed=7)
        report = evaluate(RandomPolicy(seed=1), mapset, repeats=2)
        assert report.mean < 0.2

    def test_random_far_below_trained_reference(self):
        # standard 8x8 two-agent setting: a random walk stays far under the
        # ~0.74 success a trained mixer reaches here
        mapset = gen_mapset("random", 40, env_config(goal_dist=5, seed=0), seed=15)
        report = evaluate(RandomPolicy(seed=2), mapset, repeats=3)
        assert report.mean < 0.3

    def test_random_policy_deterministic_per_episode(self):
        mapset = gen_mapset("random", 4, env_config(), seed=8)
        a = evaluate(RandomPolicy(seed=5), mapset, repeats=2)
        b = evaluate(RandomPolicy(seed=5), mapset, repeats=2)
        assert a.per_map == b.per_map


class TestEvaluate:
    def test_goal_seeker_solves_open_maps(self):
        mapset = gen_mapset("random", 10, env_config(
            density=0.0, n_agents=1, goal_dist=6), seed=11)
        bundle = make_goal_seeking_bundle()
        report = evaluate(bundle, mapset)
        assert report.mean == 1.0

    def test_repeats_average(self):
        mapset = gen_mapset("random", 6, env_config(), seed=12)
        # repeat index feeds the episode seed, so repeats explore different runs;
        # per-map values are means over 3 repeats of 2-agent fractions
        triple = evaluate(RandomPolicy(seed=3), mapset, repeats=3)
        assert len(triple.per_map) == 6
        assert triple.mean == pytest.approx(float(np.mean(triple.per_map)))
        for value in triple.per_map:
            assert 0.0 <= value <= 1.0
            assert value * 6 == pytest.approx(round(value * 6))

    def test_topology_mismatch(self):
        mapset = gen_mapset("random", 2, env_config(obs_radius=3), seed=13)
        bundle = make_goal_seeking_bundle(obs_radius=5)
        with pytest.raises(TopologyMismatch):
            evaluate(bundle, mapset)
        mapset2 = gen_mapset("random", 2, env_config(n_agents=2), seed=13)
        with pytest.raises(TopologyMismatch):
            evaluate(make_goal_seeking_bundle(n_agents=1), mapset2)


def serial_per_map(act, mapset, repeats=1):
    """Reference for evaluate(): one brute-force simulator per (map, repeat),
    each episode stepped alone to its end with ``act(sim, (map, repeat))``.

    Returns per_map and every episode's length.
    """
    cfg = mapset["config"]
    per_map, lengths = [], []
    for idx, record in enumerate(mapset["maps"]):
        total = 0.0
        for rep in range(repeats):
            sim = BruteForceSim(record, cfg["horizon"])
            reached = np.zeros(len(sim.agents), dtype=bool)
            while not sim.episode_over:
                reached |= sim.step(act(sim, (idx, rep)))["done"]
            lengths.append(sim.t)
            total += float(reached.mean())
        per_map.append(total / repeats)
    return per_map, lengths


def net_act(bundle, radius=5):
    """Greedy bundle actions for one episode through the oracle's windows
    (zero rows for inactive agents) and select_actions."""
    def act(sim, key):
        active = np.array([a["active"] for a in sim.agents])
        obs = np.zeros((len(active), bundle.obs_dim))
        for i in np.flatnonzero(active):
            obs[i] = sim_window(sim, radius, i).reshape(-1)
        return select_actions(bundle, obs[None], 0.0, None, active[None])[0]
    return act


def random_act(seed):
    """RandomPolicy's contract: one stream per (seed, map, repeat), one draw
    per active agent in index order."""
    streams = {}

    def act(sim, key):
        if sim.t == 0:
            streams[key] = np.random.default_rng(np.random.SeedSequence((seed, *key)))
        return [int(streams[key].integers(5)) if a["active"] else 0 for a in sim.agents]
    return act


def random16_set(count=60):
    config = EnvConfig(size=16, density=0.3, n_agents=6, obs_radius=5, horizon=40,
                       seed=0)
    return gen_mapset("random", count, config, seed=4242)


class TestLockstepEvaluate:
    """evaluate() steps a block of episodes together; it must give the
    per-map values of playing each (map, repeat) alone."""

    def test_seeded_bundle_matches_serial(self):
        mapset = random16_set()
        bundle = MixerBundle(n_agents=6, obs_dim=obs_dim(5), state_dim=3 * 16 * 16,
                             mode="qmix", seed=77)
        report = evaluate(bundle, mapset, repeats=2)
        assert report.per_map == serial_per_map(net_act(bundle), mapset, 2)[0]
        assert report.mean == float(np.mean(report.per_map))

    def test_random_policy_matches_serial(self):
        mapset = random16_set(20)
        report = evaluate(RandomPolicy(seed=9), mapset, repeats=3)
        assert report.per_map == serial_per_map(random_act(9), mapset, 3)[0]

    def test_greedy_bfs_matches_serial(self):
        mapset = random16_set(20)
        policy = GreedyBfsPolicy()
        report = evaluate(policy, mapset, repeats=2)
        expected, _ = serial_per_map(lambda sim, key: sim_greedy(sim), mapset, 2)
        assert report.per_map == expected

    def test_goal_seeker_episodes_of_different_lengths(self):
        # episodes that finish early leave the live list while others step on
        mapset = gen_mapset("random", 12, env_config(
            density=0.0, n_agents=2, goal_dist=None), seed=31)
        bundle = make_goal_seeking_bundle(n_agents=2)
        report = evaluate(bundle, mapset, repeats=2)
        expected, lengths = serial_per_map(net_act(bundle), mapset, 2)
        assert report.per_map == expected
        assert len(set(lengths)) > 2
        assert report.mean > 0.5

    @pytest.mark.parametrize("block_rows", [1, 40])
    def test_many_blocks_match_one(self, monkeypatch, block_rows):
        # 1 row: one map per block even though a map has 12 agent rows;
        # 40 rows: blocks of 3, 3, 3 and 1 maps
        mapset = random16_set(10)
        bundle = MixerBundle(n_agents=6, obs_dim=obs_dim(5), state_dim=3 * 16 * 16,
                             mode="qmix", seed=78)
        whole = evaluate(bundle, mapset, repeats=2)
        policy = RandomPolicy(seed=4)
        whole_random = evaluate(policy, mapset, repeats=2)
        monkeypatch.setattr(harness, "EVAL_BLOCK_ROWS", block_rows)
        assert evaluate(bundle, mapset, repeats=2).per_map == whole.per_map
        assert evaluate(policy, mapset, repeats=2).per_map == whole_random.per_map

    def test_random_policy_object_reused(self):
        mapset = gen_mapset("random", 6, env_config(), seed=8)
        policy = RandomPolicy(seed=5)
        first = evaluate(policy, mapset, repeats=3)
        second = evaluate(policy, mapset, repeats=3)
        assert first.per_map == second.per_map
        assert first.mean == second.mean


class TestEvaluateInputs:
    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected(self, repeats):
        mapset = gen_mapset("random", 2, env_config(), seed=8)
        with pytest.raises(ValueError, match="repeats"):
            evaluate(GreedyBfsPolicy(), mapset, repeats=repeats)

    def test_empty_mapset_rejected(self):
        mapset = gen_mapset("random", 2, env_config(), seed=8)
        mapset["maps"] = []
        with pytest.raises(ValueError, match="no maps"):
            evaluate(GreedyBfsPolicy(), mapset)

    @pytest.mark.parametrize("field", ["size", "agents"])
    def test_record_disagreeing_with_header_rejected(self, field):
        mapset = gen_mapset("random", 3, env_config(), seed=8)
        other = gen_mapset("random", 1, env_config(size=9, n_agents=1), seed=8)
        if field == "size":
            mapset["maps"][2]["size"] = 9
            mapset["maps"][2]["blocked"] = other["maps"][0]["blocked"]
        else:
            del mapset["maps"][2]["agents"][1]
        with pytest.raises(ValueError, match="map 2 "):
            evaluate(GreedyBfsPolicy(), mapset)


class TestRender:
    def test_tiny_map_frame(self):
        record = {"size": 2, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [1, 1]}], "seed": 0}
        frame = render_map(record)
        assert frame == "0.\n.a"

    def test_obstacles_and_precedence(self):
        record = {"size": 2, "blocked": [[0, 1]],
                  "agents": [{"start": [0, 0], "goal": [0, 0]}], "seed": 0}
        # agent glyph wins over its own goal marker
        assert render_map(record) == "0#\n.."

    def test_episode_log_frames(self):
        record = {"size": 3, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [0, 2]}], "seed": 0}
        block = EnvState([record], 1, obs_radius=1, horizon=6)
        logs = EpisodeLogs()
        play_episode(block, GreedyBfsPolicy(), [(0, 0)], on_step=logs)
        log = logs[0]
        assert len(log["frames"]) == 3  # two moves, plus the initial frame
        frames = render_episode(log)
        assert "0" in frames[0] and "0" not in frames[-1]  # finished agent gone
        assert "a" not in frames[-1]

    def test_viewer_dimming(self):
        record = {"size": 5, "blocked": [],
                  "agents": [{"start": [0, 0], "goal": [4, 4]}], "seed": 0}
        frame = render_frame(record, [(0, 0)], [True], viewer=0, obs_radius=1)
        lines = frame.split("\n")
        assert lines[0][:2] == "0."
        assert lines[2] == "     "  # beyond the window: blanked
        assert lines[0][2:] == "   "

    def test_malformed_log(self):
        with pytest.raises(MalformedLog):
            render_episode({"map": {}, "frames": [{"positions": []}]})
        with pytest.raises(MalformedLog):
            render_episode({"frames": []})


def fast_clock():
    fast_clock.t += 1.0
    return fast_clock.t


class TestTrain:
    def base_config(self, **kwargs):
        defaults = dict(size=8, density=0.3, n_agents=1, obs_radius=5, horizon=16,
                        goal_dist=5, seed=1, mode="iql", total_steps=2_000,
                        eval_interval=1_000, eval_map_count=8,
                        buffer_capacity=5_000, min_buffer=256)
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_zero_steps_emits_initial_row_and_checkpoint(self, tmp_path):
        config = self.base_config(total_steps=0, eval_interval=1)
        result = train(config, str(tmp_path / "run"))
        assert os.path.exists(result.checkpoint_path)
        with open(result.metrics_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0].startswith("# mapset_sha256=")
        assert lines[1].split(",")[0] == "steps"
        assert len(lines) == 3  # header comment, column row, initial eval row
        assert lines[2].split(",")[0] == "0"
        assert result.steps == 0

    def test_deterministic_metrics_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            fast_clock.t = 0.0
            config = self.base_config(seed=7)
            result = train(config, str(tmp_path / name), time_fn=fast_clock)
            with open(result.metrics_path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_metrics_columns_and_monotone_steps(self, tmp_path):
        config = self.base_config()
        result = train(config, str(tmp_path / "run"))
        with open(result.metrics_path) as fh:
            lines = fh.read().strip().split("\n")
        header = lines[1].split(",")
        assert header == ["steps", "loss_mean", "q_tot_mean", "grad_norm",
                          "eval_success_mean", "eval_success_per_map_json", "wall_s"]
        steps = [int(line.split(",")[0]) for line in lines[2:]]
        assert steps == sorted(steps)
        assert steps[-1] >= config.total_steps

    def test_checkpoint_round_trip_evaluation(self, tmp_path):
        config = self.base_config(seed=3)
        out = str(tmp_path / "run")
        result = train(config, out)
        mapset = load_mapset(os.path.join(out, "eval_maps.json"))
        bundle = load_bundle(result.checkpoint_path)
        report = evaluate(bundle, mapset)
        assert report.per_map == result.final_eval.per_map

    def test_train_maps_disjoint_from_eval(self, tmp_path):
        config = self.base_config(seed=5)
        out = str(tmp_path / "run")
        result = train(config, out)
        mapset = load_mapset(os.path.join(out, "eval_maps.json"))
        eval_hashes = {map_hash(m) for m in mapset["maps"]}
        assert result.train_map_hashes
        assert not (result.train_map_hashes & eval_hashes)

    def test_eval_mapset_from_file_and_hash_in_header(self, tmp_path):
        mapset = gen_mapset("random", 5, env_config(n_agents=1), seed=20)
        maps_path = str(tmp_path / "maps.json")
        save_mapset(mapset, maps_path)
        config = self.base_config(total_steps=512, eval_interval=512,
                                  eval_maps=maps_path)
        result = train(config, str(tmp_path / "run"))
        with open(result.metrics_path) as fh:
            first = fh.readline().strip()
        assert first == f"# mapset_sha256={mapset_hash(mapset)}"

    def test_mismatched_eval_mapset_rejected(self, tmp_path):
        mapset = gen_mapset("random", 3, env_config(n_agents=2), seed=21)
        maps_path = str(tmp_path / "maps.json")
        save_mapset(mapset, maps_path)
        config = self.base_config(eval_maps=maps_path)  # run uses 1 agent
        with pytest.raises(ConfigInvalid):
            train(config, str(tmp_path / "run"))

    def test_eval_set_covering_train_family_rejected(self, tmp_path):
        # every certified size-6 give-way map is in the evaluation set, so no
        # training map can be drawn; the reset must give up, not spin forever
        env = EnvConfig(size=6, density=0.3, n_agents=2, obs_radius=2, horizon=9)
        mapset = gen_mapset("giveway", 160, env, seed=0)
        maps_path = str(tmp_path / "maps.json")
        save_mapset(mapset, maps_path)
        config = self.base_config(size=6, n_agents=2, obs_radius=2, horizon=9,
                                  goal_dist=None, mode="vdn", train_map_kind="giveway",
                                  eval_maps=maps_path)
        with pytest.raises(ConfigInvalid, match="covers the training maps"):
            train(config, str(tmp_path / "run"))

    def test_stop_at_success_halts_early(self, tmp_path):
        # a threshold of 0 is reached at the first post-warmup evaluation
        config = self.base_config(total_steps=4_000, eval_interval=500,
                                  stop_at_success=0.0)
        result = train(config, str(tmp_path / "run"))
        assert result.steps < 4_000


class TestBenchmarks:
    def test_env_stepping_reports_rate(self):
        # train()'s n_envs rows, n agent-steps per row per step
        result = bench_env_stepping(RunConfig(goal_dist=5, n_envs=3), n_steps=2_000)
        assert result["agent_steps"] == 2_000 * 3 * 2
        assert result["agent_steps_per_s"] > 0

    def test_train_loop_reports_rate(self):
        config = RunConfig(size=8, density=0.3, n_agents=2, obs_radius=5,
                           horizon=16, goal_dist=5, mode="qmix",
                           buffer_capacity=2_000)
        result = bench_train_loop(config, total_steps=640, trials=1)
        assert result["env_steps"] == 640
        assert result["env_steps_per_s"] > 0
        assert result["batch_size"] == 64
