"""CLI subcommands drive the library end to end."""
import json
import os

import pytest

from gridmix.cli import main
from gridmix.grid_world import EnvConfig
from gridmix.mapsets import gen_mapset, load_mapset, save_mapset
from gridmix.observation import obs_dim
from gridmix.qmix_core import MixerBundle, bundle_to_payload


@pytest.fixture
def config_path(tmp_path):
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump({
            "size": 8, "density": 0.3, "n_agents": 1, "obs_radius": 5,
            "horizon": 16, "goal_dist": 5, "seed": 3, "mode": "iql",
            "total_steps": 1024, "eval_interval": 512, "eval_map_count": 6,
            "buffer_capacity": 4000, "min_buffer": 256,
        }, fh)
    return path


def test_gen_maps_and_eval_baseline(tmp_path, config_path, capsys):
    maps_path = str(tmp_path / "maps.json")
    assert main(["gen-maps", "--kind", "random", "--count", "5",
                 "--config", config_path, "--seed", "4", "--out", maps_path]) == 0
    mapset = load_mapset(maps_path)
    assert len(mapset["maps"]) == 5

    report_path = str(tmp_path / "report.json")
    assert main(["eval", "--baseline", "greedy_bfs", "--maps", maps_path,
                 "--out", report_path]) == 0
    with open(report_path) as fh:
        report = json.load(fh)
    assert 0.0 <= report["mean"] <= 1.0
    out = capsys.readouterr().out
    assert "mean success" in out


def test_eval_requires_policy_source(tmp_path, config_path):
    maps_path = str(tmp_path / "maps.json")
    main(["gen-maps", "--kind", "random", "--count", "2",
          "--config", config_path, "--seed", "4", "--out", maps_path])
    assert main(["eval", "--maps", maps_path]) == 2


@pytest.mark.parametrize("case", ["repeats", "empty", "ckpt_version", "maps_version"])
def test_eval_bad_input_exits_2_with_one_line(tmp_path, config_path, capsys, case):
    maps_path = str(tmp_path / "maps.json")
    main(["gen-maps", "--kind", "random", "--count", "2",
          "--config", config_path, "--seed", "4", "--out", maps_path])
    argv = ["eval", "--baseline", "random", "--maps", maps_path]
    if case == "repeats":
        argv += ["--repeats", "0"]
    elif case == "empty":
        mapset = load_mapset(maps_path)
        mapset["maps"] = []
        save_mapset(mapset, maps_path)
    elif case == "ckpt_version":
        ckpt_path = str(tmp_path / "checkpoint.json")
        payload = bundle_to_payload(MixerBundle(n_agents=1, obs_dim=obs_dim(5),
                                                state_dim=3 * 8 * 8, mode="iql"))
        payload["format_version"] = 1
        with open(ckpt_path, "w") as fh:
            json.dump(payload, fh)
        argv = ["eval", "--ckpt", ckpt_path, "--maps", maps_path]
    else:
        with open(maps_path) as fh:
            mapset = json.load(fh)
        mapset["format_version"] = 99
        with open(maps_path, "w") as fh:
            json.dump(mapset, fh)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eval: ") and err.count("\n") == 1


def test_train_eval_render_cycle(tmp_path, config_path, capsys):
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", config_path, "--out", out_dir]) == 0
    ckpt = os.path.join(out_dir, "checkpoint.json")
    maps = os.path.join(out_dir, "eval_maps.json")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))

    logs_dir = str(tmp_path / "logs")
    assert main(["eval", "--ckpt", ckpt, "--maps", maps, "--repeats", "1",
                 "--save-logs", logs_dir]) == 0
    logs = sorted(os.listdir(logs_dir))
    assert logs
    capsys.readouterr()

    assert main(["render", "--log", os.path.join(logs_dir, logs[0])]) == 0
    out = capsys.readouterr().out
    assert "t=0" in out
    assert "#" in out or "." in out

    assert main(["render", "--log", maps]) == 0
    assert "map 0" in capsys.readouterr().out


def test_bench_writes_metrics(tmp_path, capsys):
    out_path = str(tmp_path / "bench.json")
    assert main(["bench", "--env-steps", "1500", "--loop-steps", "512",
                 "--out", out_path]) == 0
    with open(out_path) as fh:
        results = json.load(fh)
    assert results["env_agent_steps_per_s"] > 0
    assert results["train_env_steps_per_s"] > 0
    # RunConfig defaults: 2 agents, 484-wide observations, 8x8 state
    assert results["replay_bytes_per_entry"] == 345.0
    out = capsys.readouterr().out
    assert "replay_bytes_per_entry: 345" in out
    assert "recorded" in out


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("case", [
    "missing_ckpt", "missing_maps", "cell_outside_grid",
    "map_without_goal", "map_without_size", "map_without_blocked",
    "ckpt_without_mode", "ckpt_without_theta", "ckpt_not_object",
    "maps_config_without_horizon", "maps_config_without_size", "maps_not_object",
    "maps_without_maps", "maps_entry_is_list", "maps_blocked_cell_is_number",
    "maps_agent_is_number",
    "train_truncated", "gen-maps_truncated", "bench_truncated",
    "train_not_object", "gen-maps_not_object", "bench_not_object",
    "train_sets_train_every", "train_sets_eval_repeats", "train_sets_eval_map_kind",
    "no_map_giveway_three_agents", "no_map_giveway_count", "no_map_goal_dist",
    "typed_size_is_str", "typed_mode_is_int", "typed_total_steps_is_float",
])
def test_bad_input_exits_2_with_one_line(tmp_path, config_path, capsys, case):
    maps_path = str(tmp_path / "maps.json")
    main(["gen-maps", "--kind", "random", "--count", "2",
          "--config", config_path, "--seed", "4", "--out", maps_path])
    missing = str(tmp_path / "missing.json")
    if case == "missing_ckpt":
        argv = ["eval", "--ckpt", missing, "--maps", maps_path]
    elif case == "missing_maps":
        argv = ["eval", "--baseline", "random", "--maps", missing]
    elif case == "cell_outside_grid":
        mapset = load_mapset(maps_path)
        mapset["maps"][1]["agents"][0]["start"] = [-1, 0]
        save_mapset(mapset, maps_path)
        argv = ["eval", "--baseline", "greedy_bfs", "--maps", maps_path]
    elif case.startswith("map_without_"):
        with open(maps_path) as fh:
            mapset = json.load(fh)
        key = case[len("map_without_"):]
        record = mapset["maps"][1]
        del (record["agents"][0] if key == "goal" else record)[key]
        save_mapset(mapset, maps_path)
        argv = ["eval", "--baseline", "random", "--maps", maps_path]
    elif case.startswith("maps_"):
        with open(maps_path) as fh:
            mapset = json.load(fh)
        if case == "maps_not_object":
            mapset = [mapset]
        elif case == "maps_without_maps":
            del mapset["maps"]
        elif case == "maps_entry_is_list":
            mapset["maps"][1] = [mapset["maps"][1]]
        elif case == "maps_blocked_cell_is_number":
            mapset["maps"][1]["blocked"][0] = 3
        elif case == "maps_agent_is_number":
            mapset["maps"][1]["agents"][0] = 5
        else:
            del mapset["config"][case[len("maps_config_without_"):]]
        _write(maps_path, json.dumps(mapset))
        argv = ["eval", "--baseline", "random", "--maps", maps_path]
    elif case == "ckpt_not_object":
        ckpt = _write(str(tmp_path / "checkpoint.json"), "[1, 2]")
        argv = ["eval", "--ckpt", ckpt, "--maps", maps_path]
    elif case.startswith("ckpt_without_"):
        payload = bundle_to_payload(MixerBundle(n_agents=1, obs_dim=obs_dim(5),
                                                state_dim=3 * 8 * 8, mode="iql"))
        del payload[case[len("ckpt_without_"):]]
        ckpt = _write(str(tmp_path / "checkpoint.json"), json.dumps(payload))
        argv = ["eval", "--ckpt", ckpt, "--maps", maps_path]
    elif case.startswith("train_sets_"):
        # removed fields are unknown, not ignored, even at their old defaults
        with open(config_path) as fh:
            config = json.load(fh)
        field = case[len("train_sets_"):]
        config[field] = {"train_every": 8, "eval_repeats": 1,
                         "eval_map_kind": "random"}[field]
        bad = _write(str(tmp_path / "bad.json"), json.dumps(config))
        argv = ["train", "--config", bad, "--out", str(tmp_path / "run")]
    elif case.startswith("typed_"):
        # a value of the wrong type for its field, including an int field given a float
        fields = {"typed_size_is_str": {"size": "8"}, "typed_mode_is_int": {"mode": 3},
                  "typed_total_steps_is_float": {"total_steps": 1.5, "eval_interval": 1}}
        bad = _write(str(tmp_path / "bad.json"), json.dumps(fields[case]))
        argv = ["train", "--config", bad, "--out", str(tmp_path / "run")]
    elif case.startswith("no_map_"):
        # configs that no map satisfies end in GenerationFailed
        with open(config_path) as fh:
            config = json.load(fh)
        if case == "no_map_giveway_three_agents":
            config.update(train_map_kind="giveway", n_agents=3)
        else:
            config.update(size=4, obs_radius=2, n_agents=2,
                          goal_dist=16 if case == "no_map_goal_dist" else None)
        bad = _write(str(tmp_path / "bad.json"), json.dumps(config))
        argv = ["train", "--config", bad, "--out", str(tmp_path / "run")]
        if case == "no_map_giveway_count":
            argv = ["gen-maps", "--kind", "giveway", "--count", "5000",
                    "--config", bad, "--out", maps_path]
    else:
        command, kind = case.split("_", 1)
        text = '{"size": 8,' if kind == "truncated" else "[1, 2]"
        bad = _write(str(tmp_path / "bad.json"), text)
        argv = {"train": ["train", "--config", bad, "--out", str(tmp_path / "run")],
                "gen-maps": ["gen-maps", "--kind", "random", "--count", "2",
                             "--config", bad, "--out", maps_path],
                "bench": ["bench", "--config", bad]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("baseline", ["random", "greedy_bfs"])
def test_saved_logs_are_the_scored_episodes(tmp_path, baseline):
    # the final frame of each map's log scores what the evaluation scored
    mapset = gen_mapset("random", 40, EnvConfig(size=8, density=0.3, n_agents=2,
                                                obs_radius=5, horizon=16), seed=5)
    maps_path = str(tmp_path / "maps.json")
    save_mapset(mapset, maps_path)
    report_path, logs_dir = str(tmp_path / "report.json"), str(tmp_path / "logs")
    assert main(["eval", "--baseline", baseline, "--maps", maps_path,
                 "--out", report_path, "--save-logs", logs_dir]) == 0
    with open(report_path) as fh:
        per_map = json.load(fh)["per_map"]
    assert len(os.listdir(logs_dir)) == len(per_map) == 40
    for i, record in enumerate(mapset["maps"]):
        with open(os.path.join(logs_dir, f"episode_{i:04d}.json")) as fh:
            log = json.load(fh)
        assert log["map"] == record
        final = log["frames"][-1]
        assert not any(final["active"])
        goals = [agent["goal"] for agent in record["agents"]]
        reached = [pos == goal for pos, goal in zip(final["positions"], goals)]
        assert sum(reached) / len(reached) == per_map[i], f"map {i}"
