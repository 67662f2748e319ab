"""Training and evaluation orchestration.

train() runs epsilon-greedy data collection over a bank of parallel
environment instances, one learner update per joint vector step once the
replay buffer is warm, hard target syncs on a fixed cadence, and a greedy
evaluation on a fixed unseen map set at every eval interval. Metrics go to
a CSV whose header records the evaluation set's content hash; the run is a
pure function of the config, so identical configs produce byte-identical
metrics files (wall-clock readings come from an injectable time source).

Per-environment RNG streams are keyed by (run seed, stream tag, env
index), which makes results independent of scheduling and reproducible
regardless of how many instances run.

evaluate() rolls a greedy policy (or a baseline) over every map of a set
with lockstep rollouts. The set plays in blocks: a block is a run of
consecutive maps, in map-index order, times all their repeats, capped at
EVAL_BLOCK_ROWS agents, built as one grid_world.EnvState straight from the
map records. A map's repeats share its BFS fields. Every episode of a
block advances together: per timestep one observation gather, one
agent-net forward and one array step cover every active agent of every
live episode, and finished episodes stand still. A baseline policy gets
the same block through the same interface. Training steps its n_envs
environments the same way, as the rows of one EnvState, and loads a new
episode, built from the map record its slot draws, into each row that
finished.
"""
from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import qmix_core
from .baselines import play_episode
from .dense_net import forward
from .grid_world import (Action, EnvConfig, EnvState, env_from_record, generate,
                         generate_record, map_hash)
from .mapsets import gen_mapset, load_mapset, mapset_hash, sample_giveway_record
from .observation import obs_dim, observe
from .qmix_core import MixerBundle, load_bundle, save_bundle
from .replay_buffer import Buffer, JointTransition

# rng stream tags; fixed constants are part of the determinism contract
_TAG_MAPS = 1
_TAG_EXPLORE = 2
_TAG_NET = 3
_TAG_BUFFER = 4
_TAG_EVALSET = 5

# consecutive training-map draws that may all land in the evaluation set
# before a reset gives up; only an evaluation set that covers (nearly) the
# whole training family gets there
MAX_RESET_DRAWS = 4096

# agent rows per lockstep evaluation block: larger blocks make fewer, wider
# acting forwards but hold every episode's planes and the forward's
# activations at once, and peak memory grows with the block
EVAL_BLOCK_ROWS = 512

METRICS_COLUMNS = ("steps", "loss_mean", "q_tot_mean", "grad_norm",
                   "eval_success_mean", "eval_success_per_map_json", "wall_s")


class ConfigInvalid(ValueError):
    """A RunConfig field violates its bounds."""


class TopologyMismatch(ValueError):
    """Checkpoint topology does not fit the map set's agents or view radius."""


@dataclass
class RunConfig:
    """Everything a training run depends on; JSON-serializable field for field."""

    size: int = 8
    density: float = 0.3
    n_agents: int = 2
    obs_radius: int = 5
    horizon: int = 16
    goal_dist: int | None = None
    seed: int = 0
    mode: str = "qmix"
    total_steps: int = 100_000
    eval_interval: int = 25_000
    eval_maps: str | None = None       # path; generated from train_map_kind when absent
    eval_map_count: int = 40
    train_map_kind: str = "random"
    n_envs: int = 8
    buffer_capacity: int = 100_000
    min_buffer: int = 1_000
    batch_size: int = 64
    lr: float = 5e-4
    gamma: float = 0.99
    target_sync: int = 200
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 0.1
    embed_dim: int = 32
    grad_clip: float = 10.0
    stop_at_success: float | None = None

    def validate(self) -> None:
        try:
            self.env_config()
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        if self.mode.lower() not in qmix_core.MODES:
            raise ConfigInvalid(f"mode must be one of {qmix_core.MODES}")
        if self.total_steps < 0:
            raise ConfigInvalid("total_steps must be >= 0")
        if self.eval_interval < 1 or self.eval_interval > max(self.total_steps, 1):
            raise ConfigInvalid("eval_interval must be in [1, total_steps]")
        if self.train_map_kind not in ("random", "giveway"):
            raise ConfigInvalid("train_map_kind must be 'random' or 'giveway'")
        if self.n_envs < 1 or self.batch_size < 1 or self.buffer_capacity < 1:
            raise ConfigInvalid("n_envs, batch_size, buffer_capacity must be >= 1")
        if not (self.batch_size <= self.min_buffer <= self.buffer_capacity):
            raise ConfigInvalid("need batch_size <= min_buffer <= buffer_capacity")
        if not (0.0 <= self.eps_end <= self.eps_start <= 1.0):
            raise ConfigInvalid("need 0 <= eps_end <= eps_start <= 1")
        if not (0.0 <= self.eps_fraction <= 1.0):
            raise ConfigInvalid("eps_fraction must be in [0, 1]")
        if self.eval_map_count < 1:
            raise ConfigInvalid("eval_map_count must be >= 1")
        if self.target_sync < 1 or self.embed_dim < 1:
            raise ConfigInvalid("target_sync and embed_dim must be >= 1")
        if not (self.lr > 0 and self.grad_clip > 0):
            raise ConfigInvalid("lr and grad_clip must be > 0")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigInvalid("gamma must lie in (0, 1)")

    def env_config(self, seed: int | None = None) -> EnvConfig:
        return EnvConfig(size=self.size, density=self.density, n_agents=self.n_agents,
                         obs_radius=self.obs_radius, horizon=self.horizon,
                         goal_dist=self.goal_dist, seed=self.seed if seed is None else seed)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigInvalid(f"config file {path} must hold a JSON object, "
                                f"not {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)


@dataclass
class EvalReport:
    per_map: list[float]
    mean: float
    steps: int
    wall_s: float


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    steps: int
    final_eval: EvalReport
    train_map_hashes: set[str] = field(default_factory=set)


class GreedyNetPolicy:
    """Greedy (eps = 0) action selection from a trained bundle: one window
    gather and one agent-net forward over every active agent of a block."""

    def __init__(self, bundle: MixerBundle):
        self.bundle = bundle

    def actions(self, block: EnvState, keys) -> np.ndarray:
        obs, active = observe(block)
        q, _ = forward(self.bundle.agent_net, obs.reshape(len(obs), -1))
        acts = np.full(active.shape, int(Action.STAY), dtype=np.int64)
        acts[active] = q.argmax(axis=1)
        return acts


def _as_policy(policy_or_bundle, mapset: dict):
    cfg = mapset["config"]
    if isinstance(policy_or_bundle, MixerBundle):
        expected = obs_dim(cfg["obs_radius"])
        if policy_or_bundle.obs_dim != expected:
            raise TopologyMismatch(
                f"bundle expects obs_dim {policy_or_bundle.obs_dim}, "
                f"map set implies {expected}")
        if policy_or_bundle.n_agents != cfg["n_agents"]:
            raise TopologyMismatch(
                f"bundle trained for {policy_or_bundle.n_agents} agents, "
                f"map set has {cfg['n_agents']}")
        return GreedyNetPolicy(policy_or_bundle)
    return policy_or_bundle


def _check_records(mapset: dict) -> None:
    """Every record must match the set's size and agent count: a block's
    planes stack into one array, and its actions into one (E, n) array."""
    cfg = mapset["config"]
    for i, record in enumerate(mapset["maps"]):
        if record["size"] != cfg["size"] or len(record["agents"]) != cfg["n_agents"]:
            raise ValueError(
                f"map {i} has size {record['size']} and {len(record['agents'])} "
                f"agents; the set's config has size {cfg['size']} and "
                f"{cfg['n_agents']} agents")


def evaluate(policy_or_bundle, mapset, repeats: int = 1, steps_so_far: int = 0,
             time_fn=time.perf_counter, on_step=None) -> EvalReport:
    """Greedy rollout on every map of the set, ``repeats`` times each.

    Success per map is the mean fraction of agents that reached their goals
    within the horizon; the report mean averages over maps. Accepts a
    MixerBundle, a checkpoint path, or any policy object; map sets may be
    given as a path as well. Maps play in blocks of consecutive maps with
    all their repeats, at most EVAL_BLOCK_ROWS agents per block (one map
    when a single map has more); each block is one EnvState, whose
    episodes step in lockstep. ``on_step`` is passed on to play_episode.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if isinstance(policy_or_bundle, str):
        policy_or_bundle = load_bundle(policy_or_bundle)
    if isinstance(mapset, str):
        mapset = load_mapset(mapset)
    maps = mapset["maps"]
    if not maps:
        raise ValueError("the map set has no maps")
    _check_records(mapset)
    policy = _as_policy(policy_or_bundle, mapset)
    cfg = mapset["config"]
    t0 = time_fn()

    per_map = []
    block_maps = max(1, EVAL_BLOCK_ROWS // (cfg["n_agents"] * repeats))
    for first in range(0, len(maps), block_maps):
        indices = range(first, min(first + block_maps, len(maps)))
        block = EnvState([maps[idx] for idx in indices], repeats, cfg["obs_radius"],
                         cfg["horizon"])
        keys = [(idx, rep) for idx in indices for rep in range(repeats)]
        success = play_episode(block, policy, keys, on_step).mean(axis=1)
        for k in range(0, len(keys), repeats):
            total = 0.0
            for value in success[k:k + repeats]:
                total += float(value)
            per_map.append(total / repeats)
    mean = float(np.mean(per_map))
    return EvalReport(per_map=per_map, mean=mean, steps=steps_so_far,
                      wall_s=time_fn() - t0)


def epsilon_at(step: int, config: RunConfig) -> float:
    """Linear decay from eps_start to eps_end over the first eps_fraction of steps."""
    decay_steps = config.eps_fraction * config.total_steps
    if decay_steps <= 0:
        return config.eps_end
    frac = min(step / decay_steps, 1.0)
    return config.eps_start + (config.eps_end - config.eps_start) * frac


def _stream_rng(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


class _EnvSlot:
    """One training row's private rng streams and the hashes of the map
    records it drew; train() builds the row's episodes from its records."""

    def __init__(self, config: RunConfig, index: int, eval_hashes: set[str]):
        self.config = config
        self.map_rng = _stream_rng(config.seed, _TAG_MAPS, index)
        self.explore_rng = _stream_rng(config.seed, _TAG_EXPLORE, index)
        self.eval_hashes = eval_hashes
        self.seen_hashes: set[str] = set()

    def reset(self) -> dict:
        """The map record of the slot's next episode, a give-way draw or a
        generate_record() map, drawn until it is not in the evaluation set."""
        for _ in range(MAX_RESET_DRAWS):
            if self.config.train_map_kind == "giveway":
                record = sample_giveway_record(self.config.env_config(seed=0),
                                               self.map_rng)
            else:
                record = generate_record(self.config.env_config(
                    seed=int(self.map_rng.integers(2**63))))
            h = map_hash(record)
            if h not in self.eval_hashes:
                break
        else:
            raise ConfigInvalid(
                f"{MAX_RESET_DRAWS} training map draws in a row were all in the "
                "evaluation set: the evaluation set covers the training maps")
        self.seen_hashes.add(h)
        return record


def train(config: RunConfig, out_dir: str, time_fn=time.perf_counter) -> TrainResult:
    """Run one training job; returns paths to the checkpoint and metrics CSV.

    Deterministic given the config: the same seeds produce bit-identical
    parameter trajectories and metrics (modulo the injected time source).
    """
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    t0 = time_fn()

    if config.eval_maps is not None:
        eval_set = load_mapset(config.eval_maps)
    else:
        eval_seed = int(_stream_rng(config.seed, _TAG_EVALSET).integers(2**63))
        eval_set = gen_mapset(config.train_map_kind, config.eval_map_count,
                              config.env_config(seed=0), seed=eval_seed)
        with open(os.path.join(out_dir, "eval_maps.json"), "w") as fh:
            json.dump(eval_set, fh)
    if eval_set["config"]["n_agents"] != config.n_agents \
            or eval_set["config"]["obs_radius"] != config.obs_radius:
        raise ConfigInvalid("evaluation map set does not match the run's agents/radius")
    eval_hashes = {map_hash(m) for m in eval_set["maps"]}
    set_hash = mapset_hash(eval_set)

    obs_d = obs_dim(config.obs_radius)
    state_d = 3 * config.size * config.size
    bundle = MixerBundle(
        n_agents=config.n_agents, obs_dim=obs_d, state_dim=state_d,
        mode=config.mode, embed_dim=config.embed_dim, gamma=config.gamma,
        lr=config.lr, grad_clip=config.grad_clip,
        seed=int(_stream_rng(config.seed, _TAG_NET).integers(2**63)))
    buffer = Buffer(config.buffer_capacity, config.n_agents, obs_d, state_d,
                    seed=int(_stream_rng(config.seed, _TAG_BUFFER).integers(2**63)))

    # one row per slot; a slot's finished row gets the slot's next episode
    slots = [_EnvSlot(config, i, eval_hashes) for i in range(config.n_envs)]
    state = EnvState([slot.reset() for slot in slots], 1, config.obs_radius, config.horizon)

    steps_done = 0
    trains_done = 0
    loss_acc: list[float] = []
    qtot_acc: list[float] = []
    norm_acc: list[float] = []
    last_row_steps = -1
    next_eval_at = 0
    stop = False

    metrics_path = os.path.join(out_dir, "metrics.csv")
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    metrics_fh = open(metrics_path, "w", newline="")
    writer = csv.writer(metrics_fh)
    metrics_fh.write(f"# mapset_sha256={set_hash}\n")
    writer.writerow(METRICS_COLUMNS)

    def emit_row() -> EvalReport:
        nonlocal last_row_steps, loss_acc, qtot_acc, norm_acc
        report = evaluate(bundle, eval_set, steps_so_far=steps_done, time_fn=time_fn)
        row = (
            steps_done,
            repr(float(np.mean(loss_acc))) if loss_acc else "nan",
            repr(float(np.mean(qtot_acc))) if qtot_acc else "nan",
            repr(float(np.mean(norm_acc))) if norm_acc else "nan",
            repr(report.mean),
            json.dumps(report.per_map),
            repr(time_fn() - t0),
        )
        writer.writerow(row)
        metrics_fh.flush()
        loss_acc, qtot_acc, norm_acc = [], [], []
        last_row_steps = steps_done
        return report

    n, n_envs = config.n_agents, config.n_envs
    windows = np.empty((n_envs * n, 4) + (2 * config.obs_radius + 1,) * 2)
    seen_obs = np.zeros((n_envs, n, obs_d))
    # one vector step's transitions, pushed as one block
    block = JointTransition(
        obs=np.zeros((n_envs, n, obs_d)), actions=np.zeros((n_envs, n), np.int64),
        rewards=np.zeros((n_envs, n)), next_obs=np.zeros((n_envs, n, obs_d)),
        state=np.zeros((n_envs, state_d)), next_state=np.zeros((n_envs, state_d)),
        done=np.zeros((n_envs, n), bool), active=np.zeros((n_envs, n), bool),
        terminal=np.zeros(n_envs, bool))
    grid_shape = (n_envs, 3, config.size, config.size)

    def gather() -> np.ndarray:
        """Observe every row into seen_obs, zeros for inactive agents;
        returns the (n_envs, n) active mask."""
        obs, active = observe(state, out=windows)
        seen_obs[:] = 0.0
        seen_obs[active] = obs.reshape(len(obs), obs_d)
        return active

    block.active[:] = gather()
    block.obs[:] = seen_obs
    state.global_state(out=block.state.reshape(grid_shape))
    try:
        last_report = emit_row()  # initial row at step 0
        next_eval_at = config.eval_interval
        while steps_done < config.total_steps and not stop:
            block.actions[:] = qmix_core.select_actions(
                bundle, block.obs, epsilon_at(steps_done, config),
                [slot.explore_rng for slot in slots], block.active)
            outcome = state.step(block.actions)
            block.rewards[:] = outcome.rewards
            block.done[:] = outcome.done
            block.terminal[:] = outcome.episode_over
            # a finished row's final state, before a new episode replaces it
            state.global_state(out=block.next_state.reshape(grid_shape))
            fresh = np.flatnonzero(outcome.episode_over)
            for e in fresh:
                state.load(e, env_from_record(slots[e].reset(), config.obs_radius,
                                              config.horizon))
            # a finished row's agents are all inactive, so its next_obs are
            # zeros; the gather reads the new episodes' first observations
            active = gather()
            block.next_obs[:] = seen_obs
            block.next_obs[fresh] = 0.0
            buffer.push(block)
            block.obs[:] = seen_obs
            block.active[:] = active
            if len(fresh):
                state.global_state(out=block.state.reshape(grid_shape))
            else:
                block.state[:] = block.next_state
            steps_done += n_envs

            if buffer.size >= config.min_buffer:
                report = qmix_core.train_step(bundle, buffer.sample(config.batch_size))
                trains_done += 1
                loss_acc.append(report.loss)
                qtot_acc.append(report.q_tot_mean)
                norm_acc.append(report.grad_norm)
                if trains_done % config.target_sync == 0:
                    qmix_core.sync_targets(bundle)

            if steps_done >= next_eval_at:
                last_report = emit_row()
                while next_eval_at <= steps_done:
                    next_eval_at += config.eval_interval
                if config.stop_at_success is not None \
                        and last_report.mean >= config.stop_at_success:
                    stop = True

        if last_row_steps != steps_done:
            last_report = emit_row()
    finally:
        metrics_fh.close()
    save_bundle(bundle, checkpoint_path)
    hashes: set[str] = set()
    for slot in slots:
        hashes |= slot.seen_hashes
    return TrainResult(checkpoint_path=checkpoint_path, metrics_path=metrics_path,
                       steps=steps_done, final_eval=last_report,
                       train_map_hashes=hashes)


# --- benchmarks ---------------------------------------------------------------

def bench_env_stepping(config: RunConfig, n_steps: int = 30_000,
                       include_observations: bool = False,
                       time_fn=time.perf_counter) -> dict:
    """Agent-steps per second of raw environment stepping, over the
    ``config.n_envs`` rows that train() steps; each step counts n
    agent-steps per row.

    Only the stepping work (and, optionally, the window gather) is timed;
    a finished row is reset with a freshly generated map outside the
    measured window. Actions are drawn ahead of time.
    """
    rng = np.random.default_rng(config.seed)
    n, n_envs = config.n_agents, config.n_envs

    def fresh_config() -> EnvConfig:
        return config.env_config(seed=int(rng.integers(2**63)))

    actions = rng.integers(0, 5, size=(n_steps, n_envs, n))
    state = EnvState([generate_record(fresh_config()) for _ in range(n_envs)], 1,
                     config.obs_radius, config.horizon)
    elapsed = 0.0
    for k in range(n_steps):
        t0 = time_fn()
        outcome = state.step(actions[k])
        if include_observations:
            observe(state)
        elapsed += time_fn() - t0
        for e in np.flatnonzero(outcome.episode_over):
            state.load(e, generate(fresh_config()))
    agent_steps = n_steps * n_envs * n
    return {
        "agent_steps": agent_steps,
        "seconds": elapsed,
        "agent_steps_per_s": agent_steps / elapsed,
        "include_observations": include_observations,
    }


def bench_train_loop(config: RunConfig | None = None, total_steps: int = 8_000,
                     trials: int = 3, time_fn=time.perf_counter) -> dict:
    """Env-steps per second of the full loop (stepping + learning) at
    ``config`` (RunConfig() when None) cut to ``total_steps`` steps, with one
    evaluation on 4 generated maps and learning from max(batch_size, 256)
    transitions on. The best of ``trials`` identical jobs is the capability
    estimate (on shared hardware scheduling noise only ever subtracts); the
    mean goes next to it.
    """
    import tempfile

    config = config or RunConfig()
    config = replace(config, total_steps=total_steps, eval_interval=total_steps,
                     eval_map_count=4, min_buffer=max(config.batch_size, 256), eval_maps=None)
    rates = []
    for _ in range(max(1, trials)):
        t0 = time_fn()
        with tempfile.TemporaryDirectory() as tmp:
            result = train(config, tmp, time_fn=time_fn)
        rates.append(result.steps / (time_fn() - t0))
    return {
        "env_steps": result.steps,
        "trials": len(rates),
        "env_steps_per_s": max(rates),
        "env_steps_per_s_mean": float(np.mean(rates)),
        "mode": config.mode,
        "batch_size": config.batch_size,
    }
