"""The benchmark's workloads: what each runs and how its inputs follow from the seed.

Pure stdlib, so the orchestrator can list workloads without importing numpy.
Every workload is a fixed amount of work per process; a run repeats it in
fresh processes until its time budget is spent.
"""
from __future__ import annotations

# Env steps per training process. A multiple of n_envs (8) so both metrics
# rows land exactly at 0 and TRAIN_STEPS.
TRAIN_STEPS = 6_000

# Greedy rollouts are deterministic, so repeats only add work, which keeps
# the set-up share of an evaluation process small.
EVAL_REPEATS = 3

# RunConfig fields per training workload; ``seed`` is the benchmark seed.
TRAIN_CONFIGS = {
    # Criterion 13: RunConfig defaults (8x8, density 0.3, 2 agents, radius 5,
    # horizon 16, qmix, 8 envs, batch 64) with a small eval set and an early
    # learner start. Learner-bound.
    "train-qmix-8x8": {
        "total_steps": TRAIN_STEPS, "eval_interval": TRAIN_STEPS,
        "eval_map_count": 4, "min_buffer": 256,
    },
    # Criteria 10/11 in vdn mode: give-way training maps, evaluated on a
    # 70-map give-way set. The mixer is never called; resets go through
    # give-way sampling and greedy certification rollouts.
    "train-vdn-giveway-8x8": {
        "size": 8, "density": 0.3, "n_agents": 2, "obs_radius": 5,
        "horizon": 16, "goal_dist": None, "mode": "vdn",
        "total_steps": TRAIN_STEPS, "eval_interval": TRAIN_STEPS,
        "train_map_kind": "giveway", "buffer_capacity": 50_000,
    },
}

# Give-way evaluation set of the vdn workload (written as a file, so
# load_mapset runs in the measured set-up).
GIVEWAY_EVAL_COUNT = 70

# evaluate() of the seeded initial bundle on a random map set. An untrained
# greedy net strands its agents, so every episode runs the full horizon and
# each episode is the same amount of work.
EVAL_MAPSET = {"size": 16, "density": 0.3, "n_agents": 6, "obs_radius": 5,
               "horizon": 40, "goal_dist": None}
EVAL_MAP_COUNT = 200

WORKLOADS = {
    "train-qmix-8x8": "train",
    "train-vdn-giveway-8x8": "train",
    "eval-random-16x16-6a": "eval",
}
