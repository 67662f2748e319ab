"""Multi-agent grid pathfinding with a from-scratch QMIX/VDN/IQL learner."""

from .grid_world import (Action, EnvConfig, EnvState, GenerationFailed, InvalidActionCount,
                         StepOutcome, bfs_distance_field, env_from_record, generate,
                         generate_record, map_hash)
from .observation import obs_dim, observe
from .dense_net import (AdamState, NetParams, NonFiniteGradient, ShapeMismatch, Tape,
                        Topology, adam_step, backward, clip_global_norm, forward,
                        init_params)
from .replay_buffer import Batch, Buffer, JointTransition, Underfilled
from .qmix_core import (LossReport, MixerBundle, epsilon_greedy,
                        load_bundle, save_bundle, select_actions, sync_targets,
                        td_targets, train_step)
from .baselines import GreedyBfsPolicy, RandomPolicy, baseline_policy, play_episode
from .mapsets import gen_mapset, load_mapset, mapset_hash, save_mapset
from .harness import (ConfigInvalid, EvalReport, GreedyNetPolicy, RunConfig,
                      TopologyMismatch, TrainResult, bench_env_stepping,
                      bench_train_loop, evaluate, train)
from .render import EpisodeLogs, MalformedLog, render_episode, render_map

__version__ = "0.1.0"
