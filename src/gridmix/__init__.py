"""Multi-agent grid pathfinding with a from-scratch QMIX/VDN/IQL learner."""

from .grid_world import (Action, AgentState, EnvConfig, EnvState, GenerationFailed,
                         GridMap, InvalidActionCount, StepOutcome,
                         bfs_distance_field, env_from_record, generate,
                         map_hash, map_record, reward_for)
from .observation import InactiveAgent, obs_dim, observe, observe_all, project_goal
from .dense_net import (AdamState, NetParams, NonFiniteGradient, ShapeMismatch, Tape,
                        Topology, adam_step, backward, clip_global_norm,
                        finite_diff_check, forward, init_params)
from .replay_buffer import Batch, Buffer, JointTransition, Underfilled
from .qmix_core import (LossReport, MixerBundle, epsilon_greedy,
                        load_bundle, save_bundle, select_actions, sync_targets,
                        td_targets, train_step)
from .baselines import GreedyBfsPolicy, RandomPolicy, baseline_policy, play_episode
from .mapsets import gen_mapset, load_mapset, mapset_hash, save_mapset
from .harness import (ConfigInvalid, EvalReport, GreedyNetPolicy, RunConfig,
                      TopologyMismatch, TrainResult, bench_env_stepping,
                      bench_train_loop, evaluate, train)
from .render import MalformedLog, render_episode, render_map, rollout_episode_log

__version__ = "0.1.0"
