"""Value-factorization learner: shared agent Q-net, monotone mixer, TD training.

All agents share one Q-network (homogeneous agents; identity is implicit in
the egocentric observation). The three modes differ only in how per-agent
Q-values become the value the TD error is taken on:

  qmix  mixing network whose weights are generated per-state by
        hypernetworks; weight generators use an absolute-value output
        activation, so the generated weights are nonnegative and the team
        value is monotone in every agent's Q-value
  vdn   plain sum of per-agent Q-values, no parameters
  iql   no joint value; each agent's own value, with its own reward and TD
        error, on the shared net

The mixer computes, per sample, hidden = ELU(q . W1 + b1) and
Q_tot = hidden . W2 + b2, where W1 and W2 come from single-layer
hypernetworks with absolute activation, b1 from a single linear layer, and
b2 from a two-layer ReLU hypernetwork. Monotonicity of Q_tot in each agent
Q-value holds by construction and makes decentralized per-agent greedy
action selection consistent with the joint greedy action.

All four hypernetworks read the same state, so their first layers are
stored as one fused layer: a contiguous mixer block of ``theta`` after the
agent net holds W (n*e + 3e, s) row-major, whose row blocks generate W1
(n*e rows, abs), b1 (e, identity), W2 (e, abs) and b2's hidden layer
(e, relu); then its bias b (n*e + 3e), then b2's output layer w5 (e) and
b5 (1). Here n is the agent count, e the embed width and s the state
width. The forward pass is one matmul on views of that block, and the
backward pass writes its gradients straight into the matching views of
the gradient buffer.

The learner has one path for all modes: the mode's value of the chosen
Q-values (_mix, the only place it branches on mode), one TD error against
td_targets, one loss and one backward pass. Targets use hard-synced copies of all
trainable parameters. Agents that were inactive at step start contribute
a constant 0 to the value and receive no gradient. The loss is the mean
squared TD error over unmasked entries (samples, or iql's active agents).
Every batch-sized array of an update (tapes, output gradients) belongs to
the bundle's workspace slot and is refilled by the next update of the same
batch size; the parameter gradient is written straight into bundle.grad.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dense_net
from .dense_net import (AdamState, NetParams, ShapeMismatch, Topology,
                        adam_step, backward, clip_global_norm, forward,
                        init_params)
from .grid_world import N_ACTIONS, Action

MODES = ("qmix", "vdn", "iql")

AGENT_HIDDEN = 64
DEFAULT_EMBED_DIM = 32
DEFAULT_GAMMA = 0.99
DEFAULT_LR = 5e-4
DEFAULT_GRAD_CLIP = 10.0

BUNDLE_VERSION = 3

_abs, _abs_vjp = dense_net.ACTIVATIONS["abs"]
_relu, _relu_vjp = dense_net.ACTIVATIONS["relu"]
_elu, _elu_vjp = dense_net.ACTIVATIONS["elu"]


def agent_topology(obs_dim: int) -> Topology:
    """Shared per-agent Q-network: two ReLU hidden layers, linear head."""
    return Topology((obs_dim, AGENT_HIDDEN, AGENT_HIDDEN, N_ACTIONS),
                    ("relu", "relu", "identity"))


class MixerParams(NamedTuple):
    """Views of the mixer block of one flat parameter vector.

    ``W`` (n*e + 3e, s) and ``b`` form the fused hypernetwork layer on the
    state; its row blocks generate W1 (abs), b1 (identity), W2 (abs) and the
    hidden layer of b2 (relu). ``w5`` (1, e) and ``b5`` (1,) map that hidden
    layer to b2.
    """

    W: np.ndarray
    b: np.ndarray
    w5: np.ndarray
    b5: np.ndarray


@dataclass
class LossReport:
    loss: float
    td_errors: np.ndarray
    grad_norm: float
    q_tot_mean: float


class MixerBundle:
    """Trainable learner state: shared agent net, mixer, targets, optimizer.

    All trainable parameters live in one flat vector (``theta``): the agent
    net's layers, then (qmix only) the mixer block. A single adaptive-moment
    optimizer covers both jointly; the target copy is a second vector synced
    by sync_targets(). The constructor performs the initial sync.
    """

    def __init__(self, n_agents: int, obs_dim: int, state_dim: int,
                 mode: str = "qmix", embed_dim: int = DEFAULT_EMBED_DIM,
                 gamma: float = DEFAULT_GAMMA, lr: float = DEFAULT_LR,
                 grad_clip: float = DEFAULT_GRAD_CLIP, seed: int = 0):
        mode = mode.lower()
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not (0.0 < gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        self.n_agents = n_agents
        self.obs_dim = obs_dim
        self.state_dim = state_dim
        self.mode = mode
        self.embed_dim = embed_dim
        self.gamma = gamma
        self.grad_clip = grad_clip
        self.train_steps = 0

        agent = agent_topology(obs_dim)
        rows = (n_agents + 3) * embed_dim
        mixer_size = rows * state_dim + rows + embed_dim + 1 if mode == "qmix" else 0
        total = agent.n_params + mixer_size
        self.theta = np.zeros(total)
        self.theta_target = np.zeros(total)

        # agent net, then W, then w5: the same draws, in the same order, as
        # initialising hw1, hb1, hw2 and hb2 as four separate nets
        rng = np.random.default_rng(seed)
        self.agent_net = init_params(agent, rng, flat_out=self.theta[:agent.n_params])
        self.target_agent_net = NetParams(agent, self.theta_target[:agent.n_params])
        self.mixer = self.target_mixer = None
        if mode == "qmix":
            self.mixer = self.mixer_views(self.theta)
            self.target_mixer = self.mixer_views(self.theta_target)
            bound = math.sqrt(1.0 / state_dim)
            self.mixer.W[:] = rng.uniform(-bound, bound, size=self.mixer.W.shape)
            bound = math.sqrt(1.0 / embed_dim)
            self.mixer.w5[:] = rng.uniform(-bound, bound, size=self.mixer.w5.shape)
        self.adam = AdamState(total, lr=lr)
        # filled in full by each loss_and_grad: backward writes the agent-net
        # slice and mix_backward_batch the mixer block. Allocated ahead of
        # the init draws, it raised the evaluation workload's peak RSS by
        # about 0.4 MB
        self.grad = np.zeros(total)
        self.grad_mixer = self.mixer_views(self.grad) if mode == "qmix" else None
        # the one workspace slot; a bundle that never trains builds none
        self._work: Workspace | None = None
        sync_targets(self)

    def workspace(self, batch_size: int) -> "Workspace":
        """The update's arrays for ``batch_size``, rebuilt when the size changes."""
        if self._work is None or self._work.batch_size != batch_size:
            self._work = Workspace(self, batch_size)
        return self._work

    def mixer_views(self, flat: np.ndarray) -> MixerParams:
        """The mixer block of ``flat`` (theta, its target or a gradient) as views."""
        n, e, s = self.n_agents, self.embed_dim, self.state_dim
        rows = (n + 3) * e
        start = self.agent_net.flat.size
        w_end = start + rows * s
        return MixerParams(W=flat[start:w_end].reshape(rows, s),
                           b=flat[w_end:w_end + rows],
                           w5=flat[w_end + rows:w_end + rows + e].reshape(1, e),
                           b5=flat[w_end + rows + e:])


class MixTape:
    """The arrays of one batched mixing pass over b samples of n agents.

    mix_forward_batch refills them when given the tape, so the Q_tot it
    returns is overwritten by the next forward on the same tape.
    mix_backward_batch adds its scratch on first use.
    """

    def __init__(self, b: int, n: int, e: int):
        self.shape = (b, n, e)
        self.mixer = self.state = self.agent_qs = None
        self.z = np.empty((b, (n + 3) * e))
        self.w1 = np.empty((b, n, e))
        self.w2, self.h4, self.hidden_pre, self.hidden = (np.empty((b, e)) for _ in range(4))
        self.b2 = np.empty((b, 1))
        self.q_tot = np.empty(b)
        self.dz = self.d_hidden_pre = self.g_e = self.d_w1 = self.d_qs = None


def mix_forward_batch(mixer: MixerParams, agent_qs: np.ndarray, state: np.ndarray,
                      tape: MixTape | None = None) -> tuple[np.ndarray, MixTape]:
    """Batched mixing pass: agent Q-values (b, n) + states (b, s) -> Q_tot (b,).

    One matmul on the state computes every hypernetwork pre-activation; the
    returned tape feeds mix_backward_batch. With ``tape`` (built for this
    b, n and embed width) the pass writes into the tape's arrays; without
    one it builds a new tape.
    """
    agent_qs = np.asarray(agent_qs, dtype=np.float64)
    state = np.asarray(state, dtype=np.float64)
    if agent_qs.ndim != 2 or state.ndim != 2 or agent_qs.shape[0] != state.shape[0]:
        raise ShapeMismatch("agent_qs and state must be batched with equal length")
    if state.shape[1] != mixer.W.shape[1]:
        raise ShapeMismatch(f"state width {state.shape[1]} != {mixer.W.shape[1]}")
    b, n = agent_qs.shape
    e = mixer.w5.shape[1]
    if mixer.W.shape[0] != (n + 3) * e:
        raise ShapeMismatch("mixer rows do not match n_agents * embed_dim + 3 * embed_dim")
    if tape is None:
        tape = MixTape(b, n, e)
    elif tape.shape != (b, n, e):
        raise ShapeMismatch(f"tape is for (b, n, e) = {tape.shape}, not {(b, n, e)}")
    tape.mixer, tape.state, tape.agent_qs = mixer, state, agent_qs
    ne = n * e
    z = tape.z
    np.matmul(state, mixer.W.T, out=z)
    z += mixer.b
    _abs(z[:, :ne], out=tape.w1.reshape(b, ne))
    _abs(z[:, ne + e:ne + 2 * e], out=tape.w2)
    _relu(z[:, ne + 2 * e:], out=tape.h4)
    np.matmul(tape.h4, mixer.w5.T, out=tape.b2)
    tape.b2 += mixer.b5
    np.einsum("bn,bne->be", agent_qs, tape.w1, out=tape.hidden_pre)
    tape.hidden_pre += z[:, ne:ne + e]
    _elu(tape.hidden_pre, out=tape.hidden)
    np.einsum("be,be->b", tape.hidden, tape.w2, out=tape.q_tot)
    tape.q_tot += tape.b2[:, 0]
    return tape.q_tot, tape


def mix_backward_batch(tape: MixTape, grad_q_tot: np.ndarray,
                       grads: MixerParams) -> np.ndarray:
    """Gradient of sum(grad_q_tot * Q_tot) w.r.t. the agent Q-values (returned).

    The mixer's parameter gradients are written in full into ``grads``,
    views of a gradient buffer laid out like the mixer block. The returned
    (b, n) array belongs to the tape.
    """
    g = np.asarray(grad_q_tot, dtype=np.float64)[:, None]
    b, n, e = tape.shape
    ne = n * e
    z = tape.z
    if tape.dz is None:
        tape.dz = np.empty_like(z)
        tape.d_hidden_pre, tape.g_e = np.empty((b, e)), np.empty((b, e))
        tape.d_w1 = np.empty_like(tape.w1)
        tape.d_qs = np.empty((b, n))
    dz, d_hidden_pre, g_e = tape.dz, tape.d_hidden_pre, tape.g_e
    np.multiply(g, tape.w2, out=g_e)
    _elu_vjp(tape.hidden_pre, g_e, out=d_hidden_pre)
    np.einsum("bne,be->bn", tape.w1, d_hidden_pre, out=tape.d_qs)
    np.matmul(g.T, tape.h4, out=grads.w5)
    g.sum(axis=0, out=grads.b5)
    np.multiply(tape.agent_qs[:, :, None], d_hidden_pre[:, None, :], out=tape.d_w1)
    _abs_vjp(z[:, :ne], tape.d_w1.reshape(b, ne), out=dz[:, :ne])
    dz[:, ne:ne + e] = d_hidden_pre
    np.multiply(g, tape.hidden, out=g_e)
    _abs_vjp(z[:, ne + e:ne + 2 * e], g_e, out=dz[:, ne + e:ne + 2 * e])
    np.matmul(g, tape.mixer.w5, out=g_e)
    _relu_vjp(z[:, ne + 2 * e:], g_e, out=dz[:, ne + 2 * e:])
    np.matmul(dz.T, tape.state, out=grads.W)
    dz.sum(axis=0, out=grads.b)
    return tape.d_qs


class Workspace:
    """Every array one learner update of batch size b writes into.

    The online and target agent-net tapes (b * n rows), the online and
    target mixer tapes (qmix only), the (b * n, N_ACTIONS) gradient on the
    agent net's output and the row index that picks each row's chosen
    action. MixerBundle.workspace builds one on the first update and
    keeps it while the batch size stays the same.
    """

    def __init__(self, bundle: "MixerBundle", b: int):
        n = bundle.n_agents
        self.batch_size = b
        self.agent = dense_net.Tape(bundle.agent_net.topology, b * n)
        self.target_agent = dense_net.Tape(bundle.agent_net.topology, b * n)
        self.mixer = self.target_mixer = None
        if bundle.mode == "qmix":
            self.mixer = MixTape(b, n, bundle.embed_dim)
            self.target_mixer = MixTape(b, n, bundle.embed_dim)
        self.d_q_all = np.zeros((b * n, N_ACTIONS))
        self.rows = np.arange(b * n)


def _mix(bundle: MixerBundle, mixer: MixerParams | None, qs: np.ndarray,
         state: np.ndarray, tape: MixTape | None = None) -> tuple[np.ndarray, Callable]:
    """Per-agent Q-values (b, n) -> the value the TD error is taken on.

    qmix mixes them into Q_tot (b,), vdn sums them (b,) and iql keeps each
    agent's value (b, n). Returns the value and its backward map
    ``grad_value -> grad_qs``, which writes qmix's mixer gradients into
    the mixer block of ``bundle.grad``. ``tape`` is qmix's mixer tape.
    The only place the learner branches on mode.
    """
    if bundle.mode == "qmix":
        q_tot, tape = mix_forward_batch(mixer, qs, state, tape)
        return q_tot, lambda g: mix_backward_batch(tape, g, bundle.grad_mixer)
    if bundle.mode == "vdn":
        return qs.sum(axis=1), lambda g: np.repeat(g[:, None], qs.shape[1], axis=1)
    return qs, lambda g: g


def td_targets(bundle: MixerBundle, batch, work: Workspace | None = None) -> np.ndarray:
    """Regression targets from the target copies: (b,) for qmix and vdn, (b, n) for iql.

    y = r + gamma * not_terminal * value(max_a Q'(o', a) * (active & ~done)),
    where value is the mode's combination of per-agent values (see _mix)
    and r is the team reward (qmix, vdn) or each active agent's reward
    (iql). Next-step greedy Q-values are decentralized per-agent maxima of
    the target agent net; the monotone mixer makes this equal to the joint
    greedy value. Agents that are off the map at the next step contribute
    a constant 0. Terminal samples (all agents done, or truncation) receive
    no bootstrap term. With ``work`` the target passes use its tapes.
    """
    b, n = batch.actions.shape
    next_q_all, _ = forward(bundle.target_agent_net,
                            batch.next_obs.reshape(b * n, bundle.obs_dim),
                            None if work is None else work.target_agent)
    greedy_q = next_q_all.max(axis=1).reshape(b, n) * (batch.active & ~batch.done)
    next_value, _ = _mix(bundle, bundle.target_mixer, greedy_q, batch.next_state,
                         None if work is None else work.target_mixer)
    reward = batch.rewards * batch.active
    not_terminal = ~batch.terminal
    if next_value.ndim == 2:
        not_terminal = not_terminal[:, None]
    else:
        reward = reward.sum(axis=1)
    return reward + bundle.gamma * not_terminal * next_value


def loss_and_grad(bundle: MixerBundle, batch) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Loss, flat gradient over theta, TD errors, and the batch mean of Q_tot.

    The loss is the mean squared TD error over the unmasked entries: every
    sample for qmix and vdn, every active agent for iql (inactive agents'
    errors are 0). Q_tot is the sum of the agents' values for iql. Targets
    are constants: no gradient flows through the target copies. The
    gradient returned is ``bundle.grad``, overwritten in full by each call;
    every pass writes into the bundle's workspace for this batch size.
    """
    b, n = batch.actions.shape
    work = bundle.workspace(b)
    q_all, agent_tape = forward(bundle.agent_net, batch.obs.reshape(b * n, bundle.obs_dim),
                                work.agent)
    act_flat = batch.actions.reshape(-1)
    chosen = q_all[work.rows, act_flat].reshape(b, n) * batch.active

    y = td_targets(bundle, batch, work)
    value, value_backward = _mix(bundle, bundle.mixer, chosen, batch.state, work.mixer)
    td = value - y
    n_terms = int(batch.active.sum()) if td.ndim == 2 else b
    loss = float(np.square(td).sum() / n_terms)
    # no gradient into inactive slots
    d_chosen = value_backward((2.0 / n_terms) * td) * batch.active

    d_q_all = work.d_q_all
    d_q_all.fill(0.0)
    d_q_all[work.rows, act_flat] = d_chosen.reshape(-1)
    # in place: writing here alone once raised page faults, because every
    # other array of the update was fresh; with all of them owned it adds none
    backward(agent_tape, d_q_all, out=bundle.grad[:bundle.agent_net.flat.size])
    return loss, bundle.grad, td, float(value.reshape(b, -1).sum(axis=1).mean())


def train_step(bundle: MixerBundle, batch) -> LossReport:
    """One gradient step on the mean squared TD error of the batch.

    Backpropagates jointly through the mixer and the shared
    agent net, clips the global gradient norm, and applies the
    adaptive-moment update. Never touches the target parameters. Reports
    the pre-clip gradient norm.
    """
    if len(batch) < 1:
        raise ValueError("train_step needs a non-empty batch")
    loss, grad, td_errors, q_tot_mean = loss_and_grad(bundle, batch)
    norm = clip_global_norm(grad, bundle.grad_clip)
    adam_step(bundle.theta, grad, bundle.adam)
    bundle.train_steps += 1
    return LossReport(loss=loss, td_errors=td_errors, grad_norm=norm,
                      q_tot_mean=q_tot_mean)


def sync_targets(bundle: MixerBundle) -> None:
    """Hard update: target parameters become an exact copy of the online ones."""
    bundle.theta_target[:] = bundle.theta


def select_actions(bundle: MixerBundle, observations: np.ndarray, eps: float,
                   rngs: list[np.random.Generator] | None,
                   active: np.ndarray) -> np.ndarray:
    """Epsilon-greedy actions, (E, n), for E rows of n agents from the
    online net: one forward pass over all E * n ``observations`` (E, n,
    obs_dim), inactive agents' rows included, whose argmax (ties to the
    lowest action code) goes through epsilon_greedy row by row, row e with
    ``rngs[e]`` and ``active[e]``. ``rngs`` may be None when eps is 0.
    """
    if eps > 0.0 and rngs is None:
        raise ValueError("eps > 0 requires an rng per row")
    n_rows, n, width = observations.shape
    q, _ = forward(bundle.agent_net, observations.reshape(n_rows * n, width))
    greedy = q.argmax(axis=1).reshape(n_rows, n)
    return np.array([epsilon_greedy(greedy[e], eps, None if rngs is None else rngs[e],
                                    active[e]) for e in range(n_rows)])


def epsilon_greedy(greedy: np.ndarray, eps: float, rng: np.random.Generator | None,
                   active: np.ndarray) -> np.ndarray:
    """Per-agent epsilon-greedy choice given each agent's greedy action.

    Active agents are visited in index order; each draws one uniform and,
    below eps, a random action code. Inactive agents emit Stay and consume
    no randomness. With eps = 0 the rng is never touched.
    """
    actions = np.full(len(greedy), int(Action.STAY), dtype=np.int64)
    for i in range(len(greedy)):
        if not active[i]:
            continue
        if eps > 0.0 and rng.random() < eps:
            actions[i] = int(rng.integers(N_ACTIONS))
        else:
            actions[i] = int(greedy[i])
    return actions


# --- checkpointing ----------------------------------------------------------

_PAYLOAD_KEYS = ("mode", "gamma", "lr", "grad_clip", "embed_dim", "n_agents",
                 "obs_dim", "state_dim", "train_steps", "theta")


def bundle_to_payload(bundle: MixerBundle) -> dict:
    """Header fields, then ``theta`` as base64 of little-endian float64."""
    return {
        "format_version": BUNDLE_VERSION,
        "kind": "mixer_bundle",
        "mode": bundle.mode,
        "gamma": bundle.gamma,
        "lr": bundle.adam.lr,
        "grad_clip": bundle.grad_clip,
        "embed_dim": bundle.embed_dim,
        "n_agents": bundle.n_agents,
        "obs_dim": bundle.obs_dim,
        "state_dim": bundle.state_dim,
        "train_steps": bundle.train_steps,
        "theta": base64.b64encode(bundle.theta.astype("<f8").tobytes()).decode("ascii"),
    }


def bundle_from_payload(payload: dict) -> MixerBundle:
    """Bundle with theta restored bit-exactly and targets synced to it."""
    if not isinstance(payload, dict):
        raise ValueError(f"a checkpoint must hold a JSON object, not {type(payload).__name__}")
    version = payload.get("format_version")
    if version != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {version}; this build reads "
                         f"version {BUNDLE_VERSION} only (retrain to get one)")
    missing = [key for key in _PAYLOAD_KEYS if key not in payload]
    if missing:
        raise ValueError(f"checkpoint has no {', '.join(missing)}")
    bundle = MixerBundle(
        n_agents=payload["n_agents"], obs_dim=payload["obs_dim"],
        state_dim=payload["state_dim"], mode=payload["mode"],
        embed_dim=payload["embed_dim"], gamma=payload["gamma"],
        lr=payload["lr"], grad_clip=payload["grad_clip"])
    bundle.train_steps = payload["train_steps"]
    raw = base64.b64decode(payload["theta"], validate=True)
    if len(raw) != 8 * bundle.theta.size:
        raise ShapeMismatch(f"checkpoint theta has {len(raw)} bytes, "
                            f"expected {8 * bundle.theta.size}")
    bundle.theta[:] = np.frombuffer(raw, dtype="<f8")
    sync_targets(bundle)
    return bundle


def save_bundle(bundle: MixerBundle, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_payload(bundle), fh)


def load_bundle(path: str) -> MixerBundle:
    with open(path) as fh:
        return bundle_from_payload(json.load(fh))
