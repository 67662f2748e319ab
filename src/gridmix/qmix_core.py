"""Value-factorization learner: shared agent Q-net, monotone mixer, TD training.

All agents share one Q-network (homogeneous agents; identity is implicit in
the egocentric observation). The team value is combined from per-agent
Q-values in one of three modes:

  qmix  mixing network whose weights are generated per-state by
        hypernetworks; weight generators use an absolute-value output
        activation, so the generated weights are nonnegative and the team
        value is monotone in every agent's Q-value
  vdn   plain sum of per-agent Q-values, no parameters
  iql   no joint value; independent per-agent TD losses on the shared net

The mixer computes, per sample, hidden = ELU(q . W1 + b1) and
Q_tot = hidden . W2 + b2, where W1 and W2 come from single-layer
hypernetworks with absolute activation, b1 from a single linear layer, and
b2 from a two-layer ReLU hypernetwork. Monotonicity of Q_tot in each agent
Q-value holds by construction and makes decentralized per-agent greedy
action selection consistent with the joint greedy action.

Targets use hard-synced copies of all trainable parameters. Agents that
were inactive at step start contribute a constant 0 to the mixer and
receive no gradient. The loss is the mean squared TD error over unmasked
entries.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import dense_net
from .dense_net import (AdamState, NetParams, ShapeMismatch, Topology,
                        adam_step, backward, clip_global_norm, forward,
                        init_params)
from .grid_world import Action

MODES = ("qmix", "vdn", "iql")

N_ACTIONS = 5
AGENT_HIDDEN = 64
DEFAULT_EMBED_DIM = 32
DEFAULT_GAMMA = 0.99
DEFAULT_LR = 5e-4
DEFAULT_GRAD_CLIP = 10.0

BUNDLE_VERSION = 1


def agent_topology(obs_dim: int) -> Topology:
    """Shared per-agent Q-network: two ReLU hidden layers, linear head."""
    return Topology((obs_dim, AGENT_HIDDEN, AGENT_HIDDEN, N_ACTIONS),
                    ("relu", "relu", "identity"))


def hyper_topologies(state_dim: int, n_agents: int, embed_dim: int) -> dict[str, Topology]:
    """Hypernetwork shapes keyed by the mixer tensor they generate."""
    return {
        "hw1": Topology((state_dim, n_agents * embed_dim), ("abs",)),
        "hb1": Topology((state_dim, embed_dim), ("identity",)),
        "hw2": Topology((state_dim, embed_dim), ("abs",)),
        "hb2": Topology((state_dim, embed_dim, 1), ("relu", "identity")),
    }


@dataclass
class HyperNets:
    """Weight/bias generators for the mixing network."""

    hw1: NetParams
    hb1: NetParams
    hw2: NetParams
    hb2: NetParams

    def named(self) -> list[tuple[str, NetParams]]:
        return [("hw1", self.hw1), ("hb1", self.hb1), ("hw2", self.hw2), ("hb2", self.hb2)]


@dataclass
class LossReport:
    loss: float
    td_errors: np.ndarray
    grad_norm: float
    q_tot_mean: float


class MixerBundle:
    """Trainable learner state: shared agent net, hypernets, targets, optimizer.

    All trainable parameters live in one flat vector (``theta``) so a single
    adaptive-moment optimizer covers agent net and hypernets jointly; the
    target copy is a second vector synced by sync_targets(). The constructor
    performs the initial sync.
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

        self._topologies: list[tuple[str, Topology]] = [("agent", agent_topology(obs_dim))]
        if mode == "qmix":
            self._topologies += list(hyper_topologies(state_dim, n_agents, embed_dim).items())
        total = sum(t.n_params for _, t in self._topologies)
        self.theta = np.zeros(total)
        self.theta_target = np.zeros(total)
        self._segments: dict[str, slice] = {}
        offset = 0
        for name, topo in self._topologies:
            self._segments[name] = slice(offset, offset + topo.n_params)
            offset += topo.n_params

        rng = np.random.default_rng(seed)
        self._online: dict[str, NetParams] = {}
        self._target: dict[str, NetParams] = {}
        for name, topo in self._topologies:
            seg = self._segments[name]
            self._online[name] = init_params(topo, rng, flat_out=self.theta[seg])
            self._target[name] = NetParams(topo, self.theta_target[seg])
        self.adam = AdamState.for_size(total, lr=lr)
        self._grad_buf = np.zeros(total)  # reused by train_step
        sync_targets(self)

    @property
    def agent_net(self) -> NetParams:
        return self._online["agent"]

    @property
    def target_agent_net(self) -> NetParams:
        return self._target["agent"]

    @property
    def hyper(self) -> HyperNets:
        if self.mode != "qmix":
            raise ValueError(f"{self.mode} mode has no mixing hypernetworks")
        return HyperNets(self._online["hw1"], self._online["hb1"],
                         self._online["hw2"], self._online["hb2"])

    @property
    def target_hyper(self) -> HyperNets:
        if self.mode != "qmix":
            raise ValueError(f"{self.mode} mode has no mixing hypernetworks")
        return HyperNets(self._target["hw1"], self._target["hb1"],
                         self._target["hw2"], self._target["hb2"])


@dataclass
class MixCache:
    """Intermediate tensors needed to backpropagate through one mixing pass."""

    hyper: HyperNets
    state: np.ndarray
    preacts: tuple      # (z1, z2, z3, z4, z5) hypernet pre-activations
    h4: np.ndarray      # hb2 hidden activation
    w1: np.ndarray      # (b, n_agents, embed)
    w2: np.ndarray      # (b, embed)
    hidden_pre: np.ndarray
    hidden: np.ndarray
    agent_qs: np.ndarray
    hidden_activation: str


def mix_forward_batch(hyper: HyperNets, agent_qs: np.ndarray, state: np.ndarray,
                      hidden_activation: str = "elu") -> tuple[np.ndarray, MixCache]:
    """Batched mixing pass: agent Q-values (b, n) + states (b, s) -> Q_tot (b,).

    All four hypernets read the same state, so their first affine layers run
    as one fused matmul; the per-net tapes are assembled from the slices and
    feed the standard backward unchanged.
    """
    agent_qs = np.asarray(agent_qs, dtype=np.float64)
    state = np.asarray(state, dtype=np.float64)
    if agent_qs.ndim != 2 or state.ndim != 2 or agent_qs.shape[0] != state.shape[0]:
        raise ShapeMismatch("agent_qs and state must be batched with equal length")
    if state.shape[1] != hyper.hw1.topology.sizes[0]:
        raise ShapeMismatch(
            f"state width {state.shape[1]} != {hyper.hw1.topology.sizes[0]}")
    b, n = agent_qs.shape
    nets = [net for _, net in hyper.named()]
    w_first = [net.layers[0] for net in nets]
    splits = np.cumsum([w.shape[0] for w, _ in w_first])[:-1]
    z_cat = state @ np.vstack([w for w, _ in w_first]).T \
        + np.concatenate([bias for _, bias in w_first])
    z1, z2, z3, z4 = np.hsplit(z_cat, splits)
    acts = [dense_net.ACTIVATIONS[net.topology.activations[0]][0] for net in nets]
    w1_flat = acts[0](z1)
    b1 = acts[1](z2)
    w2 = acts[2](z3)
    h4 = acts[3](z4)
    w5, b5 = hyper.hb2.layers[1]
    z5 = h4 @ w5.T + b5
    b2 = dense_net.ACTIVATIONS[hyper.hb2.topology.activations[1]][0](z5)
    embed = w2.shape[1]
    if w1_flat.shape[1] != n * embed:
        raise ShapeMismatch("hypernet output does not match n_agents * embed_dim")
    w1 = w1_flat.reshape(b, n, embed)
    hidden_pre = np.einsum("bn,bne->be", agent_qs, w1) + b1
    act, _ = dense_net.ACTIVATIONS[hidden_activation]
    hidden = act(hidden_pre)
    q_tot = np.einsum("be,be->b", hidden, w2) + b2[:, 0]
    cache = MixCache(
        hyper=hyper, state=state, preacts=(z1, z2, z3, z4, z5), h4=h4,
        w1=w1, w2=w2, hidden_pre=hidden_pre, hidden=hidden,
        agent_qs=agent_qs, hidden_activation=hidden_activation)
    return q_tot, cache


def mix_backward_batch(cache: MixCache,
                       grad_q_tot: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of sum(grad_q_tot * Q_tot) w.r.t. agent Q-values and hypernets.

    Mirrors the fused forward: the four hypernets' first-layer weight
    gradients come from a single concatenated matmul against the state.
    """
    g = np.asarray(grad_q_tot, dtype=np.float64)
    b, n, _ = cache.w1.shape
    hyper = cache.hyper
    z1, z2, z3, z4, z5 = cache.preacts
    _, vjp = dense_net.ACTIVATIONS[cache.hidden_activation]
    d_w2 = g[:, None] * cache.hidden
    d_b2 = g[:, None]
    d_hidden = g[:, None] * cache.w2
    d_hidden_pre = vjp(cache.hidden_pre, d_hidden)
    d_b1 = d_hidden_pre
    d_w1 = cache.agent_qs[:, :, None] * d_hidden_pre[:, None, :]
    d_qs = np.einsum("bne,be->bn", cache.w1, d_hidden_pre)

    nets = [net for _, net in hyper.named()]
    vjps = [dense_net.ACTIVATIONS[net.topology.activations[0]][1] for net in nets]
    # hb2 second layer first, to obtain the gradient at its hidden output
    out_vjp = dense_net.ACTIVATIONS[hyper.hb2.topology.activations[1]][1]
    dz5 = out_vjp(z5, d_b2)
    w5, _ = hyper.hb2.layers[1]
    gw5 = dz5.T @ cache.h4
    gb5 = dz5.sum(axis=0)
    dz_cat = np.hstack([
        vjps[0](z1, d_w1.reshape(b, -1)),
        vjps[1](z2, d_b1),
        vjps[2](z3, d_w2),
        vjps[3](z4, dz5 @ w5),
    ])
    gw_cat = dz_cat.T @ cache.state
    gb_cat = dz_cat.sum(axis=0)
    grads = {}
    offset = 0
    for name, net in hyper.named():
        rows = net.layers[0][0].shape[0]
        gw = gw_cat[offset:offset + rows]
        gb = gb_cat[offset:offset + rows]
        offset += rows
        if name == "hb2":
            grads[name] = np.concatenate([gw.ravel(), gb, gw5.ravel(), gb5])
        else:
            grads[name] = np.concatenate([gw.ravel(), gb])
    return d_qs, grads


def td_targets(bundle: MixerBundle, batch) -> np.ndarray:
    """Per-sample regression targets y_tot, computed from the target copies.

    Next-step greedy Q-values come from decentralized per-agent maxima of
    the target agent net; the monotone mixer makes this equal to the joint
    greedy value. Agents that are off the map at the next step contribute a
    constant 0. Terminal samples (all agents done, or truncation) receive
    no bootstrap term.
    """
    if bundle.mode == "iql":
        raise ValueError("iql mode has no joint target; see train_step")
    b, n = batch.actions.shape
    next_q_all, _ = forward(bundle.target_agent_net,
                            batch.next_obs.reshape(b * n, bundle.obs_dim))
    greedy_q = next_q_all.max(axis=1).reshape(b, n)
    next_active = batch.active & ~batch.done
    greedy_q = greedy_q * next_active
    if bundle.mode == "qmix":
        q_tot_next, _ = mix_forward_batch(bundle.target_hyper, greedy_q, batch.next_state)
    else:
        q_tot_next = greedy_q.sum(axis=1)
    r_team = (batch.rewards * batch.active).sum(axis=1)
    return r_team + bundle.gamma * (~batch.terminal) * q_tot_next


def loss_and_grad(bundle: MixerBundle, batch,
                  grad_out: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Loss, flat gradient over theta, per-sample TD errors, Q_tot batch mean.

    Targets are constants: no gradient flows through the target copies.
    ``grad_out`` may provide a reusable gradient buffer; it is overwritten
    in full.
    """
    b, n = batch.actions.shape
    obs_flat = batch.obs.reshape(b * n, bundle.obs_dim)
    q_all, tape = forward(bundle.agent_net, obs_flat)
    rows = np.arange(b * n)
    act_flat = batch.actions.reshape(-1)
    chosen = q_all[rows, act_flat].reshape(b, n) * batch.active

    grad = grad_out if grad_out is not None else np.zeros_like(bundle.theta)
    grads_by_name: dict[str, np.ndarray] = {}
    if bundle.mode == "iql":
        next_q_all, _ = forward(bundle.target_agent_net,
                                batch.next_obs.reshape(b * n, bundle.obs_dim))
        greedy_q = next_q_all.max(axis=1).reshape(b, n)
        alive_next = batch.active & ~batch.done & ~batch.terminal[:, None]
        y = batch.rewards + bundle.gamma * alive_next * greedy_q
        td = (chosen - y) * batch.active
        n_unmasked = int(batch.active.sum())
        loss = float(np.square(td).sum() / n_unmasked)
        d_chosen = (2.0 / n_unmasked) * td
        q_tot_mean = float(chosen.sum(axis=1).mean())
        td_errors = td
    else:
        y = td_targets(bundle, batch)
        if bundle.mode == "qmix":
            q_tot, cache = mix_forward_batch(bundle.hyper, chosen, batch.state)
        else:
            q_tot = chosen.sum(axis=1)
        td = q_tot - y
        loss = float(np.square(td).mean())
        g_q_tot = (2.0 / b) * td
        if bundle.mode == "qmix":
            d_chosen, grads_by_name = mix_backward_batch(cache, g_q_tot)
        else:
            d_chosen = np.repeat(g_q_tot[:, None], n, axis=1)
        d_chosen = d_chosen * batch.active  # no gradient into inactive slots
        q_tot_mean = float(q_tot.mean())
        td_errors = td

    d_q_all = np.zeros((b * n, N_ACTIONS))
    d_q_all[rows, act_flat] = d_chosen.reshape(-1)
    grads_by_name["agent"] = backward(tape, d_q_all, need_input_grad=False)[0]
    for name, seg in bundle._segments.items():
        grad[seg] = grads_by_name[name]
    return loss, grad, td_errors, q_tot_mean


def train_step(bundle: MixerBundle, batch) -> LossReport:
    """One gradient step on the mean squared TD error of the batch.

    Backpropagates jointly through the mixer, hypernets, and the shared
    agent net, clips the global gradient norm, and applies the
    adaptive-moment update. Never touches the target parameters. Reports
    the pre-clip gradient norm.
    """
    if len(batch) < 1:
        raise ValueError("train_step needs a non-empty batch")
    loss, grad, td_errors, q_tot_mean = loss_and_grad(bundle, batch,
                                                      grad_out=bundle._grad_buf)
    norm = clip_global_norm(grad, bundle.grad_clip)
    adam_step(bundle.theta, grad, bundle.adam)
    bundle.train_steps += 1
    return LossReport(loss=loss, td_errors=td_errors, grad_norm=norm,
                      q_tot_mean=q_tot_mean)


def sync_targets(bundle: MixerBundle) -> None:
    """Hard update: target parameters become an exact copy of the online ones."""
    bundle.theta_target[:] = bundle.theta


def select_actions(bundle: MixerBundle, observations: np.ndarray, eps: float,
                   rng: np.random.Generator | None = None,
                   active: np.ndarray | None = None) -> np.ndarray:
    """Per-agent epsilon-greedy actions from the online net.

    Each active agent independently takes a uniform random action with
    probability eps, otherwise the argmax of its Q-vector (ties resolve to
    the lowest action code). Inactive agents emit Stay and consume no
    randomness.
    """
    observations = np.asarray(observations, dtype=np.float64)
    n = observations.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    if eps > 0.0 and rng is None:
        raise ValueError("eps > 0 requires an rng")
    q, _ = forward(bundle.agent_net, observations)
    return epsilon_greedy(q.argmax(axis=1), eps, rng, active)


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

def bundle_to_payload(bundle: MixerBundle) -> dict:
    return {
        "format_version": BUNDLE_VERSION,
        "kind": "mixer_bundle",
        "mode": bundle.mode,
        "gamma": bundle.gamma,
        "embed_dim": bundle.embed_dim,
        "n_agents": bundle.n_agents,
        "obs_dim": bundle.obs_dim,
        "state_dim": bundle.state_dim,
        "train_steps": bundle.train_steps,
        "nets": {name: dense_net.params_to_payload(bundle._online[name])
                 for name, _ in bundle._topologies},
    }


def bundle_from_payload(payload: dict) -> MixerBundle:
    if payload.get("format_version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {payload.get('format_version')}")
    bundle = MixerBundle(
        n_agents=payload["n_agents"], obs_dim=payload["obs_dim"],
        state_dim=payload["state_dim"], mode=payload["mode"],
        embed_dim=payload["embed_dim"], gamma=payload["gamma"])
    bundle.train_steps = payload["train_steps"]
    for name, _ in bundle._topologies:
        loaded = dense_net.params_from_payload(payload["nets"][name])
        seg = bundle._segments[name]
        if loaded.flat.shape != bundle.theta[seg].shape:
            raise ShapeMismatch(f"checkpoint segment {name} has wrong size")
        bundle.theta[seg] = loaded.flat
    sync_targets(bundle)
    return bundle


def save_bundle(bundle: MixerBundle, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_payload(bundle), fh)


def load_bundle(path: str) -> MixerBundle:
    with open(path) as fh:
        return bundle_from_payload(json.load(fh))
