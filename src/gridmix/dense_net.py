"""Minimal dense feedforward networks with exact reverse-mode gradients.

Parameters live in a single flat float64 vector; per-layer weight and bias
views are carved out of it, so optimizer updates on the flat vector are
immediately visible to forward passes. The flat vector may itself be a view
into a larger buffer, which lets several networks share one optimizer.

Layout is layer-major: for each layer, the (n_out, n_in) weight matrix in
row-major order, then the bias. Forward and backward take (batch, n_in)
matrices only (a single input is a 1-row batch); parameter gradients are
summed over the batch.

A Tape owns the float arrays that one forward and backward pass over a
fixed row count writes. A caller that passes the same tape to each
forward, and a gradient buffer as backward's ``out``, repeats a pass
without allocating a float array of the batch's size: the learner keeps
its tapes across updates this way. Without a tape or ``out`` each call
allocates fresh arrays; the arithmetic, and so every bit of the result,
is the same either way.

Everything is 64-bit. Subgradients at kinks: ReLU'(0) = 0, Abs'(0) = 0,
ELU uses alpha = 1 and is smooth at 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    """Input, gradient, or parameter dimensions do not match the topology."""


class NonFiniteGradient(FloatingPointError):
    """A gradient entry is NaN or infinite; training should halt with diagnostics."""


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _relu_vjp(z, g, out=None):
    # np.where(z > 0, g, 0.0) without its fresh array: g's bits ANDed with
    # all ones where z > 0 and with zero (+0.0) elsewhere. g * (z > 0) would
    # give -0.0 where g < 0, and a masked np.copyto is twice as slow as this
    if out is None:
        out = np.empty_like(g)
    bits = out.view(np.int64)
    np.greater(z, 0.0, out=bits)
    np.negative(bits, out=bits)
    np.bitwise_and(bits, g.view(np.int64), out=bits)
    return out


def _abs(z, out=None):
    return np.abs(z, out=out)


def _abs_vjp(z, g, out=None):
    out = np.sign(z, out=out)
    out *= g
    return out


def _identity(z, out=None):
    return z


def _identity_vjp(z, g, out=None):
    return g


def _elu(z, out=None):
    out = np.expm1(z, out=out)
    np.copyto(out, z, where=z > 0.0)
    return out


def _elu_vjp(z, g, out=None):
    out = np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    np.copyto(out, 1.0, where=z > 0.0)
    out *= g
    return out


# name -> (activation, vjp); the vjp maps an output gradient to a
# pre-activation gradient, dz = g * act'(z). Both write into ``out`` when
# given (which must not alias their inputs) and return it; identity
# returns its input instead.
ACTIVATIONS = {
    "relu": (_relu, _relu_vjp),
    "abs": (_abs, _abs_vjp),
    "identity": (_identity, _identity_vjp),
    "elu": (_elu, _elu_vjp),
}

@dataclass(frozen=True)
class Topology:
    """Layer sizes [n0, n1, ..., nL] and one activation name per layer."""

    sizes: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.sizes) < 2:
            raise ValueError("topology needs at least one layer")
        if any(s < 1 for s in self.sizes):
            raise ValueError("layer sizes must be >= 1")
        if len(self.activations) != len(self.sizes) - 1:
            raise ValueError("need exactly one activation per layer")
        for name in self.activations:
            if name not in ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def n_params(self) -> int:
        return sum(n_in * n_out + n_out
                   for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]))


class NetParams:
    """Flat parameter vector plus per-layer views into it."""

    def __init__(self, topology: Topology, flat: np.ndarray):
        flat = np.asarray(flat)
        if flat.dtype != np.float64 or flat.ndim != 1:
            raise ShapeMismatch("params must be a 1-D float64 vector")
        if flat.shape[0] != topology.n_params:
            raise ShapeMismatch(
                f"expected {topology.n_params} params, got {flat.shape[0]}")
        self.topology = topology
        self.flat = flat
        self.layers: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for n_in, n_out in zip(topology.sizes[:-1], topology.sizes[1:]):
            w = flat[offset:offset + n_in * n_out].reshape(n_out, n_in)
            offset += n_in * n_out
            b = flat[offset:offset + n_out]
            offset += n_out
            self.layers.append((w, b))


def init_params(topology: Topology, rng: np.random.Generator,
                flat_out: np.ndarray | None = None) -> NetParams:
    """Scaled uniform init: W ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)), biases zero."""
    if flat_out is None:
        flat_out = np.zeros(topology.n_params)
    params = NetParams(topology, flat_out)
    for w, b in params.layers:
        bound = math.sqrt(1.0 / w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
        b[:] = 0.0
    return params


class Tape:
    """The arrays of one forward pass over a fixed number of rows.

    ``acts[0]`` is the caller's input, ``preacts[k]`` layer k's
    pre-activation and ``acts[k + 1]`` its output (the pre-activation
    itself for an identity layer). forward() refills them when given the
    tape, so the output it returns is overwritten by the next forward on
    the same tape. backward() adds its own scratch on first use: the
    pre-activation gradients ``dz`` and the gradients ``dx`` propagated
    to each layer's input.
    """

    def __init__(self, topology: Topology, rows: int):
        self.topology = topology
        self.rows = rows
        self.params: NetParams | None = None
        self.preacts = [np.empty((rows, n)) for n in topology.sizes[1:]]
        self.acts: list[np.ndarray | None] = [None] + [
            z if act == "identity" else np.empty_like(z)
            for z, act in zip(self.preacts, topology.activations)]
        self.dz: list[np.ndarray | None] | None = None
        self.dx: list[np.ndarray | None] | None = None


def forward(params: NetParams, x: np.ndarray,
            tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Affine + activation stack on a (batch, n_in) input.

    Returns the (batch, n_out) output and the backprop tape holding it.
    With ``tape`` (built for this topology and row count) the pass writes
    into the tape's arrays; without one it builds a new tape.
    """
    x = np.asarray(x, dtype=np.float64)
    topology = params.topology
    if x.ndim != 2 or x.shape[1] != topology.sizes[0]:
        raise ShapeMismatch(
            f"input shape {x.shape} is not (batch, {topology.sizes[0]})")
    if tape is None:
        tape = Tape(topology, x.shape[0])
    elif tape.rows != x.shape[0] or tape.topology != topology:
        raise ShapeMismatch(f"tape holds {tape.rows} rows of {tape.topology.sizes}, "
                            f"not {x.shape[0]} of {topology.sizes}")
    tape.params = params
    tape.acts[0] = x
    for layer, ((w, b), act) in enumerate(zip(params.layers, topology.activations)):
        z = tape.preacts[layer]
        np.matmul(tape.acts[layer], w.T, out=z)
        z += b
        ACTIVATIONS[act][0](z, out=tape.acts[layer + 1])
    return tape.acts[-1], tape


def backward(tape: Tape, grad_output: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of sum(grad_output * output) w.r.t. the parameters.

    Summed over batch rows, in the parameter layout, written into ``out``
    (a float64 vector of the parameter count, such as a view into a
    larger gradient buffer) or, without it, into a fresh vector; returns
    that vector. The first layer's input gradient is never formed.
    """
    params, topology = tape.params, tape.topology
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != tape.preacts[-1].shape:
        raise ShapeMismatch(
            f"grad_output shape {grad_output.shape} does not match output")
    if out is None:
        out = np.empty(topology.n_params)
    grads = NetParams(topology, out)
    if tape.dz is None:
        tape.dz = [None if act == "identity" else np.empty_like(z)
                   for z, act in zip(tape.preacts, topology.activations)]
        tape.dx = [None] + [np.empty_like(a) for a in tape.acts[1:-1]]
    for layer in range(topology.n_layers - 1, -1, -1):
        act = topology.activations[layer]
        dz = ACTIVATIONS[act][1](tape.preacts[layer], g, out=tape.dz[layer])
        gw, gb = grads.layers[layer]
        np.matmul(dz.T, tape.acts[layer], out=gw)
        dz.sum(axis=0, out=gb)
        if layer > 0:
            g = np.matmul(dz, params.layers[layer][0], out=tape.dx[layer])
    return out


# standard Adam constants (Kingma and Ba)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adaptive-moment optimizer state over one flat parameter vector."""

    def __init__(self, n: int, lr: float = 5e-4):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.step = 0
        self.lr = lr
        self._scratch = np.empty(n)


def adam_step(flat_params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """Bias-corrected adaptive-moment update, in place. Deterministic.

    The update is the standard m_hat / (sqrt(v_hat) + eps) rule with the
    bias corrections folded into the step size, which avoids temporaries on
    the hot path: lr * m_hat / (sqrt(v_hat) + eps) is computed as
    (lr * s2 / (1 - b1^t)) * m / (sqrt(v) + eps * s2) with s2 = sqrt(1 - b2^t).
    """
    if flat_params.shape != grads.shape or flat_params.shape != state.m.shape:
        raise ShapeMismatch("params, grads, and moments must have equal length")
    # one reduction instead of an isfinite pass: any nan/inf entry poisons the sum
    if not math.isfinite(float(grads.sum())):
        raise NonFiniteGradient("non-finite gradient entry; halting update")
    state.step += 1
    scratch = state._scratch
    state.m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=scratch)
    state.m += scratch
    state.v *= ADAM_BETA2
    np.square(grads, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    state.v += scratch
    s2 = math.sqrt(1.0 - ADAM_BETA2 ** state.step)
    alpha = state.lr * s2 / (1.0 - ADAM_BETA1 ** state.step)
    np.sqrt(state.v, out=scratch)
    scratch += ADAM_EPS * s2
    np.divide(state.m, scratch, out=scratch)
    scratch *= alpha
    flat_params -= scratch
    return flat_params


def clip_global_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale ``grads`` in place so its l2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    norm = float(np.linalg.norm(grads))
    if norm > max_norm and norm > 0.0:
        grads *= max_norm / norm
    return norm

