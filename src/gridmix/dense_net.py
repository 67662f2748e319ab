"""Minimal dense feedforward networks with exact reverse-mode gradients.

Parameters live in a single flat float64 vector; per-layer weight and bias
views are carved out of it, so optimizer updates on the flat vector are
immediately visible to forward passes. The flat vector may itself be a view
into a larger buffer, which lets several networks share one optimizer.

Layout is layer-major: for each layer, the (n_out, n_in) weight matrix in
row-major order, then the bias. Forward and backward take (batch, n_in)
matrices only (a single input is a 1-row batch); parameter gradients are
summed over the batch.

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


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_vjp(z, g):
    return np.where(z > 0.0, g, 0.0)


def _abs(z):
    return np.abs(z)


def _abs_vjp(z, g):
    return g * np.sign(z)


def _identity(z):
    return z


def _identity_vjp(z, g):
    return g


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(z))


def _elu_vjp(z, g):
    return g * np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


# name -> (activation, vjp); the vjp maps an output gradient to a
# pre-activation gradient, dz = g * act'(z), without materializing act'(z)
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


@dataclass
class Tape:
    """Cached per-layer inputs and pre-activations from one forward pass."""

    params: NetParams
    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def forward(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Affine + activation stack on a (batch, n_in) input.

    Returns the (batch, n_out) output and a backprop tape.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.topology.sizes[0]:
        raise ShapeMismatch(
            f"input shape {x.shape} is not (batch, {params.topology.sizes[0]})")
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    for (w, b), act in zip(params.layers, params.topology.activations):
        inputs.append(x)
        z = x @ w.T + b
        preacts.append(z)
        x = ACTIVATIONS[act][0](z)
    return x, Tape(params, inputs, preacts)


def backward(tape: Tape, grad_output: np.ndarray) -> np.ndarray:
    """Exact gradient of sum(grad_output * output) w.r.t. the parameters.

    Summed over batch rows and returned as a fresh flat vector in the
    parameter layout. The first layer's input gradient is never formed.
    """
    params = tape.params
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != tape.preacts[-1].shape:
        raise ShapeMismatch(
            f"grad_output shape {grad_output.shape} does not match output")
    grad_flat = np.empty(params.topology.n_params)
    grads = NetParams(params.topology, grad_flat)
    for layer in range(params.topology.n_layers - 1, -1, -1):
        act = params.topology.activations[layer]
        dz = ACTIVATIONS[act][1](tape.preacts[layer], g)
        gw, gb = grads.layers[layer]
        np.matmul(dz.T, tape.inputs[layer], out=gw)
        dz.sum(axis=0, out=gb)
        if layer > 0:
            g = dz @ params.layers[layer][0]
    return grad_flat


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

