"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tape records every produced Var in creation order together with
vector-Jacobian closures back to its parents; backward() replays the tape
in reverse. The operator set is exactly what the message-passing models
need: broadcasting arithmetic, matmul on the last axis, gather/scatter on
the node axis, exclusive products, concat, layer norm, and stable
sigmoid/softplus pieces.
Accumulation order is fixed by tape order, so gradients are deterministic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ShapeMismatch

Array = np.ndarray


class Var:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value: Array, parents: tuple = ()):
        self.value = value
        self.grad: Array | None = None
        self.parents: tuple[tuple["Var", Callable[[Array], Array]], ...] = parents


class Tape:
    def __init__(self) -> None:
        self.vars: list[Var] = []

    def var(self, value: Array, parents: tuple = ()) -> Var:
        v = Var(np.asarray(value), parents)
        self.vars.append(v)
        return v

    def leaf(self, value: Array) -> Var:
        return self.var(value)

    def constant(self, value: Array) -> Var:
        # Recorded like any var but with no parents; gradient is discarded.
        return self.var(value)


def backward(tape: Tape, root: Var, seed: Array | float = 1.0) -> None:
    """Populate .grad on every Var reachable from root."""
    root.grad = np.broadcast_to(np.asarray(seed, dtype=root.value.dtype), root.value.shape).copy()
    for v in reversed(tape.vars):
        if v.grad is None:
            continue
        for parent, vjp in v.parents:
            g = vjp(v.grad)
            if parent.grad is None:
                parent.grad = np.array(g, dtype=parent.value.dtype, copy=True)
            else:
                parent.grad += g


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(tape: Tape, a: Var, b: Var) -> Var:
    return tape.var(
        a.value + b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g, b.value.shape)),
        ),
    )


def sub(tape: Tape, a: Var, b: Var) -> Var:
    return tape.var(
        a.value - b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(-g, b.value.shape)),
        ),
    )


def mul(tape: Tape, a: Var, b: Var) -> Var:
    return tape.var(
        a.value * b.value,
        (
            (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
        ),
    )


def exclusive_products(f: Array) -> Array:
    """out[..., i, :, :] = product of f[..., j, :, :] over every j != i
    (axis -3): a running suffix written into out, then multiplied by a
    running prefix. No division, so zero factors are exact; one factor
    gives the empty product, all ones."""
    k = f.shape[-3]
    if k == 1:
        return np.ones_like(f)
    out = np.empty_like(f)
    out[..., k - 2, :, :] = f[..., k - 1, :, :]
    for i in range(k - 3, -1, -1):
        np.multiply(f[..., i + 1, :, :], out[..., i + 1, :, :], out=out[..., i, :, :])
    pre = f[..., 0, :, :]
    for i in range(1, k - 1):
        out[..., i, :, :] *= pre
        pre = pre * f[..., i, :, :]
    out[..., k - 1, :, :] = pre
    return out


def exclusive_prod(tape: Tape, f: Var) -> Var:
    """exclusive_products on the tape. With P_j, S_j the products of the
    factors before and after j, the VJP is grad_j = A_j S_j + P_j B_j,
    where A_j = sum_{i<j} g_i prod_{l<j, l!=i} f_l and B_j mirrors it from
    the right. Two sweeps build them: A_{j+1} = A_j f_j + g_j P_j and
    B_{j-1} = B_j f_j + g_j S_j. The sweeps skip the trivial ends (P_0 = 1,
    A_0 = 0 and their mirrors), so for two factors the VJP is a swap."""
    x = f.value
    k = x.shape[-3]
    if k == 1:
        return tape.constant(exclusive_products(x))

    def at(a: Array, j: int) -> Array:
        return a[..., j, :, :]

    def vjp(g: Array) -> Array:
        out = np.empty_like(x)  # holds S_j, 0 < j < k-1, until the second sweep
        bs: dict[int, Array] = {}  # B_j, 0 < j < k-1
        s, b = at(x, k - 1), at(g, k - 1)  # S_{k-2}, B_{k-2}
        for j in range(k - 2, 0, -1):
            at(out, j)[...] = s
            bs[j] = b
            b = b * at(x, j) + at(g, j) * s
            s = at(x, j) * s
        at(out, 0)[...] = b
        p, a = at(x, 0), at(g, 0)
        for j in range(1, k - 1):
            oj = at(out, j)
            oj *= a
            oj += p * bs[j]
            a = a * at(x, j) + at(g, j) * p
            p = p * at(x, j)
        at(out, k - 1)[...] = a
        return out

    return tape.var(exclusive_products(x), ((f, vjp),))


def scale(tape: Tape, a: Var, s: float) -> Var:
    return tape.var(a.value * s, ((a, lambda g: g * s),))


def neg(tape: Tape, a: Var) -> Var:
    return scale(tape, a, -1.0)


def matmul_last(tape: Tape, x: Var, w: Var) -> Var:
    """y[..., m] = x[..., n] @ w[m, n].T"""
    if x.value.shape[-1] != w.value.shape[1]:
        raise ShapeMismatch(f"{x.value.shape} @ {w.value.shape}.T")

    def grad_w(g: Array) -> Array:
        gf = g.reshape(-1, g.shape[-1])
        xf = x.value.reshape(-1, x.value.shape[-1])
        return gf.T @ xf

    return tape.var(
        x.value @ w.value.T,
        ((x, lambda g: g @ w.value), (w, grad_w)),
    )


def concat_last(tape: Tape, parts: list[Var]) -> Var:
    sizes = [p.value.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(lo: int, hi: int) -> Callable[[Array], Array]:
        return lambda g: g[..., lo:hi]

    parents = tuple(
        (p, make_vjp(int(offsets[i]), int(offsets[i + 1]))) for i, p in enumerate(parts)
    )
    return tape.var(np.concatenate([p.value for p in parts], axis=-1), parents)


def relu(tape: Tape, a: Var) -> Var:
    mask = a.value > 0
    return tape.var(a.value * mask, ((a, lambda g: g * mask),))


def stable_sigmoid(x: Array) -> Array:
    """1 / (1 + exp(-x)) without overflow: exp is only taken of -|x|."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(tape: Tape, a: Var) -> Var:
    out = stable_sigmoid(a.value)
    return tape.var(out, ((a, lambda g: g * out * (1.0 - out)),))


def softplus(tape: Tape, a: Var) -> Var:
    sig = stable_sigmoid(a.value)
    return tape.var(np.logaddexp(0.0, a.value), ((a, lambda g: g * sig),))


def sum_all(tape: Tape, a: Var) -> Var:
    return tape.var(
        np.asarray(a.value.sum()), ((a, lambda g: np.broadcast_to(g, a.value.shape)),)
    )


def gather_nodes(tape: Tape, h: Var, idx: Array) -> Var:
    """h (..., V, d) indexed on the node axis: out = h[..., idx, :]."""

    def vjp(g: Array) -> Array:
        out = np.zeros_like(h.value)
        np.add.at(out, (Ellipsis, idx, slice(None)), g)
        return out

    return tape.var(h.value[..., idx, :], ((h, vjp),))


def take_rows(tape: Tape, table: Var, idx: Array) -> Var:
    """Row lookup in a 2-D parameter table."""

    def vjp(g: Array) -> Array:
        out = np.zeros_like(table.value)
        np.add.at(out, idx, g)
        return out

    return tape.var(table.value[idx], ((table, vjp),))


def index_add(tape: Tape, base: Var, idx: Array, vals: Var) -> Var:
    """out = base with vals accumulated at [..., idx, :] (duplicates sum)."""
    out = base.value.copy()
    np.add.at(out, (Ellipsis, idx, slice(None)), vals.value)
    return tape.var(
        out,
        ((base, lambda g: g), (vals, lambda g: g[..., idx, :])),
    )


def index_add_2d(tape: Tape, base: Var, rows: Array, cols: Array, vals: Var) -> Var:
    """out = base with vals (M, d) accumulated at [rows, cols, :]."""
    out = base.value.copy()
    np.add.at(out, (rows, cols), vals.value)
    return tape.var(
        out,
        ((base, lambda g: g), (vals, lambda g: g[rows, cols])),
    )


def gather_2d(tape: Tape, x: Var, rows: Array, cols: Array) -> Var:
    """Pick entries x[rows, cols] from a 2-D array."""

    def vjp(g: Array) -> Array:
        out = np.zeros_like(x.value)
        np.add.at(out, (rows, cols), g)
        return out

    return tape.var(x.value[rows, cols], ((x, vjp),))


def reshape(tape: Tape, x: Var, shape: tuple[int, ...]) -> Var:
    return tape.var(
        x.value.reshape(shape), ((x, lambda g: g.reshape(x.value.shape)),)
    )


def broadcast_middle(tape: Tape, x: Var, size: int) -> Var:
    """(Q, 1, d) -> (Q, size, d) by repetition; backward sums the axis."""
    out = np.broadcast_to(x.value, (x.value.shape[0], size, x.value.shape[2]))
    return tape.var(
        out.copy(), ((x, lambda g: g.sum(axis=1, keepdims=True)),)
    )


def layer_norm(tape: Tape, x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then scale and shift."""
    mu = x.value.mean(axis=-1, keepdims=True)
    var = x.value.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.value - mu) * inv

    def grad_x(g: Array) -> Array:
        dxhat = g * gamma.value
        return inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    return tape.var(
        gamma.value * xhat + beta.value,
        (
            (x, grad_x),
            (gamma, lambda g: _unbroadcast(g * xhat, gamma.value.shape)),
            (beta, lambda g: _unbroadcast(g, beta.value.shape)),
        ),
    )


def dropout(tape: Tape, x: Var, rate: float, rng: np.random.Generator) -> Var:
    if rate <= 0.0:
        return x
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return mul(tape, x, tape.constant(keep))
