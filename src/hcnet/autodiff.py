"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tape records every produced Var in creation order together with
vector-Jacobian closures back to its parents; backward() replays the tape
in reverse. The operator set is exactly what the message-passing models
need: broadcasting arithmetic, matmul on the last axis, gather/scatter on
the node axis, a layer's relational messages (`relation_messages`),
concat, layer norm, and stable sigmoid/softplus pieces.
Accumulation order is fixed by tape order, so gradients are deterministic.

A layer's messages are one tape op for all relations. It keeps only the
summed (..., V, d) messages; its VJP recomputes each relation's gathered
rows, factors and exclusive products from the layer's input, one
relation at a time (recomputation in backward, as in gradient
checkpointing), so no per-incidence array outlives the op.

The tape holds only what is still needed. backward() frees as it walks:
once a var has passed its gradient on, it drops that gradient and its
closures (and with them the arrays they captured), so only vars without
parents, the leaves and constants, keep a gradient. A Tape(record=False)
records nothing: its vars carry no parents and the tape keeps no list, so
a forward pass for evaluation holds no more than the arrays still in use.
Every float scatter-add is `scatter_add`, a bincount into a new zero
array that reproduces np.add.at into zeros bit for bit at a fraction of
its cost. Importing the module sets glibc's malloc to keep freed arrays
for reuse (`keep_freed_memory`), so a repeated pass does not page-fault
its arrays in again.
"""

from __future__ import annotations

import ctypes
import math
import os
from typing import Callable

import numpy as np

from .errors import ShapeMismatch

Array = np.ndarray

# glibc's malloc hands a freed block back to the kernel when it was mapped
# on its own (above the mmap threshold) or leaves more than the trim
# threshold free at the top of the heap, and both thresholds adapt to what
# the process freed before. A pass over a large graph allocates tens of MB
# of arrays, so whether it page-faulted them all in again followed the
# process's history: a recorded hrnet forward on V=2000 took 22 ms after
# one training run and 31-34 ms (7300 faults) after a leaner one. Fixed
# thresholds keep freed arrays in the process for the next pass.
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> bool:
    """Have glibc serve arrays up to 32 MB from the heap and keep up to
    2 GB of freed heap; True if both were set. A no-op, False, without
    glibc's mallopt or when either threshold is set in the environment."""
    if any(name in os.environ for name in _MALLOC_ENV):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    )


keep_freed_memory()


class Var:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value: Array, parents: tuple = ()):
        self.value = value
        self.grad: Array | None = None
        self.parents: tuple[tuple["Var", Callable[[Array], Array]], ...] = parents


class Tape:
    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.vars: list[Var] = []  # stays empty when not recording

    def var(self, value: Array, parents: tuple = ()) -> Var:
        if not self.record:
            return Var(np.asarray(value))
        v = Var(np.asarray(value), parents)
        self.vars.append(v)
        return v

    def leaf(self, value: Array) -> Var:
        return self.var(value)

    def constant(self, value: Array) -> Var:
        # Recorded like any var, with no parents, so backward leaves its
        # gradient in .grad as it does a leaf's.
        return self.var(value)


def backward(tape: Tape, root: Var, seed: Array | float = 1.0) -> None:
    """Populate .grad on every leaf and constant reachable from root. A var
    with parents drops its grad and its closures once it has propagated
    them, so the tape can be walked only once."""
    root.grad = np.broadcast_to(np.asarray(seed, dtype=root.value.dtype), root.value.shape).copy()
    for v in reversed(tape.vars):
        if not v.parents:
            continue
        if v.grad is not None:
            for parent, vjp in v.parents:
                g = vjp(v.grad)
                if parent.grad is None:
                    parent.grad = np.array(g, dtype=parent.value.dtype, copy=True)
                else:
                    parent.grad += g
        v.grad = None
        v.parents = ()


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


def exclusive_products_vjp(f: Array, g: Array) -> Array:
    """Gradient of sum(g * exclusive_products(f)) with respect to f. With
    P_j, S_j the products of the factors before and after j, it is
    grad_j = A_j S_j + P_j B_j, where A_j = sum_{i<j} g_i prod_{l<j, l!=i} f_l
    and B_j mirrors it from the right. Two sweeps build them:
    A_{j+1} = A_j f_j + g_j P_j and B_{j-1} = B_j f_j + g_j S_j. The sweeps
    skip the trivial ends (P_0 = 1, A_0 = 0 and their mirrors), so for two
    factors the gradient is a swap; for one it is zero."""
    k = f.shape[-3]
    if k == 1:
        return np.zeros_like(f)

    def at(a: Array, j: int) -> Array:
        return a[..., j, :, :]

    out = np.empty_like(f)  # holds S_j, 0 < j < k-1, until the second sweep
    bs: dict[int, Array] = {}  # B_j, 0 < j < k-1
    s, b = at(f, k - 1), at(g, k - 1)  # S_{k-2}, B_{k-2}
    for j in range(k - 2, 0, -1):
        at(out, j)[...] = s
        bs[j] = b
        b = b * at(f, j) + at(g, j) * s
        s = at(f, j) * s
    at(out, 0)[...] = b
    p, a = at(f, 0), at(g, 0)
    for j in range(1, k - 1):
        oj = at(out, j)
        oj *= a
        oj += p * bs[j]
        a = a * at(f, j) + at(g, j) * p
        p = p * at(f, j)
    at(out, k - 1)[...] = a
    return out


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


# Bins per np.bincount call in scatter_add. Leading slices are summed in
# chunks whose bins fit in 256 KB of float64: a batch of tiny graphs takes
# one call, and a large graph one call per slice, its randomly indexed
# accumulator staying in cache. On a 2-core x86 host, a scatter of 16
# slices of V*d = 32000 bins took 14 ms with one slice per call and
# 23-39 ms with 2 to 16; the hypercycle benchmark workload (up to 20
# slices of 640 bins) ran 29.3 steps/s with these chunks and 27.5 with one
# slice per call (medians of 10 pairs).
SCATTER_BINS = 1 << 15


def scatter_add(shape: tuple[int, ...], idx: Array, vals: Array) -> Array:
    """A new float64 array of `shape` (..., V, d) with vals (..., *idx.shape,
    d) summed from +0.0 at [..., idx, :], duplicates accumulating in index
    order; idx in [0, V). Bit for bit np.add.at(np.zeros(shape), (...,
    idx, slice(None)), vals).

    Each leading slice has V*d bins, and one np.bincount sums a chunk of
    slices. bincount starts every bin at +0.0 and adds its weights in input
    order, as np.add.at does into zeros."""
    V, d = shape[-2:]
    n = V * d
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and not (0 <= idx.min() and idx.max() < V):
        raise IndexError(f"scatter index outside [0, {V})")  # a bin of the next slice
    m = idx.size * d
    count = math.prod(shape[:-2])
    vals_s = vals.reshape(count, m)
    chunk = max(1, min(count, SCATTER_BINS // max(n, 1)))
    bins = np.empty((chunk, m), dtype=np.intp)  # row q: bin of each value of slice q
    cols = bins[0].reshape(-1, d)
    np.multiply(idx.reshape(-1, 1), d, out=cols)
    cols += np.arange(d)
    if chunk > 1:
        np.add(bins[0], (np.arange(1, chunk) * n)[:, None], out=bins[1:])
    parts = []
    for lo in range(0, count, chunk):
        c = min(chunk, count - lo)
        terms = vals_s[lo : lo + c].reshape(-1)
        parts.append(np.bincount(bins[:c].reshape(-1), weights=terms, minlength=c * n))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out.reshape(shape).astype(np.float64, copy=False)  # bincount of no terms is int64


def gather_nodes(tape: Tape, h: Var, idx: Array) -> Var:
    """h (..., V, d) indexed on the node axis: out = h[..., idx, :]."""
    return tape.var(
        h.value[..., idx, :], ((h, lambda g: scatter_add(h.value.shape, idx, g)),)
    )


def take_rows(tape: Tape, table: Var, idx: Array) -> Var:
    """Row lookup in a 2-D parameter table."""
    return tape.var(
        table.value[idx],
        ((table, lambda g: scatter_add(table.value.shape, idx, g)),),
    )


def index_add(tape: Tape, base: Var, idx: Array, vals: Var) -> Var:
    """out = base with vals accumulated at [..., idx, :] by np.add.at
    (duplicates sum). No model calls it since `relation_messages` took over
    its scatter; the benchmark's tracer (`perfbench/tracer.py`) still
    patches it by name."""
    out = base.value.copy()
    np.add.at(out, (Ellipsis, idx, slice(None)), vals.value)
    return tape.var(out, ((base, lambda g: g), (vals, lambda g: g[..., idx, :])))


# --- the message kernel ------------------------------------------------------


def _factors(h: Array, alpha: Array, one_minus: Array, pe: Array, nodes: Array):
    """A relation's gathered rows h[..., nodes.T, :] (..., k, E, d), its
    encodings pe[1..k] (k, 1, d) and its factors alpha*rows + one_minus*pe."""
    hn = h[..., nodes.T, :]
    pk = pe[np.arange(1, nodes.shape[1] + 1)[:, None]]
    return hn, pk, alpha * hn + one_minus * pk


def incidence_messages(
    h: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict, groups: dict
) -> tuple[Array, Array]:
    """Every incidence's message (..., T, d) and its destination node (T,).

    groups maps each relation to its (E, k) node ids and gates to its gate
    (broadcastable to (..., k, E, d)); T is the sum of k*E. Relation by
    relation, in the order of groups, position-major: the message to
    position i of an edge is gate * prod_{j != i} (alpha h_e(j) + one_minus
    pe_j), written straight into the output."""
    T = sum(nodes.size for nodes in groups.values())
    msgs = np.empty(h.shape[:-2] + (T, h.shape[-1]))
    dest = np.empty(T, dtype=np.intp)
    lo = 0
    for rel, nodes in groups.items():
        hi = lo + nodes.size
        _, _, f = _factors(h, alpha, one_minus, pe, nodes)
        out = msgs[..., lo:hi, :].reshape(f.shape)  # splits an axis: a view
        np.multiply(exclusive_products(f), gates[rel], out=out)
        dest[lo:hi] = nodes.T.reshape(-1)
        lo = hi
    return msgs, dest


def _relation_grads(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, nodes: Array
) -> list[Array]:
    """One relation's gradient contributions to gate, one_minus, alpha, pe
    and h (to the gate alone at arity 1, whose product is constant), given
    the gradient G (..., V, d) of the summed messages. Factors and products
    are recomputed from the inputs. Each term is computed as the separate
    tape ops (gather, take_rows, mul, add, exclusive products, gate mul,
    index_add) computed it, so the gradients are bitwise equal to theirs."""
    hn, pk, f = _factors(h.value, alpha.value, one_minus.value, pe.value, nodes)
    gm = G[..., nodes.T, :]
    out = [_unbroadcast(gm * exclusive_products(f), gate.value.shape)]
    if nodes.shape[1] == 1:
        return out
    gf = exclusive_products_vjp(f, _unbroadcast(gm * gate.value, f.shape))
    del gm, f
    gb = _unbroadcast(gf, pk.shape)
    out.append(_unbroadcast(gb * pk, one_minus.value.shape))
    out.append(_unbroadcast(gf * hn, alpha.value.shape))
    del hn
    rows = np.arange(1, nodes.shape[1] + 1)[:, None]
    gpk = _unbroadcast(gb * one_minus.value, pk.shape)
    out.append(scatter_add(pe.value.shape, rows, gpk))
    ghn = _unbroadcast(gf * alpha.value, gf.shape)
    out.append(scatter_add(h.value.shape, nodes.T, ghn))
    return out


def relation_messages(
    tape: Tape, h: Var, alpha: Var, one_minus: Var, pe: Var, gates: dict, groups: dict
) -> Var:
    """A layer's summed messages (..., V, d): `incidence_messages` scattered
    onto their destinations by one `scatter_add`, bit for bit the chain of
    one index_add per relation.

    One tape op for all relations, and it keeps no per-incidence array: its
    VJP recomputes each relation's factors and products from the inputs,
    one relation at a time. The parents are listed as (parent, relation)
    pairs in the order the per-op chain reached them: relations last to
    first, and per relation gate, one_minus, alpha, pe, h. The first pair
    of a relation computes all of its terms, and each pair hands on one."""
    msgs, dest = incidence_messages(
        h.value, alpha.value, one_minus.value, pe.value,
        {rel: g.value for rel, g in gates.items()}, groups,
    )
    out = scatter_add(h.value.shape, dest, msgs)

    def relation_vjp(rel: int, nodes: Array) -> Callable[[Array], Array]:
        pending: list[Array] = []

        def vjp(g: Array) -> Array:
            if not pending:
                grads = _relation_grads(g, h, alpha, one_minus, pe, gates[rel], nodes)
                pending.extend(reversed(grads))
            return pending.pop()

        return vjp

    parents: list[tuple[Var, Callable[[Array], Array]]] = []
    for rel, nodes in reversed(groups.items()):
        vjp = relation_vjp(rel, nodes)
        targets = (gates[rel],) if nodes.shape[1] == 1 else (gates[rel], one_minus, alpha, pe, h)
        parents += [(t, vjp) for t in targets]
    return tape.var(out, tuple(parents))


def index_add_2d(tape: Tape, shape: tuple[int, ...], rows: Array, cols: Array, vals: Var) -> Var:
    """A new array of `shape` (Q, V, d) with vals (M, d) summed from zero at
    [rows, cols, :]."""
    idx = np.ravel_multi_index((rows, cols), shape[:2])
    out = scatter_add((shape[0] * shape[1], shape[2]), idx, vals.value)
    return tape.var(out.reshape(shape), ((vals, lambda g: g[rows, cols]),))


def gather_2d(tape: Tape, x: Var, rows: Array, cols: Array) -> Var:
    """Pick entries x[rows, cols] from a 2-D array."""

    def vjp(g: Array) -> Array:
        idx = np.ravel_multi_index((rows, cols), x.value.shape)
        return scatter_add((x.value.size, 1), idx, g[..., None]).reshape(x.value.shape)

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
