"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tape records every produced Var in creation order together with
vector-Jacobian closures back to its parents; backward() replays the tape
in reverse. The operator set is exactly what the message-passing models
need: broadcasting arithmetic, matmul on the last axis, gather/scatter on
the node axis, a layer's relational messages (`relation_messages`), a
layer's tail (`layer_tail`), both decoders' MLP (`mlp_decoder`),
concat, layer norm, and stable sigmoid/softplus pieces.
Accumulation order is fixed by tape order, so gradients are deterministic.

A layer's messages are one tape op for all relations. It keeps only the
summed (Q, V, d) messages; its VJP recomputes each relation's gathered
rows, factors and exclusive products from the layer's input, one
relation at a time (recomputation in backward, as in gradient
checkpointing), so no per-incidence array outlives the op. Both
directions walk the query axis in blocks whose per-incidence arrays fit
`BLOCK_BYTES` (2 MB), so a block's arrays stay in cache while they are
reused, and each block sums straight into its rows of the output. The
scatter bins of a pass are built and range checked once (`MessagePlan`)
and serve every block, layer and VJP. Blocking changes no bit: every sum
runs in the order of the unblocked ops. Two sums run over all queries at
once in the memory order of a gather h[..., idx, :], which NumPy lays out
as (k, E, Q, d): alpha's gradient and a shared gate's. Each keeps one
full buffer per relation with that layout; a C-ordered buffer sums them
in another order.

A pass of two or more blocks runs on two threads (`run_blocks`) when the
process may run on two or more CPUs: the calling thread takes the even
blocks and a thread started for the pass the odd ones, and the pass
joins that thread before it returns, so no thread outlives a pass. No
query reads another's rows, so each block writes only its own rows; the
one sum that runs across blocks, the VJP's Q-sum behind one_minus's and
pe's gradients, adds each block's rows in block order (`_Pass.in_turn`),
so the bits are the serial pass's. A pass of one block, or on one CPU,
runs on the calling thread alone, with no thread, lock or state of its
own. NumPy drops the GIL in its ufunc, `take`, BLAS and (on NumPy 2.4.6)
`np.bincount` loops, so the two threads' scatters overlap too (`Bins`).

A forward's first layer with queries starts from features that are +0.0
off the given nodes (`nn._query_init`), and `relation_messages` is told
those (query, node) pairs. When one query's per-incidence messages fill
a block, its forward then sums only what differs between queries
(`_given_messages`), with the same bits. Off the given nodes a factor
alpha*h + (1-alpha)*p_j is bitwise the factor of an all-zero input, so
a message whose edge holds no given node at another position is bitwise
that input's message under the same gate, and a node none of whose
incidences is touched sums, from +0.0 in incidence order, exactly the
all-zero pass's sum. So the all-zero pass runs once per distinct set of
gate rows (one per query relation; one when the gates are shared), and
only the nodes of an edge that holds a given node are summed again, over
all of their incidences in incidence order, from the true messages of the
one message kernel (`incidence_messages`): the same values in the same
order as the full pass. The VJP recomputes from the inputs as always.

The VJP of a layer's messages reads G, the gradient of their sum. A
training loss reads the logits of a positive and a few negatives per
query (11 of V=1000 at the `train` benchmark's size), so most rows of the
last layer's G are +0.0 or -0.0 throughout, and only 2-3 % of its (query,
edge) pairs hold a live row. A pair without one has gm = +-0.0 at every
position, so with finite factors and products every term it adds to a
sum (the gate's, the Q-sum's, alpha's, h's) is +-0.0. Adding +-0.0 to a
sum changes no bit unless the sum is 0.0, whose sign it may set (NumPy
2.4.6 starts its sums from +0.0, so even then it does not; nothing here
leans on that): a bincount from +0.0, a sequential sum and a pairwise sum
at fixed places all end on the same bits without those terms, unless
they end on a zero. So, on a graph where one query's per-incidence
arrays fill a block, the VJP finds G's live rows once per op, and a
relation of arity 2 or more whose pairs that hold one are at most
`PAIR_SHARE` (0.25) of its Q*E runs on those pairs alone (`_pair_terms`):
node tables on the flattened (Q*V, d) rows, through the one kernel's
`_factors`, `exclusive_products` and `exclusive_products_vjp`, each sum
a bincount from +0.0 over the pairs' terms in its dense sum's order
(position, edge, query), alpha's terms in their places of a zero (k, E,
Q, d) buffer summed as the dense buffer is. The relation falls back to
the dense pass when a summed entry (a gate's, the Q-sum's total over
edges, alpha's) is exactly 0.0, and the branch is not taken when the
op's output is not finite: every message enters it, so a finite output
means finite factors, partial products and gates, and left-out terms
that are +-0.0. On the `train` benchmark's graph the branch broke even
at a share of about 0.3 on two CPUs (0.55 on one); a `train` step's last
layer (0.02-0.03) takes it, 57-60 ms of VJP becoming 10-11 ms, while its
middle layer (0.3-0.42) and first layer (0.99) stay dense. Hypercycle
and theorem-suite graphs fill no block, so their VJP never looks.

A layer's tail (W [h || msgs] + b through layer norm, dropout and ReLU,
plus the skip h) and the decoders' MLP are one tape op each. They run
the NumPy calls of the per-op chains they replaced in order, so every
bit is the chains', and keep only what their VJPs read (the tail xhat,
inv and boolean masks, the decoder its hidden layer and mask),
rebuilding their input rows for a weight's gradient. The decoder's
caller builds its input rows for a range of queries and spreads their
gradient, so the unary and the k-ary decoder are one op. Both ops walk
the query axis on `run_blocks` too, in blocks of as many queries as
`BLOCK_BYTES` holds of their input rows, each block building only its
own. They cut nothing but the query axis of a stacked product (Q, V, n)
@ (n, m), which NumPy runs as one matrix product per query, so a block's
rows are the whole product's bits; cut by rows, a 2-D product (M, n) @
(n, m) may change its bits, so the k-ary decoder's 2-D input is one
block, and `evalrank` runs hrnet's per-query decodes on the two threads
instead. Sums over all queries (the weights', biases', gamma's and
beta's gradients) run once over the whole arrays after the blocks. A
fused op computes all of its parents' gradients on the first VJP call
and hands them out one per parent (`_shared_vjp`).

The tape holds only what is still needed. backward() frees as it walks:
once a var has passed its gradient on, it drops that gradient and its
closures (and with them the arrays they captured), so only the leaves
keep a gradient. It calls no VJP for a Constant (a closed-form encoding
table, hrnet's all-ones start, the loss's adversarial weights), and a
fused op lists no Constant as a parent, so its hand-out cannot slip. A
Tape(record=False) records nothing: its vars carry no parents and the
tape keeps no list, so a forward pass for evaluation holds no more than
the arrays still in use.
Every float scatter-add is a `Bins.sum`, a bincount into a new zero
array that reproduces np.add.at into zeros bit for bit at a fraction of
its cost; `scatter_add` builds the bins for a single call. Importing
the module sets glibc's malloc to keep freed arrays for reuse
(`keep_freed_memory`), so a repeated pass does not page-fault its
arrays in again, and to serve both threads from one arena (`one_arena`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
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
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _mallopt(env: tuple[str, ...], settings: dict[int, int]) -> bool:
    """Set glibc malloc parameters (mallopt's, by number); True if all
    were set. A no-op, False, without glibc's mallopt or when any variable
    of env is set in the environment, which then wins."""
    if any(name in os.environ for name in env):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in settings.items())


def keep_freed_memory() -> bool:
    """Have glibc serve arrays up to 32 MB from the heap and keep up to
    2 GB of freed heap; True if both were set. A no-op, False, without
    glibc's mallopt or when either threshold is set in the environment."""
    return _mallopt(_MALLOC_ENV, {_M_MMAP_THRESHOLD: 32 << 20, _M_TRIM_THRESHOLD: 2**31 - 1})


def one_arena() -> bool:
    """Have glibc serve every thread from one malloc arena; True if set. A
    no-op, False, without glibc's mallopt or when MALLOC_ARENA_MAX is set.
    The message kernel's second thread would otherwise get an arena of its
    own, which keeps its freed blocks apart from the main thread's. On a
    2-core x86 host that raised the peak RSS of a V=1000 training step
    from 131 to 134-139 MB, and of ranking at V=2000 from 110 to 118 MB."""
    return _mallopt(("MALLOC_ARENA_MAX",), {_M_ARENA_MAX: 1})


keep_freed_memory()
one_arena()


class Var:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value: Array, parents: tuple = ()):
        self.value = value
        self.grad: Array | None = None
        self.parents: tuple[tuple["Var", Callable[[Array], Array]], ...] = parents


class Constant(Var):
    """A var no gradient is wanted for: `backward` calls no VJP for it,
    and a fused op leaves it out of its parents."""

    __slots__ = ()


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

    def constant(self, value: Array) -> Constant:
        # Recorded like any var, with no parents; backward hands it no
        # gradient.
        v = Constant(np.asarray(value))
        if self.record:
            self.vars.append(v)
        return v


def backward(tape: Tape, root: Var, seed: Array | float = 1.0) -> None:
    """Populate .grad on every leaf reachable from root; no VJP is called
    for a Constant, which gets none. A var with parents drops its grad and
    its closures once it has propagated them, so the tape can be walked
    only once."""
    root.grad = np.broadcast_to(np.asarray(seed, dtype=root.value.dtype), root.value.shape).copy()
    for v in reversed(tape.vars):
        if not v.parents:
            continue
        if v.grad is not None:
            for parent, vjp in v.parents:
                if isinstance(parent, Constant):
                    continue
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


def _shared_vjp(
    targets: list[Var], grads_of: Callable[[Array], list]
) -> tuple[tuple[Var, Callable[[Array], Array]], ...]:
    """(parent, vjp) pairs of a fused op for its targets that are not
    Constants, all served by one VJP: its first call computes grads_of(g),
    one gradient per target (None may stand for a Constant's), and each
    call hands on the next parent's. backward calls no VJP for a Constant,
    so listing one would shift the hand-out."""
    keep = [not isinstance(t, Constant) for t in targets]
    pending: list[Array] = []

    def vjp(g: Array) -> Array:
        if not pending:
            pending.extend(reversed([x for x, k in zip(grads_of(g), keep) if k]))
        return pending.pop()

    return tuple((t, vjp) for t, k in zip(targets, keep) if k)


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


def exclusive_products(f: Array, out: Array | None = None) -> Array:
    """out[..., i, :, :] = product of f[..., j, :, :] over every j != i
    (axis -3): a running suffix written into out (a new array unless
    given), then multiplied by a running prefix. No division, so zero
    factors are exact; one factor gives the empty product, all ones."""
    k = f.shape[-3]
    out = np.empty_like(f) if out is None else out
    if k == 1:
        out[...] = 1
        return out
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
        if j > 1:  # S_0 is never read
            s = at(f, j) * s
    at(out, 0)[...] = b
    p, a = at(f, 0), at(g, 0)
    for j in range(1, k - 1):
        oj = at(out, j)
        oj *= a
        oj += p * bs[j]
        a = a * at(f, j) + at(g, j) * p
        if j < k - 2:  # nor is P_{k-1}
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
    """Join parts on the last axis. No model calls it since the fused ops
    took over; the benchmark's tracer still patches it by name."""
    sizes = [p.value.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(lo: int, hi: int) -> Callable[[Array], Array]:
        return lambda g: g[..., lo:hi]

    parents = tuple(
        (p, make_vjp(int(offsets[i]), int(offsets[i + 1]))) for i, p in enumerate(parts)
    )
    return tape.var(np.concatenate([p.value for p in parts], axis=-1), parents)


def relu(tape: Tape, a: Var) -> Var:
    """max(a, 0). No model calls it since the fused ops took over; the
    benchmark's tracer still patches it by name."""
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


# Bins per np.bincount call in a scatter. Leading slices are summed in
# chunks whose bins fit in 256 KB of float64: a batch of tiny graphs takes
# one call, and a large graph one call per slice, its randomly indexed
# accumulator staying in cache. On a 2-core x86 host, a scatter of 16
# slices of V*d = 32000 bins took 14 ms with one slice per call and
# 23-39 ms with 2 to 16; the hypercycle benchmark workload (up to 20
# slices of 640 bins) ran 29.3 steps/s with these chunks and 27.5 with one
# slice per call (medians of 10 pairs).
SCATTER_BINS = 1 << 15


class Bins:
    """The np.bincount bins that sum values (c, *idx.shape, d) onto
    (c, V, d) at [:, idx, :], for any c up to `count`. Built and range
    checked once, they serve every scatter onto the same nodes.

    Each leading slice has V*d bins, and one np.bincount sums a chunk of
    slices. bincount starts every bin at +0.0 and adds its weights in input
    order, as np.add.at does into zeros, so how the slices are chunked
    does not change a bit. On NumPy 2.4.6 bincount releases the GIL
    while it sums, so the two threads of a message pass sum at once: on a
    2-core x86 host, 400 sums of 320000 weights into V*d = 32000 bins took
    0.27-0.36 s on one thread and 0.14-0.18 s split over two (7 runs
    each)."""

    def __init__(self, idx: Array, V: int, d: int, count: int) -> None:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and not (0 <= idx.min() and idx.max() < V):
            raise IndexError(f"scatter index outside [0, {V})")  # a bin of the next slice
        self.shape = (V, d)
        self.n = V * d
        self.width = idx.size * d  # values per slice
        chunk = max(1, min(count, SCATTER_BINS // max(self.n, 1)))
        self.bins = np.empty((chunk, self.width), dtype=np.intp)  # row q: slice q's bins
        cols = self.bins[0].reshape(-1, d)
        np.multiply(idx.reshape(-1, 1), d, out=cols)
        cols += np.arange(d)
        if chunk > 1:
            np.add(self.bins[0], (np.arange(1, chunk) * self.n)[:, None], out=self.bins[1:])

    def sum(self, vals: Array, out: Array | None = None) -> Array:
        """vals (c, |idx|*d), each row summed from +0.0 into its (V, d)
        slice, duplicates accumulating in index order: a new float64 array
        (c, V, d), or written into `out`."""
        count = len(vals)
        chunk = len(self.bins)
        parts = []
        for lo in range(0, count, chunk):
            c = min(chunk, count - lo)
            part = np.bincount(
                self.bins[:c].reshape(-1), weights=vals[lo : lo + c].reshape(-1),
                minlength=c * self.n,
            )
            if out is None:
                parts.append(part)
            else:
                out[lo : lo + c] = part.reshape((c,) + self.shape)
        if out is not None:
            return out
        sums = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return sums.reshape((count,) + self.shape).astype(np.float64, copy=False)  # bincount of no terms is int64


def scatter_add(shape: tuple[int, ...], idx: Array, vals: Array) -> Array:
    """A new float64 array of `shape` (..., V, d) with vals (..., *idx.shape,
    d) summed from +0.0 at [..., idx, :], duplicates accumulating in index
    order; idx in [0, V). Bit for bit np.add.at(np.zeros(shape), (...,
    idx, slice(None)), vals)."""
    count = math.prod(shape[:-2])
    bins = Bins(idx, *shape[-2:], count)
    return bins.sum(vals.reshape(count, bins.width)).reshape(shape)


def gather_nodes(tape: Tape, h: Var, idx: Array) -> Var:
    """h (..., V, d) indexed on the node axis: out = h[..., idx, :]. No
    model calls it since `mlp_decoder` took over the k-ary decoder; the
    benchmark's tracer still patches it by name."""
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

# Bytes of one per-incidence array of a query block. `relation_messages`
# walks the query axis in blocks of as many queries as fit: the forward's
# block holds every relation's messages for its queries, the VJP's block
# one relation's gathered rows, factors and gradients. Every array of a
# block then stays in cache while it is reused. On a 2-core x86 host
# (4 MB L2 per core), a forward plus backward at Q=16, V=1000, 4000 edges
# of arities 2/2/3/3 and d=32 took 69 + 143 ms unblocked and 35 + 107 ms
# in 2 MB blocks; budgets from 256 KB to 4 MB were within 5% of that.
# `layer_tail` and `mlp_decoder` cut a stacked input's query axis the same
# way, at their input rows ([h || msgs] or [h || z_q], V*2d float64 a
# query): 4-query blocks on the `train` benchmark's graph (V=1000, d=32),
# 2-query blocks on `rank`'s (V=2000), one block on a hypercycle or
# theorem-suite graph. In one process on that host, budgets for those two
# ops alone from 512 KB to 4 MB took a `train` step 0.333-0.346 s and a
# `rank` operation 0.564-0.605 s (medians of 20 and 12), against 0.368 s
# and 0.666 s in one block.
BLOCK_BYTES = 1 << 21


def _blocks(count: int, floats: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks of the query axis, each of as many queries as
    BLOCK_BYTES holds at `floats` float64 per query; at least one each."""
    size = max(1, BLOCK_BYTES // max(8 * floats, 1))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


class _Pass:
    """What the two threads of a pass share: its first error, which stops
    both, and whose turn it is at a step that runs in block order. A pass
    on the calling thread alone shares nothing (`_SERIAL`)."""

    def __init__(self, threaded: bool = True) -> None:
        self.error: BaseException | None = None
        self.turn = 0
        self.changed = threading.Condition() if threaded else None

    def fail(self, error: BaseException) -> None:
        with self.changed:
            if self.error is None:
                self.error = error
            self.changed.notify_all()

    @contextlib.contextmanager
    def in_turn(self, j: int):
        """Run the body once block j-1 has run its own (so block 0's first),
        then let block j+1 run its. Raises instead once a block has
        failed. On the calling thread alone, blocks run in order, so every
        block is in turn."""
        if self.changed is None:
            yield
            return
        with self.changed:
            self.changed.wait_for(lambda: self.turn == j or self.error is not None)
            if self.error is not None:
                raise RuntimeError("stopped: another query block failed")
        yield
        with self.changed:
            self.turn = j + 1
            self.changed.notify_all()


_SERIAL = _Pass(threaded=False)


def run_blocks(run: Callable[[int, _Pass], None], count: int) -> None:
    """run(j, pass) for each block j < count. With two or more blocks, when
    the process may run on two or more CPUs, the calling thread runs the
    even blocks and a thread started for this pass the odd ones, each in
    increasing order, and the pass returns once that thread has ended;
    otherwise the calling thread runs them all in order, with no thread,
    lock or state of its own. The first error stops both threads at their
    next block or turn and is raised once both are done."""
    if count < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        for j in range(count):
            run(j, _SERIAL)
        return
    state = _Pass()

    def share(first: int) -> None:
        try:
            for j in range(first, count, 2):
                if state.error is not None:
                    return
                run(j, state)
        except BaseException as error:
            state.fail(error)

    other = threading.Thread(target=share, args=(1,), name="hcnet-blocks")
    other.start()
    share(0)
    other.join()
    if state.error is not None:
        raise state.error


def destinations(groups: dict[int, Array]) -> Array:
    """Every incidence's destination node (T,), in `incidence_messages`'
    order: relation by relation, position-major."""
    parts = [nodes.T.reshape(-1) for nodes in groups.values()]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


class MessagePlan:
    """What every message op of one forward pass over (Q, V, d) features
    shares: each relation's (E, k) node ids (`groups`), and the scatter
    bins of all incidences (`dest`) and of each relation, built and range
    checked once for the pass, its layers and their VJPs."""

    def __init__(self, groups: dict[int, Array], shape: tuple[int, int, int]) -> None:
        Q, V, d = shape
        self.groups = groups
        self.dest = Bins(destinations(groups), V, d, Q)
        self.count = Q
        self._bins: dict[int, Bins] = {}

    def bins(self, rel: int) -> Bins:
        """Relation rel's bins, built when a VJP first scatters onto its
        nodes: a pass that is not differentiated builds none."""
        if rel not in self._bins:
            self._bins[rel] = Bins(self.groups[rel].T, *self.dest.shape, self.count)
        return self._bins[rel]


def _positions(pe: Array, k: int) -> Array:
    """Encodings pe[1..k] of a relation's positions, as (k, 1, d)."""
    return pe[np.arange(1, k + 1)[:, None]]


def _factors(hn: Array, alpha: Array, one_minus: Array, pe: Array, out: Array | None = None):
    """The factors alpha*hn + one_minus*pe[1..k] of a relation's gathered
    rows hn (..., k, E, d), written into `out` (which may be hn)."""
    f = np.multiply(hn, alpha, out=out)
    f += one_minus * _positions(pe, hn.shape[-3])
    return f


def incidence_messages(
    h: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict, groups: dict
) -> Array:
    """Every incidence's message (..., T, d), T the sum of k*E, to the
    destinations of `destinations(groups)`.

    groups maps each relation to its (E, k) node ids and gates to its gate
    (broadcastable to (..., k, E, d)). Relation by relation, in the order of
    groups, position-major: the message to position i of an edge is
    gate * prod_{j != i} (alpha h_e(j) + one_minus pe_j), written straight
    into the output."""
    T = sum(nodes.size for nodes in groups.values())
    msgs = np.empty(h.shape[:-2] + (T, h.shape[-1]))
    lo = 0
    for rel, nodes in groups.items():
        hi = lo + nodes.size
        hn = np.take(h, nodes.T, axis=-2)  # (..., k, E, d)
        f = _factors(hn, alpha, one_minus, pe, out=hn)
        out = msgs[..., lo:hi, :].reshape(f.shape)  # splits an axis: a view
        exclusive_products(f, out=out)
        out *= gates[rel]
        lo = hi
    return msgs


def _query_rows(a: Array, lo: int, hi: int) -> Array:
    """Rows lo:hi of a per-query (Q, 1, 1, d) gate; a shared gate whole."""
    return a[lo:hi] if a.ndim == 4 else a


def _holding_pairs(marked: Array, nodes: Array) -> tuple[Array, Array]:
    """The (query, edge) pairs, as arrays qs, es sorted by edge and then
    query, whose edge e of a relation's nodes (E, k) holds a node that
    marked (V, Q) marks for query q."""
    held = marked[nodes[:, 0]]  # (E, Q)
    for j in range(1, nodes.shape[1]):
        held |= marked[nodes[:, j]]
    es, qs = np.nonzero(held)
    return qs, es


def _touched_rows(
    hv: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict, plan: MessagePlan,
    given: tuple[Array, Array],
) -> tuple[Array, Array]:
    """The rows of the summed messages that an edge holding a given node
    reaches, as indices into hv's (Q*V) rows, and their sums (|rows|, d),
    bit for bit the full pass's.

    Every incidence into a reached row lies on an edge of its query that
    holds a reached node. Those (query, edge) pairs, as node tables on
    the (Q*V) rows with each pair's gate row, go through
    `incidence_messages`: the full pass's NumPy calls on the same values,
    in its relation, position, edge order for each row. One bincount sums
    from +0.0 those bound for a reached row."""
    Q, V, d = hv.shape
    marked = np.zeros((V, Q), dtype=bool)
    marked[given[1], given[0]] = True
    reached = np.zeros((V, Q), dtype=bool)
    for nodes in plan.groups.values():
        qs, es = _holding_pairs(marked, nodes)
        reached[nodes[es], qs[:, None]] = True
    tables, table_gates = {}, {}
    for rel, nodes in plan.groups.items():
        qs, es = _holding_pairs(reached, nodes)
        tables[rel] = qs[:, None] * V + nodes[es]
        gv = gates[rel].value
        table_gates[rel] = gv[qs, 0, 0][None] if gv.ndim == 4 else gv
    msgs = incidence_messages(hv.reshape(Q * V, d), alpha, one_minus, pe, table_gates, tables)
    dest = destinations(tables)
    reached = reached.T.reshape(-1)  # by (query, node), as hv's rows
    keep = reached[dest]
    rows = np.flatnonzero(reached)
    bins = Bins(np.searchsorted(rows, dest[keep]), rows.size, d, 1)
    return rows, bins.sum(msgs[keep].reshape(1, -1))[0]


def _given_messages(
    out: Array, hv: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict,
    plan: MessagePlan, given: tuple[Array, Array],
) -> None:
    """The summed messages of hv (Q, V, d) written into out, when every row
    of hv but the (query, node) pairs of given is +0.0.

    A message that no given node's factor enters is the message of an
    all-zero input with the same gate, and a node none of whose incidences
    is such is summed from such messages only. Under a zero input, every
    edge of a relation has the same factors, so the same message at each
    position. So for each distinct set of gate rows (compared by their
    bytes; one when the gates are shared) the kernel runs on one zero edge
    per relation, each message is repeated over its relation's edges, and
    the plan's bins sum them into the row of the set's first query, which
    is copied to its other queries. The rows an edge holding a given node
    reaches are then summed again in full (`_touched_rows`). The sets run
    on `run_blocks`; the touched rows run before them on the calling
    thread alone: as one more job of the pass, a 16-query `rank` chunk
    took 13-17 ms here against 12-15 ms (medians of 3 runs, 2-core x86)."""
    Q, V, d = hv.shape
    per_query = [gates[rel].value.reshape(Q, -1) for rel in plan.groups
                 if gates[rel].value.ndim == 4]
    keys = np.concatenate(per_query, axis=1) if per_query else np.empty((Q, 0))
    firsts: dict[bytes, int] = {}
    source = [firsts.setdefault(key.tobytes(), q) for q, key in enumerate(keys)]
    zero_edges = {rel: np.zeros((1, nodes.shape[1]), dtype=np.intp)
                  for rel, nodes in plan.groups.items()}
    repeats = np.concatenate([np.full(k, E) for E, k in (n.shape for n in plan.groups.values())])
    rows, sums = _touched_rows(hv, alpha, one_minus, pe, gates, plan, given)
    jobs = list(firsts.values())

    def run(j: int, _: _Pass) -> None:
        q = jobs[j]
        msgs = incidence_messages(
            np.zeros((1, 1, d)), alpha, one_minus, pe,
            {rel: _query_rows(gates[rel].value, q, q + 1) for rel in plan.groups}, zero_edges,
        )  # (1, sum of k, d)
        plan.dest.sum(np.repeat(msgs, repeats, axis=1).reshape(1, -1), out=out[q : q + 1])

    run_blocks(run, len(jobs))
    for q, first in enumerate(source):
        if first != q:
            out[q] = out[first]
    out[np.divmod(rows, V)] = sums


# The share of a relation's (query, edge) pairs up to which its VJP runs on
# the pairs that hold a live row of G alone (`_pair_terms`), on a graph
# where one query's per-incidence arrays fill a block. On the `train`
# benchmark's graph (V=1000, 4000 edges of arities 2/2/3/3, Q=16, d=32)
# on a 2-core x86 host, with G's rows thinned at random, a relation's
# pair VJP took 1.6-4.3 ms at shares up to 0.08 against 8.6-23 ms dense,
# and broke even at shares of about 0.3 on two CPUs (about 0.55 on one,
# where the dense pass has no second thread). A `train` step's last layer
# holds 0.02-0.03 of its pairs, its middle layer 0.3-0.42.
PAIR_SHARE = 0.25


def _gradient_pairs(live: Array, nodes: Array) -> tuple[Array, Array] | None:
    """The (query, edge) pairs whose edge of a relation's nodes (E, k)
    holds a live row of G, marked in live (V, Q), when they are at most
    PAIR_SHARE of the relation's pairs; None otherwise."""
    qs, es = _holding_pairs(live, nodes)
    return (qs, es) if qs.size <= PAIR_SHARE * nodes.shape[0] * live.shape[1] else None


def _dense_terms(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int,
) -> tuple:
    """Relation rel's terms over all of its (query, edge) pairs: the gate's
    gradient, and at arity 2 or more the Q-sum behind one_minus's and pe's
    (k, E, d), alpha's unsummed term and h's gradient (None when h is a
    Constant).

    Factors and products are recomputed from the inputs, one block of
    queries at a time. The Q-sum runs on from block to block, in block
    order also when the blocks run on two threads (`run_blocks`); every
    other term, h's too, fills its own rows. alpha's term and a shared
    gate's sum over all queries at once, in the memory order of the
    per-op chain's gather h[..., nodes.T, :], which is (k, E, Q, d): each
    is written into one buffer per relation laid out so. The gate's is
    summed here after the last block, alpha's by `_relation_grads`."""
    Q, _, d = G.shape
    nodes = plan.groups[rel]
    E, k = nodes.shape
    a, c, gv = alpha.value, one_minus.value, gate.value
    shared = gv.ndim < 4
    want_h = k > 1 and not isinstance(h, Constant)
    blocks = _blocks(Q, k * E * d)

    def gather_layout() -> Array:
        return np.empty((k, E, Q, d)).transpose(2, 0, 1, 3)

    ggate = gather_layout() if shared else np.empty(gv.shape)
    galpha = gather_layout() if k > 1 else None
    gh = np.empty(G.shape) if want_h else None
    bins = plan.bins(rel) if want_h else None
    gsum = None

    def run(j: int, state: _Pass) -> None:
        nonlocal gsum
        lo, hi = blocks[j]
        gm = np.take(G[lo:hi], nodes.T, axis=1)  # (B, k, E, d)
        if k == 1:  # the gate's term is gm times the empty product
            ggate[lo:hi] = gm if shared else _unbroadcast(gm, gv[lo:hi].shape)
            return
        hn = np.take(h.value[lo:hi], nodes.T, axis=1)
        f = _factors(hn, a, c, pe.value)
        t = exclusive_products(f)
        if shared:
            np.multiply(gm, t, out=ggate[lo:hi])
        else:
            t *= gm
            ggate[lo:hi] = _unbroadcast(t, gv[lo:hi].shape)
        del t
        gm *= _query_rows(gv, lo, hi)
        gf = exclusive_products_vjp(f, gm)
        del f, gm
        with state.in_turn(j):
            if gsum is None:
                gsum = gf.sum(axis=0)
            else:
                for row in gf:
                    gsum += row
        np.multiply(gf, hn, out=galpha[lo:hi])
        del hn
        if want_h:
            gf *= a
            bins.sum(gf.reshape(hi - lo, -1), out=gh[lo:hi])

    run_blocks(run, len(blocks))
    return _unbroadcast(ggate, gv.shape), gsum, galpha, gh


def _pair_terms(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int, pairs: tuple[Array, Array],
) -> tuple:
    """`_dense_terms` (arity 2 or more) from the (query, edge) pairs
    (qs, es) alone, sorted by edge and then query, on the calling thread.

    Their node ids index the (Q*V, d) rows of G and h, and their factors,
    products and gradients are `_dense_terms`' NumPy calls on the same
    values. Each sum is a bincount from +0.0 that adds the pairs' terms in
    the order of its dense sum, position, edge, query: the gate's (over
    position and edge per query, or over all three when it is shared),
    the Q-sum and h's gradient. alpha's term fills its pairs' places of a
    zero (k, E, Q, d) buffer, so its sum adds every term at its dense
    place."""
    Q, V, d = G.shape
    nodes = plan.groups[rel]
    E, k = nodes.shape
    qs, es = pairs
    a, gv = alpha.value, gate.value
    rows = (qs[:, None] * V + nodes[es]).T  # (k, P)

    def summed(bins: Array, n: int, terms: Array) -> Array:
        return Bins(bins, n, d, 1).sum(terms.reshape(1, -1))[0]

    gm = np.take(G.reshape(-1, d), rows, axis=0)  # (k, P, d)
    hn = np.take(h.value.reshape(-1, d), rows, axis=0)
    f = _factors(hn, a, one_minus.value, pe.value)
    t = exclusive_products(f)
    t *= gm
    if gv.ndim < 4:
        ggate = summed(np.zeros_like(rows), 1, t).reshape(gv.shape)
        gm *= gv
    else:
        ggate = summed(np.broadcast_to(qs, rows.shape), Q, t).reshape(gv.shape)
        gm *= gv[qs, 0, 0]
    del t
    gf = exclusive_products_vjp(f, gm)
    del f, gm
    gsum = summed(np.arange(k)[:, None] * E + es, k * E, gf).reshape(k, E, d)
    galpha = np.zeros((k, E, Q, d))
    galpha[:, es, qs] = gf * hn
    gh = None
    if not isinstance(h, Constant):
        gf *= a
        gh = summed(rows, Q * V, gf).reshape(G.shape)
    return ggate, gsum, galpha.transpose(2, 0, 1, 3), gh


def _relation_grads(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int, pairs: tuple[Array, Array] | None = None,
) -> list[Array]:
    """Relation rel's gradient contributions to gate, one_minus, alpha, pe
    and h (to the gate alone at arity 1, whose product is constant), with
    None for pe and h when they are Constants, given the gradient G
    (Q, V, d) of the summed messages.

    Each term is summed in the order the separate tape ops (gather,
    take_rows, mul, add, exclusive products, gate mul, index_add) summed
    it, so the gradients are bitwise equal to theirs. The terms come from
    every (query, edge) pair (`_dense_terms`), or from `pairs` alone
    (`_pair_terms`), whose sums leave out only terms that are +0.0 or
    -0.0; if one of those sums is exactly 0.0, whose sign such a term may
    set, the dense pass runs instead."""
    k = plan.groups[rel].shape[1]
    terms = (_dense_terms(G, h, alpha, one_minus, pe, gate, plan, rel) if pairs is None
             else _pair_terms(G, h, alpha, one_minus, pe, gate, plan, rel, pairs))
    ggate, gsum, galpha, gh = terms
    if k == 1:
        return [ggate]
    a, c = alpha.value, one_minus.value
    pk = _positions(pe.value, k)
    gb = _unbroadcast(gsum, pk.shape)
    ga = _unbroadcast(galpha, a.shape)
    if pairs is not None and any(np.any(s == 0) for s in (ggate, gb, ga)):
        return _relation_grads(G, h, alpha, one_minus, pe, gate, plan, rel)
    out = [ggate, _unbroadcast(gb * pk, c.shape), ga]
    if isinstance(pe, Constant):
        out.append(None)
    else:
        gpk = _unbroadcast(gb * c, pk.shape)
        out.append(scatter_add(pe.value.shape, np.arange(1, k + 1)[:, None], gpk))
    out.append(gh)
    return out


def relation_messages(
    tape: Tape, h: Var, alpha: Var, one_minus: Var, pe: Var, gates: dict, plan: MessagePlan,
    given: tuple[Array, Array] | None = None,
) -> Var:
    """A layer's summed messages (Q, V, d): `incidence_messages` scattered
    onto their destinations with the plan's bins, bit for bit the chain of
    one index_add per relation.

    The query axis is walked in blocks (`BLOCK_BYTES`), on two threads
    when there are two or more (`run_blocks`): a block's messages are
    written into one buffer and summed straight into its rows of the
    output. One tape op for all relations, and it keeps no per-incidence
    array: its VJP recomputes each relation's factors and products from
    the inputs, one relation and one block at a time. The parents are
    listed as (parent, relation) pairs in the order the per-op chain
    reached them: relations last to first, and per relation gate,
    one_minus, alpha, pe, h, less the Constants. The first pair of a
    relation computes all of its terms, and each pair hands on one
    (`_shared_vjp`).

    given, when not None, holds the (query, node) pairs (two arrays) of
    the only rows of h that may not be +0.0, as a forward's first layer
    has them. When one query's per-incidence messages fill a block, the
    forward then runs `_given_messages`, with the same bits.

    On such a graph the VJP also finds the live rows of G (those not
    +-0.0 throughout) once, at its first call, and a relation of arity 2
    or more whose pairs that hold one are at most PAIR_SHARE of its Q*E
    runs on them alone (`_gradient_pairs`, `_pair_terms`), with the same
    bits, unless the output is not finite."""
    hv = h.value
    out = np.empty(hv.shape)
    if given is not None and 8 * plan.dest.width >= BLOCK_BYTES:
        _given_messages(out, hv, alpha.value, one_minus.value, pe.value, gates, plan, given)
    else:
        blocks = _blocks(hv.shape[0], plan.dest.width)

        def run(j: int, _: _Pass) -> None:
            lo, hi = blocks[j]
            msgs = incidence_messages(
                hv[lo:hi], alpha.value, one_minus.value, pe.value,
                {rel: _query_rows(g.value, lo, hi) for rel, g in gates.items()}, plan.groups,
            )
            plan.dest.sum(msgs.reshape(hi - lo, -1), out=out[lo:hi])

        run_blocks(run, len(blocks))
    if not tape.record:
        return tape.var(out)

    live: list[Array] = []  # G's live rows, found by the first VJP that reads them
    finite = functools.cache(lambda: bool(np.isfinite(out).all()))

    def grads(g: Array, rel: int) -> list:
        nodes, pairs = plan.groups[rel], None
        if nodes.shape[1] > 1 and 8 * plan.dest.width >= BLOCK_BYTES:
            if not live:
                live.append(np.ascontiguousarray(np.any(g != 0, axis=-1).T))
            pairs = _gradient_pairs(live[0], nodes)
            if pairs is not None and not finite():
                pairs = None
        return _relation_grads(g, h, alpha, one_minus, pe, gates[rel], plan, rel, pairs)

    parents: list[tuple[Var, Callable[[Array], Array]]] = []
    for rel, nodes in reversed(plan.groups.items()):
        targets = [gates[rel]] if nodes.shape[1] == 1 else [gates[rel], one_minus, alpha, pe, h]
        parents += _shared_vjp(targets, lambda g, rel=rel: grads(g, rel))
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
    """(Q, 1, d) -> (Q, size, d) by repetition; backward sums the axis. No
    model calls it since `mlp_decoder` took over the decoder; the
    benchmark's tracer still patches it by name."""
    out = np.broadcast_to(x.value, (x.value.shape[0], size, x.value.shape[2]))
    return tape.var(
        out.copy(), ((x, lambda g: g.sum(axis=1, keepdims=True)),)
    )


def _normalize(x: Array, eps: float = 1e-5, out: tuple[Array, Array] | None = None):
    """x normalized over its last axis, and the inverse deviation inv,
    written into out = (xhat, inv) when given. The variance sums the
    squares of the centred rows, as np.var does, so its bits are np.var's
    without its second pass for the mean and the centred rows."""
    xhat, inv = (None, None) if out is None else out
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=xhat)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=inv)
    xhat *= inv
    return xhat, inv


def _normalize_vjp(g: Array, gamma: Array, xhat: Array, inv: Array, out: Array | None = None):
    """Gradient of gamma * xhat (xhat, inv from `_normalize`) to the
    normalized input, given g; written into out when given."""
    dxhat = g * gamma
    gx = np.subtract(dxhat, dxhat.mean(axis=-1, keepdims=True), out=out)
    gx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx *= inv
    return gx


def layer_norm(tape: Tape, x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then scale and shift. No model calls
    it since `layer_tail` took over the layer's norm; the benchmark's
    tracer still patches it by name."""
    xhat, inv = _normalize(x.value, eps)
    return tape.var(gamma.value * xhat + beta.value, _shared_vjp(
        [x, gamma, beta], lambda g: [_normalize_vjp(g, gamma.value, xhat, inv),
                                     _unbroadcast(g * xhat, gamma.value.shape),
                                     _unbroadcast(g, beta.value.shape)]))


def layer_tail(
    tape: Tape, h: Var, msgs: Var, W: Var, b: Var, gamma: Var, beta: Var,
    rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Var:
    """A message layer's tail, relu(drop(layer_norm(W [h || msgs] + b))) + h,
    on (Q, V, d) inputs, as one tape op: the same NumPy calls in the order
    of the chain concat_last, matmul_last, add, layer_norm, mul by
    dropout's keep, relu and add, so every value and gradient is bitwise
    theirs. With rate > 0, keep = (rng.random(shape) >= rate) / (1 - rate),
    drawn whole before any block, so the rng's stream is the chain's.

    Both directions walk the query axis in blocks of as many queries as
    `BLOCK_BYTES` of [h || msgs] rows hold, on two threads when there
    are two or more (`run_blocks`). A forward block builds only its own
    rows of [h || msgs] and writes its rows of the output and of what the
    op keeps: xhat, inv and the ReLU mask, as booleans. A VJP block writes
    its rows of the norm's output and input gradients, and of
    gy @ W, whose h slice takes the skip term (one sum, in the order
    backward added them). The sums over all queries, the gradients of W,
    b, gamma and beta, run once over the whole arrays after the blocks; W's
    reads [h || msgs] rebuilt from the two inputs, which stay alive
    anyway."""
    hv, mv, Wv = h.value, msgs.value, W.value
    shape = hv.shape
    d = shape[-1]
    blocks = _blocks(shape[0], shape[1] * Wv.shape[1])

    def concat(lo: int, hi: int) -> Array:
        return np.concatenate([hv[lo:hi], mv[lo:hi]], axis=-1)

    kept = rng.random(shape) >= rate if rate > 0.0 else None
    z, xhat, pos = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    inv = np.empty(shape[:-1] + (1,))

    def forward(j: int, _: _Pass) -> None:
        lo, hi = blocks[j]
        zb = np.matmul(concat(lo, hi), Wv.T, out=z[lo:hi])
        zb += b.value
        xb, _ = _normalize(zb, out=(xhat[lo:hi], inv[lo:hi]))
        np.multiply(gamma.value, xb, out=zb)
        zb += beta.value
        if kept is not None:
            zb *= kept[lo:hi] / (1.0 - rate)
        zb *= np.greater(zb, 0, out=pos[lo:hi])
        zb += hv[lo:hi]

    run_blocks(forward, len(blocks))

    def grads(g: Array) -> list:
        gz, gy = np.empty(shape), np.empty(shape)
        gx = np.empty(shape[:-1] + (Wv.shape[1],))

        def backward_block(j: int, _: _Pass) -> None:
            lo, hi = blocks[j]
            gzb = np.multiply(g[lo:hi], pos[lo:hi], out=gz[lo:hi])
            if kept is not None:
                gzb *= kept[lo:hi] / (1.0 - rate)
            gyb = _normalize_vjp(gzb, gamma.value, xhat[lo:hi], inv[lo:hi], out=gy[lo:hi])
            gxb = np.matmul(gyb, Wv, out=gx[lo:hi])
            gxb[..., :d] += g[lo:hi]

        run_blocks(backward_block, len(blocks))
        ggamma = _unbroadcast(gz * xhat, gamma.value.shape)
        gbeta = _unbroadcast(gz, beta.value.shape)
        del gz
        gW = gy.reshape(-1, d).T @ concat(0, shape[0]).reshape(-1, Wv.shape[1])
        return [gx[..., :d], gx[..., d:], gW, _unbroadcast(gy, b.value.shape), ggamma, gbeta]

    return tape.var(z, _shared_vjp([h, msgs, W, b, gamma, beta], grads))


def mlp_decoder(
    tape: Tape, inputs: list[Var], shape: tuple[int, ...], rows: Callable[[int, int], Array],
    spread: Callable[[Array], list], W1: Var, b1: Var, W2: Var, b2: Var,
) -> Var:
    """Logits `shape` of the two-layer ReLU MLP over input rows (*shape,
    n), as one tape op: rows(lo, hi) builds entries lo:hi of the first
    axis from the values of inputs, and spread(gx) turns the gradient of
    all rows into one gradient per entry of inputs (an input may be listed
    more than once). The same NumPy calls in the order of the chain
    concat_last, matmul_last, add, relu, matmul_last, add, reshape, so
    every value and gradient is bitwise theirs. It keeps the hidden ReLU
    output and its mask.

    A stacked input, shape (Q, V), is walked along its query axis in
    blocks of as many queries as `BLOCK_BYTES` of rows hold, on two
    threads when there are two or more (`run_blocks`): a block builds its
    own rows and writes its rows of the hidden layer, mask and logits, and
    in the VJP of the hidden layer's and the rows' gradients. A 2-D input,
    shape (M,), is one block: cut by rows, a 2-D product may change its
    bits. The gradients of W1, b1, W2 and b2 sum over all rows once, after
    the blocks; W1's builds all rows again."""
    n = W1.value.shape[1]
    blocks = ([(0, shape[0])] if len(shape) < 2
              else _blocks(shape[0], math.prod(shape[1:]) * n))
    hid = np.empty(shape + (W1.value.shape[0],))
    pos = np.empty(hid.shape, dtype=bool)
    out = np.empty(shape + (W2.value.shape[0],))

    def forward(j: int, _: _Pass) -> None:
        lo, hi = blocks[j]
        hb = np.matmul(rows(lo, hi), W1.value.T, out=hid[lo:hi])
        hb += b1.value
        hb *= np.greater(hb, 0, out=pos[lo:hi])
        ob = np.matmul(hb, W2.value.T, out=out[lo:hi])
        ob += b2.value

    run_blocks(forward, len(blocks))

    def grads(g: Array) -> list:
        g3 = g.reshape(out.shape)
        gW2 = g3.reshape(-1, g3.shape[-1]).T @ hid.reshape(-1, hid.shape[-1])
        gp, gx = np.empty(hid.shape), np.empty(shape + (n,))

        def backward_block(j: int, _: _Pass) -> None:
            lo, hi = blocks[j]
            gpb = np.matmul(g3[lo:hi], W2.value, out=gp[lo:hi])
            gpb *= pos[lo:hi]
            np.matmul(gpb, W1.value, out=gx[lo:hi])

        run_blocks(backward_block, len(blocks))
        gW1 = gp.reshape(-1, gp.shape[-1]).T @ rows(0, shape[0]).reshape(-1, n)
        return [*spread(gx), gW1, _unbroadcast(gp, b1.value.shape), gW2,
                _unbroadcast(g3, b2.value.shape)]

    return tape.var(out.reshape(shape), _shared_vjp([*inputs, W1, b1, W2, b2], grads))
