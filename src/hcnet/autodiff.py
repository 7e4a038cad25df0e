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

A pass of two or more blocks runs on two threads (`_run_blocks`) when the
process may run on two or more CPUs: the calling thread takes the even
blocks and a thread started for the pass the odd ones, and the pass
joins that thread before it returns, so no thread outlives a pass. No
query reads another's rows, so each block writes only its own rows; the
one sum that runs across blocks, the VJP's Q-sum behind one_minus's and
pe's gradients, adds each block's rows in block order (`_Pass.in_turn`),
so the bits are the serial pass's. A pass of one block, or on one CPU,
runs on the calling thread alone. NumPy drops the GIL in its ufunc and
`take` loops but not in `np.bincount`, so the scatters do not overlap.

A layer's tail (W [h || msgs] + b through layer norm, dropout and ReLU,
plus the skip h) and the decoders' MLP are one tape op each. They run
the NumPy calls of the per-op chains they replaced in order, so every
bit is the chains', and keep only what their VJPs read (the tail xhat,
inv and boolean masks, the decoder its hidden layer and mask),
rebuilding a concat for a weight's gradient. The decoder's caller
builds its input rows and spreads their gradient, so the unary and the
k-ary decoder are one op. A fused op computes all of its parents'
gradients on the first VJP call and hands them out one per parent
(`_shared_vjp`).

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
    does not change a bit. bincount holds the GIL throughout, so the two
    threads of a message pass do not sum at once: on a 2-core x86 host,
    400 sums of 320000 weights into V*d = 32000 bins took 0.27-0.31 s on
    one thread and 0.28-0.32 s split over two."""

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
BLOCK_BYTES = 1 << 21


def _blocks(count: int, floats: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks of the query axis, each of as many queries as
    BLOCK_BYTES holds at `floats` float64 per query; at least one each."""
    size = max(1, BLOCK_BYTES // max(8 * floats, 1))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


class _Pass:
    """What the two threads of a pass share: its first error, which stops
    both, and whose turn it is at a step that runs in block order."""

    def __init__(self) -> None:
        self.error: BaseException | None = None
        self.turn = 0
        self.changed = threading.Condition()

    def fail(self, error: BaseException) -> None:
        with self.changed:
            if self.error is None:
                self.error = error
            self.changed.notify_all()

    @contextlib.contextmanager
    def in_turn(self, j: int):
        """Run the body once block j-1 has run its own (so block 0's first),
        then let block j+1 run its. Raises instead once a block has
        failed."""
        with self.changed:
            self.changed.wait_for(lambda: self.turn == j or self.error is not None)
            if self.error is not None:
                raise RuntimeError("stopped: another query block failed")
        yield
        with self.changed:
            self.turn = j + 1
            self.changed.notify_all()


def _run_blocks(run: Callable[[int, _Pass], None], count: int) -> None:
    """run(j, pass) for each block j < count. With two or more blocks, when
    the process may run on two or more CPUs, the calling thread runs the
    even blocks and a thread started for this pass the odd ones, each in
    increasing order, and the pass returns once that thread has ended;
    otherwise the calling thread runs them all in order. The first error
    stops both threads at their next block or turn and is raised once both
    are done."""
    state = _Pass()
    if count < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        for j in range(count):
            run(j, state)
        return

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


def _relation_grads(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int,
) -> list[Array]:
    """Relation rel's gradient contributions to gate, one_minus, alpha, pe
    and h (to the gate alone at arity 1, whose product is constant), with
    None for pe and h when they are Constants, given the gradient G
    (Q, V, d) of the summed messages.

    Factors and products are recomputed from the inputs, one block of
    queries at a time. Each term is summed in the order the separate tape
    ops (gather, take_rows, mul, add, exclusive products, gate mul,
    index_add) summed it, so the gradients are bitwise equal to theirs.
    The Q-sum that starts one_minus's and pe's terms runs on from block to
    block, in block order also when the blocks run on two threads
    (`_run_blocks`); every other term, h's too, fills its own rows. alpha's term and
    a shared gate's sum over all queries at once, in the memory order of
    those ops' gather h[..., nodes.T, :], which is (k, E, Q, d): each is
    written into one buffer per relation laid out so, and summed after the
    last block."""
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

    _run_blocks(run, len(blocks))
    out = [_unbroadcast(ggate, gv.shape)]
    if k == 1:
        return out
    pk = _positions(pe.value, k)
    gb = _unbroadcast(gsum, pk.shape)
    out.append(_unbroadcast(gb * pk, c.shape))
    out.append(_unbroadcast(galpha, a.shape))
    if isinstance(pe, Constant):
        out.append(None)
    else:
        gpk = _unbroadcast(gb * c, pk.shape)
        out.append(scatter_add(pe.value.shape, np.arange(1, k + 1)[:, None], gpk))
    out.append(gh)
    return out


def relation_messages(
    tape: Tape, h: Var, alpha: Var, one_minus: Var, pe: Var, gates: dict, plan: MessagePlan
) -> Var:
    """A layer's summed messages (Q, V, d): `incidence_messages` scattered
    onto their destinations with the plan's bins, bit for bit the chain of
    one index_add per relation.

    The query axis is walked in blocks (`BLOCK_BYTES`), on two threads
    when there are two or more (`_run_blocks`): a block's messages are
    written into one buffer and summed straight into its rows of the
    output. One tape op for all relations, and it keeps no per-incidence
    array: its VJP recomputes each relation's factors and products from
    the inputs, one relation and one block at a time. The parents are
    listed as (parent, relation) pairs in the order the per-op chain
    reached them: relations last to first, and per relation gate,
    one_minus, alpha, pe, h, less the Constants. The first pair of a
    relation computes all of its terms, and each pair hands on one
    (`_shared_vjp`)."""
    hv = h.value
    blocks = _blocks(hv.shape[0], plan.dest.width)
    out = np.empty(hv.shape)

    def run(j: int, _: _Pass) -> None:
        lo, hi = blocks[j]
        msgs = incidence_messages(
            hv[lo:hi], alpha.value, one_minus.value, pe.value,
            {rel: _query_rows(g.value, lo, hi) for rel, g in gates.items()}, plan.groups,
        )
        plan.dest.sum(msgs.reshape(hi - lo, -1), out=out[lo:hi])

    _run_blocks(run, len(blocks))
    if not tape.record:
        return tape.var(out)

    parents: list[tuple[Var, Callable[[Array], Array]]] = []
    for rel, nodes in reversed(plan.groups.items()):
        targets = [gates[rel]] if nodes.shape[1] == 1 else [gates[rel], one_minus, alpha, pe, h]
        parents += _shared_vjp(targets, lambda g, rel=rel: _relation_grads(
            g, h, alpha, one_minus, pe, gates[rel], plan, rel))
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


def _normalize(x: Array, eps: float = 1e-5) -> tuple[Array, Array]:
    """x normalized over its last axis, and the inverse deviation inv."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (x - mu) * inv, inv


def _layer_norm_grads(g: Array, gamma: Array, beta: Array, xhat: Array, inv: Array) -> list:
    """Gradients of gamma * xhat + beta (xhat, inv from `_normalize`) to
    its input, gamma and beta, given g."""
    dxhat = g * gamma
    gx = dxhat - dxhat.mean(axis=-1, keepdims=True)
    gx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx *= inv
    return [gx, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)]


def layer_norm(tape: Tape, x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then scale and shift. No model calls
    it since `layer_tail` took over the layer's norm; the benchmark's
    tracer still patches it by name."""
    xhat, inv = _normalize(x.value, eps)
    return tape.var(gamma.value * xhat + beta.value, _shared_vjp(
        [x, gamma, beta], lambda g: _layer_norm_grads(g, gamma.value, beta.value, xhat, inv)))


def layer_tail(
    tape: Tape, h: Var, msgs: Var, W: Var, b: Var, gamma: Var, beta: Var,
    rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Var:
    """A message layer's tail, relu(drop(layer_norm(W [h || msgs] + b))) + h,
    as one tape op: the same NumPy calls in the order of the chain
    concat_last, matmul_last, add, layer_norm, mul by dropout's keep, relu
    and add, so every value and gradient is bitwise theirs. With rate > 0,
    keep = (rng.random(shape) >= rate) / (1 - rate), drawn here.

    It keeps xhat, inv and the ReLU and dropout masks, as booleans. The
    VJP rebuilds [h || msgs] for W's gradient from the two inputs, which
    stay alive anyway, and hands h its skip term and its concat slice as
    one sum, in the order backward added them."""
    d = h.value.shape[-1]

    def concat() -> Array:
        return np.concatenate([h.value, msgs.value], axis=-1)

    z = concat() @ W.value.T
    z += b.value
    xhat, inv = _normalize(z)
    z = gamma.value * xhat
    z += beta.value
    kept = None
    if rate > 0.0:
        kept = rng.random(z.shape) >= rate
        z *= kept / (1.0 - rate)
    pos = z > 0
    z *= pos
    z += h.value

    def grads(g: Array) -> list:
        gz = g * pos
        if kept is not None:
            gz *= kept / (1.0 - rate)
        gy, ggamma, gbeta = _layer_norm_grads(gz, gamma.value, beta.value, xhat, inv)
        del gz
        gW = gy.reshape(-1, gy.shape[-1]).T @ concat().reshape(-1, W.value.shape[1])
        gx = gy @ W.value
        return [g + gx[..., :d], gx[..., d:], gW, _unbroadcast(gy, b.value.shape), ggamma, gbeta]

    return tape.var(z, _shared_vjp([h, msgs, W, b, gamma, beta], grads))


def mlp_decoder(
    tape: Tape, inputs: list[Var], concat: Callable[[], Array],
    spread: Callable[[Array], list], W1: Var, b1: Var, W2: Var, b2: Var,
) -> Var:
    """Logits (...) of the two-layer ReLU MLP over the rows (..., n) that
    concat() builds from the values of inputs, as one tape op; spread(gx)
    turns the gradient of those rows into one gradient per entry of inputs
    (an input may be listed more than once). The same NumPy calls in the
    order of the chain concat_last, matmul_last, add, relu, matmul_last,
    add, reshape, so every value and gradient is bitwise theirs. It keeps
    the hidden ReLU output and its mask; the VJP calls concat() again for
    W1's gradient."""
    hid = concat() @ W1.value.T
    hid += b1.value
    pos = hid > 0
    hid *= pos
    out = hid @ W2.value.T
    out += b2.value

    def grads(g: Array) -> list:
        g3 = g.reshape(out.shape)
        gW2 = g3.reshape(-1, g3.shape[-1]).T @ hid.reshape(-1, hid.shape[-1])
        gp = g3 @ W2.value
        gp *= pos
        gW1 = gp.reshape(-1, gp.shape[-1]).T @ concat().reshape(-1, W1.value.shape[1])
        return [*spread(gp @ W1.value), gW1, _unbroadcast(gp, b1.value.shape), gW2,
                _unbroadcast(g3, b2.value.shape)]

    return tape.var(out.reshape(out.shape[:-1]), _shared_vjp([*inputs, W1, b1, W2, b2], grads))
