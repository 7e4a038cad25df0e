"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tape records every produced Var in creation order with vector-Jacobian
closures back to its parents, and `backward` replays it in reverse, so
gradients accumulate in a fixed order. The ops are what the
message-passing models need:

- arithmetic, `matmul_last`, `sigmoid`, `softplus`, `sum_all`,
  `reshape`, and row gathers and scatters (`take_rows`, `gather_2d`,
  `index_add_2d`); every float scatter-add is a `Bins.sum`;
- `relation_messages`: a layer's summed messages for all relations, from
  the one message kernel (`incidence_messages`) on scatter bins built
  once per pass (`MessagePlan`). Its sparse paths take their (query,
  edge) pairs from one finder (`_holding_pairs`): a first layer's
  forward (`_given_messages`, re-summing rows with `_row_sums`), the VJP
  on the pairs that hold a live row of its gradient (`_pair_terms`), and
  a first layer's VJP on the all-zero input's factors (`_dense_terms`);
- `layer_tail`, a layer's linear map, layer norm, dropout, ReLU and skip;
  `mlp_decoder`, both decoders' two-layer MLP;
- `gather_nodes`, `index_add`, `concat_last`, `relu`, `layer_norm` and
  `broadcast_middle`, which no model calls; the benchmark's tracer
  patches them by name.

Invariants. A fused op, and each of its paths, gives bit for bit the
values and gradients of the per-op chain it replaced; the function that
relies on a rule for that states it. The fused ops keep only what their
VJPs read (the message op no per-incidence array: its VJP recomputes
them) and walk the query axis in blocks (`BLOCK_BYTES`), on two threads
when there are two or more blocks and CPUs (`run_blocks`); no thread
outlives a pass. `backward` frees each var's gradient and closures once
it has passed them on and calls no VJP for a Constant, and a
Tape(record=False) keeps nothing. Importing the module sets glibc's
malloc to keep freed arrays (`keep_freed_memory`) in one arena
(`one_arena`).
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

# glibc's malloc hands freed blocks back to the kernel by thresholds that
# adapt to what the process freed before, so whether a pass page-faulted
# its arrays in again followed the process's history: a recorded hrnet
# forward on V=2000 took 22 ms or, with 7300 faults, 31-34 ms. Fixed
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
    A second thread's arena keeps its freed blocks apart from the main
    thread's: that raised a V=1000 training step's peak RSS from 131 to
    134-139 MB."""
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
    factors the gradient is a swap; for one it is zero. f may broadcast to
    g's shape (one factor row shared by every edge); the gradient then has
    g's shape, C-ordered, and else f's layout."""
    k = f.shape[-3]
    shape = np.broadcast_shapes(f.shape, g.shape)
    out = np.empty_like(f) if f.shape == shape else np.empty(shape)
    if k == 1:
        out[...] = 0
        return out

    def at(a: Array, j: int) -> Array:
        return a[..., j, :, :]

    # out holds S_j, 0 < j < k-1, until the second sweep
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
    """Join parts on the last axis."""
    sizes = [p.value.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(lo: int, hi: int) -> Callable[[Array], Array]:
        return lambda g: g[..., lo:hi]

    parents = tuple(
        (p, make_vjp(int(offsets[i]), int(offsets[i + 1]))) for i, p in enumerate(parts)
    )
    return tape.var(np.concatenate([p.value for p in parts], axis=-1), parents)


def relu(tape: Tape, a: Var) -> Var:
    """max(a, 0)."""
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


# Bins per np.bincount call in a scatter: leading slices are summed in
# chunks whose bins fit in 256 KB of float64, so tiny graphs share a call
# and a large graph takes one per slice, its accumulator in cache. A
# scatter of 16 slices of V*d = 32000 bins took 14 ms with one slice a
# call and 23-39 ms with 2 to 16.
SCATTER_BINS = 1 << 15


class Bins:
    """The np.bincount bins that sum values (c, *idx.shape, d) onto
    (c, V, d) at [:, idx, :], for any c up to `count`. Built and range
    checked once, they serve every scatter onto the same nodes.

    Each leading slice has V*d bins, and one np.bincount sums a chunk of
    slices. bincount starts every bin at +0.0 and adds its weights in input
    order, as np.add.at does into zeros, so how the slices are chunked
    does not change a bit. On NumPy 2.4.6 bincount releases the GIL
    while it sums, so both threads of a pass sum at once: 400 sums of
    320000 weights into 32000 bins took 0.27-0.36 s on one thread and
    0.14-0.18 s on two."""

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
    (duplicates sum)."""
    out = base.value.copy()
    np.add.at(out, (Ellipsis, idx, slice(None)), vals.value)
    return tape.var(out, ((base, lambda g: g), (vals, lambda g: g[..., idx, :])))


# --- the message kernel ------------------------------------------------------

# Bytes of one per-incidence array of a query block: the fused ops walk
# the query axis in blocks of as many queries as fit (`_blocks`), so every
# array of a block stays in cache while it is reused. A message forward
# plus backward at Q=16, V=1000, 4000 edges of arities 2/2/3/3 and d=32
# took 69 + 143 ms unblocked and 35 + 107 ms in 2 MB blocks, on a 2-core
# x86 host with 4 MB of L2 a core; budgets of 256 KB to 4 MB came within 5 %.
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
    next block or turn and is raised once both are done.

    A block writes only its own rows, and a step that runs across blocks
    takes them in block order (`_Pass.in_turn`), so both ways give the
    same bits. NumPy drops the GIL in its ufunc, `take`, BLAS and
    `np.bincount` loops, so the two threads overlap."""
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


def _jobs(threaded: bool, *jobs: Callable[[], object]) -> list:
    """The results of jobs, as the blocks of one `run_blocks` pass when
    threaded, else in order on the calling thread."""
    results: list = [None] * len(jobs)

    def run(j: int, _: _Pass) -> None:
        results[j] = jobs[j]()

    if threaded:
        run_blocks(run, len(jobs))
    else:
        for j in range(len(jobs)):
            run(j, _SERIAL)
    return results


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


def _holding_pairs(marked: Array, nodes: Array) -> tuple[Array, Array, Array]:
    """The (query, edge) pairs whose edge of a relation's nodes (E, k)
    holds a node that marked (V, Q) marks for the query: arrays qs, es,
    sorted by edge and then query, and the pairs' node rows (k, P) on the
    flattened (Q*V) axis of a (Q, V, d) array."""
    V = len(marked)
    held = marked[nodes[:, 0]]  # (E, Q)
    for j in range(1, nodes.shape[1]):
        held |= marked[nodes[:, j]]
    es, qs = np.nonzero(held)
    return qs, es, (qs[:, None] * V + nodes[es]).T


def _row_sums(
    hv: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict, plan: MessagePlan,
    marked: Array,
) -> tuple[Array, Array]:
    """The summed messages of hv (Q, V, d) at the (query, node) rows that
    marked (V, Q) marks, bit for bit the full pass's: the rows' indices
    into hv's flattened (Q*V) rows, ascending, and their sums (|rows|, d).

    Every incidence into a marked row lies on an edge that holds the row's
    node, so on one of the `_holding_pairs`. Those pairs go through
    `incidence_messages` as node tables on the (Q*V) rows, each with its
    gate row: the full pass's NumPy calls on the same values, in its
    relation, position, edge order for each row. One bincount sums, from
    +0.0 and in that order, the messages bound for a marked row."""
    Q, V, d = hv.shape
    tables, table_gates = {}, {}
    for rel, nodes in plan.groups.items():
        qs, _, rows = _holding_pairs(marked, nodes)
        tables[rel] = rows.T
        gv = gates[rel].value
        table_gates[rel] = gv[qs, 0, 0][None] if gv.ndim == 4 else gv
    msgs = incidence_messages(hv.reshape(Q * V, d), alpha, one_minus, pe, table_gates, tables)
    dest = destinations(tables)
    flat = marked.T.reshape(-1)  # by (query, node), as hv's rows
    keep = flat[dest]
    rows = np.flatnonzero(flat)
    bins = Bins(np.searchsorted(rows, dest[keep]), rows.size, d, 1)
    return rows, bins.sum(msgs[keep].reshape(1, -1))[0]


def _given_messages(
    out: Array, hv: Array, alpha: Array, one_minus: Array, pe: Array, gates: dict,
    plan: MessagePlan, given: tuple[Array, Array],
) -> dict:
    """The summed messages of hv (Q, V, d) written into out, when every row
    of hv but the (query, node) pairs of given is +0.0; returns each
    relation's `_holding_pairs` of the given nodes.

    Off the given nodes a factor alpha*h + one_minus*p_j is bitwise that
    of an all-zero input, so a row that no edge holding a given node
    reaches sums, from +0.0 in incidence order, the all-zero input's
    messages under the same gate. Under a zero input every edge of a
    relation has the same factors, so for each distinct set of gate rows
    (by their bytes; one when the gates are shared) the kernel runs on one
    zero edge per relation, and the plan's bins sum its messages, repeated
    over each relation's edges, into the set's first query's rows, copied
    to its other queries. The reached rows are summed again in full
    (`_row_sums`) on the calling thread, before the sets' `run_blocks`
    pass: as one more job of it, a 16-query `rank` chunk took 13-17 ms
    against 12-15 ms."""
    Q, V, d = hv.shape
    per_query = [gates[rel].value.reshape(Q, -1) for rel in plan.groups
                 if gates[rel].value.ndim == 4]
    keys = np.concatenate(per_query, axis=1) if per_query else np.empty((Q, 0))
    firsts: dict[bytes, int] = {}
    source = [firsts.setdefault(key.tobytes(), q) for q, key in enumerate(keys)]
    zero_edges = {rel: np.zeros((1, nodes.shape[1]), dtype=np.intp)
                  for rel, nodes in plan.groups.items()}
    repeats = np.concatenate([np.full(k, E) for E, k in (n.shape for n in plan.groups.values())])
    marked = np.zeros((V, Q), dtype=bool)
    marked[given[1], given[0]] = True
    holding = {rel: _holding_pairs(marked, nodes) for rel, nodes in plan.groups.items()}
    reached = np.zeros((V, Q), dtype=bool)
    for rel, (qs, es, _) in holding.items():
        reached[plan.groups[rel][es], qs[:, None]] = True
    rows, sums = _row_sums(hv, alpha, one_minus, pe, gates, plan, reached)
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
    return holding


# The share of a relation's (query, edge) pairs up to which its VJP runs on
# the pairs that hold a live row of G alone (`_pair_terms`). A `train` step's
# last layer holds 0.02-0.03 of its pairs; its middle layer's 0.3-0.42 stay
# dense, since at a share of 0.5 the pair arrays (k, P, d), not cut into
# query blocks, raised the workload's peak RSS from 127-128 to 136-137 MB.
PAIR_SHARE = 0.25


def _pair_kernel(
    G: Array, hv: Array, a: Array, c: Array, pe: Array, gv: Array, qs: Array, rows: Array,
) -> tuple[Array, Array, Array]:
    """The terms of the (query, edge) pairs of queries qs whose node rows
    (k, P) index the flattened (Q*V, d) rows of G and hv: `_dense_terms`'
    NumPy calls on the same values. Returns, (k, P, d) each, the gate's
    term gm * t, the factors' gradient gf and alpha's term gf * hn."""
    d = G.shape[-1]
    gm = np.take(G.reshape(-1, d), rows, axis=0)
    hn = np.take(hv.reshape(-1, d), rows, axis=0)
    f = _factors(hn, a, c, pe)
    t = exclusive_products(f)
    t *= gm
    gm *= gv if gv.ndim < 4 else gv[qs, 0, 0]
    gf = exclusive_products_vjp(f, gm)
    return t, gf, np.multiply(gf, hn, out=hn)


def _alpha_grad(shape: tuple[int, ...], qs: Array, es: Array, terms: Array, a: Array) -> Array:
    """alpha's gradient from its terms (Q, k, E, d), summed as
    `_relation_grads` sums the dense ones: the terms (k, P, d) of the pairs
    (qs, es) in their places of a buffer laid out as a gather, (k, E, Q,
    d), +0.0 in every other."""
    Q, k, E, d = shape
    buf = np.zeros((k, E, Q, d))
    buf.reshape(k, E * Q, d)[:, es * Q + qs] = terms
    return _unbroadcast(buf.transpose(2, 0, 1, 3), a.shape)


def _dense_terms(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int, touched: tuple[Array, Array, Array] | None = None,
) -> tuple:
    """Relation rel's terms over all of its (query, edge) pairs: the gate's
    gradient, and at arity 2 or more the Q-sum behind one_minus's and pe's
    (k, E, d), alpha's unsummed term (its sum when touched is given) and
    h's gradient (None when h is a Constant).

    Factors and products are recomputed from the inputs, one block of
    queries at a time. The Q-sum runs on from block to block, in block
    order; every other term, h's too, fills its own rows. alpha's term and
    a shared gate's sum over all queries at once, in the memory order of
    the per-op chain's gather h[..., nodes.T, :], which is (k, E, Q, d):
    each is written into one buffer per relation laid out so. The gate's
    is summed here after the last block, alpha's by `_relation_grads`.

    touched (arity 2 or more), when given, holds the `_holding_pairs` of
    the only edges that hold a row of h that may not be +0.0. At every
    other pair each position reads +0.0, and alpha*(+0.0) is one signed
    zero on every such row, so its factors and their products are
    bitwise those of an all-zero input, one row per position broadcast
    over the block in place of gathering h. The touched pairs run through
    `_pair_kernel` once, and each block writes their terms over its own
    before any sum reads them. alpha's terms are theirs alone, summed by
    `_alpha_grad`: the others are gf * (+0.0)."""
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
    galpha = gather_layout() if k > 1 and touched is None else None
    tg = gfp = None  # the touched pairs' gate terms and factor gradients
    if touched is not None:
        qs, es, rows = touched
        tg, gfp, ta = _pair_kernel(G, h.value, a, c, pe.value, gv, qs, rows)
        galpha = _alpha_grad((Q, k, E, d), qs, es, ta, a)
        f0 = _factors(np.zeros((k, 1, d)), a, c, pe.value)
        t0 = exclusive_products(f0)
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
        at = None  # the block's touched pairs: (their rows, :, their edges)
        if touched is None:
            hn = np.take(h.value[lo:hi], nodes.T, axis=1)
            f = _factors(hn, a, c, pe.value)
            t = exclusive_products(f)
        else:
            f, t = f0, t0
            mine = (qs >= lo) & (qs < hi)
            at = (qs[mine] - lo, slice(None), es[mine])

        def put(x: Array, terms: Array) -> Array:
            if at is not None:
                x[at] = terms[:, mine].swapaxes(0, 1)
            return x

        if shared:
            put(np.multiply(gm, t, out=ggate[lo:hi]), tg)
        else:
            t = put(np.multiply(t, gm, out=t if at is None else None), tg)
            ggate[lo:hi] = _unbroadcast(t, gv[lo:hi].shape)
        del t
        gm *= _query_rows(gv, lo, hi)
        gf = put(exclusive_products_vjp(f, gm), gfp)
        del f, gm
        with state.in_turn(j):
            if gsum is None:
                gsum = gf.sum(axis=0)
            else:
                for row in gf:
                    gsum += row
        if at is None:
            np.multiply(gf, hn, out=galpha[lo:hi])
            del hn
        if want_h:
            gf *= a
            bins.sum(gf.reshape(hi - lo, -1), out=gh[lo:hi])

    run_blocks(run, len(blocks))
    return _unbroadcast(ggate, gv.shape), gsum, galpha, gh


def _pair_terms(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int, pairs: tuple[Array, Array, Array],
) -> tuple:
    """`_dense_terms` (arity 2 or more) from the `_holding_pairs` of G's
    live rows alone.

    Their terms come from `_pair_kernel`, on the calling thread. Each sum
    is a bincount from +0.0 that adds them in the order of its dense sum,
    position, edge, query: the gate's (over position and edge per query,
    or over all three when it is shared), the Q-sum and h's gradient.
    alpha's terms fill their pairs' places of a zero (k, E, Q, d) buffer,
    so its sum adds every term at its dense place (`_alpha_grad`). The
    sums run as two jobs of one `run_blocks` pass: alpha's, and the
    bincounts."""
    Q, V, d = G.shape
    E, k = plan.groups[rel].shape
    qs, es, rows = pairs
    gv = gate.value
    t, gf, ta = _pair_kernel(G, h.value, alpha.value, one_minus.value, pe.value, gv, qs, rows)

    def summed(bins: Array, n: int, terms: Array) -> Array:
        return Bins(bins, n, d, 1).sum(terms.reshape(1, -1))[0]

    by_query = np.zeros_like(rows) if gv.ndim < 4 else np.broadcast_to(qs, rows.shape)
    (ggate, gsum, gh), galpha = _jobs(True, lambda: (
        summed(by_query, 1 if gv.ndim < 4 else Q, t).reshape(gv.shape),
        summed(np.arange(k)[:, None] * E + es, k * E, gf).reshape(k, E, d),
        None if isinstance(h, Constant) else summed(rows, Q * V, gf * alpha.value).reshape(G.shape),
    ), lambda: _alpha_grad((Q, k, E, d), qs, es, ta, alpha.value))
    return ggate, gsum, galpha, gh


def _relation_grads(
    G: Array, h: Var, alpha: Var, one_minus: Var, pe: Var, gate: Var, plan: MessagePlan,
    rel: int, pairs: tuple[Array, Array, Array] | None = None,
    touched: tuple[Array, Array, Array] | None = None,
) -> list[Array]:
    """Relation rel's gradient contributions to gate, one_minus, alpha, pe
    and h (to the gate alone at arity 1, whose product is constant), with
    None for pe and h when they are Constants, given the gradient G
    (Q, V, d) of the summed messages.

    Each term is summed in the order the separate tape ops (gather,
    take_rows, mul, add, exclusive products, gate mul, index_add) summed
    it, so the gradients are bitwise equal to theirs. The terms come from
    every (query, edge) pair (`_dense_terms`, on the all-zero input's
    factors off the touched pairs when touched is given), or from `pairs`
    alone (`_pair_terms`). Those two leave out of their sums only terms
    that are +0.0 or -0.0, while every factor's gradient is finite, and
    adding such a term changes no bit of a sum unless the sum is 0.0,
    whose sign it may set. A term of a sum that is not finite makes the
    sum not finite, so a finite total of the Q-sum over edges shows every
    factor's gradient finite. If that total is not finite, or a sum is
    exactly 0.0, the dense pass runs instead."""
    k = plan.groups[rel].shape[1]
    terms = (_dense_terms(G, h, alpha, one_minus, pe, gate, plan, rel, touched) if pairs is None
             else _pair_terms(G, h, alpha, one_minus, pe, gate, plan, rel, pairs))
    ggate, gsum, galpha, gh = terms
    if k == 1:
        return [ggate]
    a, c = alpha.value, one_minus.value
    pk = _positions(pe.value, k)
    gb = _unbroadcast(gsum, pk.shape)
    ga = _unbroadcast(galpha, a.shape)
    if (pairs is not None or touched is not None) and (
            any(np.any(s == 0) for s in (ggate, gb, ga)) or not np.isfinite(gb).all()):
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
    one index_add per relation. No query reads another's rows, so each
    query block sums its messages straight into its rows of the output.
    The VJP recomputes each relation's factors and products from the
    inputs, one block at a time. The parents are listed as (parent,
    relation) pairs in the order the per-op chain reached them: relations
    last to first, and per relation gate, one_minus, alpha, pe, h, less
    the Constants (`_shared_vjp`).

    given, when not None, holds the (query, node) pairs (two arrays) of
    the only rows of h that may not be +0.0, as a forward's first layer
    has them. The sparse paths run only where one query's per-incidence
    messages fill a block. There a first layer's forward runs
    `_given_messages` and keeps its pairs. In every layer there the VJP
    finds G's live rows (those not +-0.0 throughout) once, and a relation
    of arity 2 or more whose pairs that hold one are at most PAIR_SHARE
    of its Q*E runs on them alone (`_pair_terms`), unless the output is
    not finite; otherwise a first layer runs it on the all-zero input's
    factors off the kept pairs (`_dense_terms`). A pair
    with no live row has gm = +-0.0 at every position, and every message
    enters the output, so a finite output means finite factors, products
    and gates, and +-0.0 for every term such a pair adds to a sum
    (`_relation_grads`)."""
    hv = h.value
    out = np.empty(hv.shape)
    holding = None
    if given is not None and 8 * plan.dest.width >= BLOCK_BYTES:
        holding = _given_messages(out, hv, alpha.value, one_minus.value, pe.value, gates, plan,
                                  given)
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
        nodes, pairs, touched = plan.groups[rel], None, None
        if nodes.shape[1] > 1 and 8 * plan.dest.width >= BLOCK_BYTES:
            if not live:
                live.append(np.ascontiguousarray(np.any(g != 0, axis=-1).T))
            pairs = _holding_pairs(live[0], nodes)
            if pairs[0].size > PAIR_SHARE * nodes.shape[0] * g.shape[0] or not finite():
                pairs = None
            if pairs is None and holding is not None:
                touched = holding[rel]
        return _relation_grads(g, h, alpha, one_minus, pe, gates[rel], plan, rel, pairs, touched)

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
    """(Q, 1, d) -> (Q, size, d) by repetition; backward sums the axis."""
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
    """Normalize over the last axis, then scale and shift."""
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
    drawn whole before any block, so the rng's stream is the chain's. It
    keeps xhat, inv and the ReLU mask, as booleans.

    Both directions walk the query axis in blocks of `BLOCK_BYTES` of
    [h || msgs] rows, each block building only its own. They cut nothing
    but the query axis of a stacked product (Q, V, n) @ (n, m), which
    NumPy runs as one product per query, so a block's rows are the whole
    product's bits. The h slice of gy @ W takes the skip term, one sum in
    the order backward added them. The sums over all queries (the
    gradients of W, b, gamma and beta) run once after the blocks, as two
    `_jobs`: W's, which is [gy^T h, gy^T msgs], the bits of
    gy^T [h || msgs] without building it, and the rest."""
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
        gy2 = gy.reshape(-1, d)
        gW, (gb, ggamma, gbeta) = _jobs(len(blocks) > 1, lambda: np.concatenate(
            [gy2.T @ hv.reshape(-1, d), gy2.T @ mv.reshape(-1, d)], axis=1
        ), lambda: (
            _unbroadcast(gy, b.value.shape), _unbroadcast(gz * xhat, gamma.value.shape),
            _unbroadcast(gz, beta.value.shape)))
        return [gx[..., :d], gx[..., d:], gW, gb, ggamma, gbeta]

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

    A stacked input, shape (Q, V), is walked in query blocks as
    `layer_tail` walks its own. A 2-D input, shape (M,), is one block: cut
    by rows, a 2-D product may change its bits. The gradients of W1, b1,
    W2 and b2 sum over all rows once, after the blocks, as two `_jobs`:
    W1's, which builds all rows again, and the rest."""
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
        gp, gx = np.empty(hid.shape), np.empty(shape + (n,))

        def backward_block(j: int, _: _Pass) -> None:
            lo, hi = blocks[j]
            gpb = np.matmul(g3[lo:hi], W2.value, out=gp[lo:hi])
            gpb *= pos[lo:hi]
            np.matmul(gpb, W1.value, out=gx[lo:hi])

        run_blocks(backward_block, len(blocks))
        gW1, (gb1, gW2, gb2) = _jobs(len(blocks) > 1, lambda: (
            gp.reshape(-1, gp.shape[-1]).T @ rows(0, shape[0]).reshape(-1, n)
        ), lambda: (
            _unbroadcast(gp, b1.value.shape),
            g3.reshape(-1, g3.shape[-1]).T @ hid.reshape(-1, hid.shape[-1]),
            _unbroadcast(g3, b2.value.shape)))
        return [*spread(gx), gW1, gb1, gW2, gb2]

    return tape.var(out.reshape(shape), _shared_vjp([*inputs, W1, b1, W2, b2], grads))
