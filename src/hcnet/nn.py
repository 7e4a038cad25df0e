"""Positional encodings, conditional/unconditional message passing, decoders.

Two forward paths share the same parameterization and one message
kernel, `autodiff.incidence_messages`: per relation, one gather of the
(E_r, k) node ids (`edges_by_relation`), position-major, and the
exclusive products of the factors (`autodiff.exclusive_products`),
gated, all written into one array of per-incidence messages.

* The batched training path, one body for both model kinds
  (`_forward_batch`, given the queries or none), runs the kernel as one
  tape op per layer (`autodiff.relation_messages`), which sums the
  messages with one scatter and keeps no per-incidence array: its VJP
  recomputes them from the layer's input, one relation at a time. Both
  directions walk the query axis in blocks of `autodiff.BLOCK_BYTES` per
  per-incidence array, on scatter bins built once per pass
  (`autodiff.MessagePlan`), on two threads when there are two or more
  blocks, bit for bit the unblocked serial sums. It scores Q queries
  against all nodes at once, with layer norm / dropout / skip
  connections as used for training. A layer's tail (linear, layer norm,
  dropout, ReLU, skip) is one more tape op (`autodiff.layer_tail`), and
  the unary and k-ary decoders are one op (`autodiff.mlp_decoder`), each
  keeping only what its VJP reads, so a recorded layer adds four tape
  vars and keeps two (Q, V, d) values. The tail and the unary decoder
  walk the query axis in blocks too, on the same two threads; a decoder's
  input builder makes the rows of a range of queries, so a block builds
  only its own, and the k-ary decoder's (M, n) rows are one block.
  `backward` returns the gradients of the trained tensors only.
  The first layer of a forward with queries hands the message op the
  (query, given node) pairs of its start, which is +0.0 elsewhere. On a
  graph where one query's per-incidence messages fill a block, the op
  then runs the all-zero input's pass once per distinct set of gate rows
  (one per query relation) and sums again, in full and in incidence
  order, only the nodes of the edges that hold a given node: every other
  node's messages are the all-zero input's, bit for bit, so every output
  bit is the full pass's.
* The exact theorem path (`forward_exact`) runs the bare layer form and
  differs only in how it sums: each node's messages in lexicographic
  order, so nodes with equal message multisets get bitwise-equal
  features — required by the refinement-and-matching checks against the
  WL engines. It takes a query or none, as the batched paths do.

The compiled logic networks (`logic.run_compiled`) run its products in
int64. Every path with a query starts from one query initialization
(`_query_init`), which also checks every query; without one, features
start as all ones. Every model field is checked once, in `ModelConfig`.
`ModelParams` holds only the trained tensors; a closed-form encoding
table is built for the graph being run when `bind_params` binds them.

The layer rule, for each node v with incidence pairs (e,i):

    h' = act( W [ h_v || sum_(e,i) g_(rho(e),q) * prod_{j != i}
                  (alpha h_e(j) + (1-alpha) p_j) ] + b )

with g a diagonal map: W_r z_q in query-dependent mode, w_r otherwise;
the empty product (arity-1 relations) is the all-ones vector.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ConfigError, DimensionTooSmall, ShapeMismatch
from .hypergraph import Query, RelationalHypergraph
from .refine import _canonical_ordinals

Array = np.ndarray

INIT_VARIANTS = ("pos+rel", "pos", "rel", "ones")
PE_KINDS = ("sinusoidal", "one-hot", "constant", "learnable")
MODEL_KINDS = ("hcnet", "hrnet")
MESSAGE_MODES = ("query-dependent", "query-independent")


def need(fields: dict, name: str, kind: type, ok, want: str) -> None:
    """Raise ConfigError unless fields[name] is a `kind` (never a bool) for
    which ok holds."""
    value = fields[name]
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ConfigError(f"config {name!r} must be {want}, got {value!r}")


# --- positional encodings --------------------------------------------------


def positional_encoding(kind: str, i: int, d: int) -> Array:
    """One encoding vector for position i (1-based; i=0 allowed) of a
    closed-form kind; `init_params` draws the "learnable" kind."""
    if kind == "sinusoidal":
        if d % 2 != 0:
            raise DimensionTooSmall("sinusoidal encoding needs even d")
        j = np.arange(d // 2)
        freq = 1.0 / (10000.0 ** (2.0 * j / d))
        out = np.empty(d)
        out[0::2] = np.sin(i * freq)
        out[1::2] = np.cos(i * freq)
        return out
    if kind == "one-hot":
        if d < i:
            raise DimensionTooSmall(f"one-hot position {i} needs d >= {i}")
        out = np.zeros(d)
        if i >= 1:
            out[i - 1] = 1.0
        return out
    if kind == "constant":
        return np.ones(d)
    raise ShapeMismatch(f"unknown encoding kind {kind!r}")


def pe_table(kind: str, max_pos: int, d: int) -> Array:
    """Rows 0..max_pos of a closed-form encoding (row 0 present for indexing)."""
    return np.stack([positional_encoding(kind, i, d) for i in range(max_pos + 1)])


# --- parameters ------------------------------------------------------------


@dataclass
class ModelConfig:
    kind: str = "hcnet"  # "hcnet" | "hrnet"
    d: int = 32
    layers: int = 7
    mode: str = "query-dependent"  # "query-dependent" | "query-independent"
    pe_kind: str = "sinusoidal"
    variant: str = "pos+rel"  # initialization: "pos+rel" | "pos" | "rel" | "ones"
    dropout: float = 0.0

    def __post_init__(self) -> None:
        """Reject a field of the wrong type, out of range or not among its
        choices with ConfigError."""
        for name, label, choices in (
            ("kind", "model kind", MODEL_KINDS),
            ("mode", "message mode", MESSAGE_MODES),
            ("variant", "init variant", INIT_VARIANTS),
            ("pe_kind", "encoding kind", PE_KINDS),
        ):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {label} {getattr(self, name)!r}")
        need(vars(self), "d", Integral, lambda x: x >= 1, "an integer >= 1")
        need(vars(self), "layers", Integral, lambda x: x >= 0, "an integer >= 0")
        need(vars(self), "dropout", Real, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")
        # hrnet has no query, so there is nothing for W_r z_q to read.
        if self.kind == "hrnet" and self.mode == "query-dependent":
            raise ConfigError("hrnet needs mode 'query-independent'")


@dataclass
class ModelParams:
    config: ModelConfig
    num_relations: int
    max_arity: int
    decoder_arities: tuple[int, ...]
    tensors: dict[str, Array]  # the trained tensors only

    def copy(self) -> "ModelParams":
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})


def param_layout(
    config: ModelConfig, num_relations: int, max_arity: int, decoder_arities: tuple[int, ...]
) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Name, shape and initializer of every trainable tensor, in the order
    `init_params` draws them. Yields one at a time, so a caller can stop
    after as many as it has to compare."""
    d = config.d
    for ell in range(config.layers):
        yield f"W_l{ell}", (d, 2 * d), "uniform"
        yield f"b_l{ell}", (d,), "zeros"
        yield f"alpha_l{ell}", (), "half"
        yield f"ln_g_l{ell}", (d,), "ones"
        yield f"ln_b_l{ell}", (d,), "zeros"
    for r in range(num_relations):
        if config.mode == "query-dependent":
            yield f"W_rel{r}", (d, d), "uniform"
        else:
            yield f"w_rel{r}", (d,), "uniform"
    yield "z_q", (num_relations, d), "normal"
    if config.pe_kind == "learnable":
        yield "pe", (max_arity + 1, d), "normal"
    mlps = [("dec", 2)] if config.kind == "hcnet" else [(f"dec{k}", k + 1) for k in decoder_arities]
    for prefix, inputs in mlps:
        yield f"{prefix}_W1", (d, inputs * d), "uniform"
        yield f"{prefix}_b1", (d,), "zeros"
        yield f"{prefix}_W2", (1, d), "uniform"
        yield f"{prefix}_b2", (1,), "zeros"


def init_params(
    graph: RelationalHypergraph,
    config: ModelConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Fresh parameters: U[-1/sqrt(d), 1/sqrt(d)] matrices, zero biases,
    N(0,1)/sqrt(d) query embeddings (and learnable encodings), alpha = 0.5."""
    d = config.d
    bound = 1.0 / np.sqrt(d)
    num_rel = len(graph.relations)
    max_arity = max(graph.max_arity, 2)
    decoder_arities: tuple[int, ...] = ()
    if config.kind == "hrnet":
        decoder_arities = tuple(sorted({r.arity for r in graph.relations}))
    draw = {"uniform": lambda shape: rng.uniform(-bound, bound, shape),
            "normal": lambda shape: rng.standard_normal(shape) / np.sqrt(d),
            "zeros": np.zeros, "ones": np.ones, "half": lambda shape: np.full(shape, 0.5)}
    tensors = {
        name: draw[how](shape)
        for name, shape, how in param_layout(config, num_rel, max_arity, decoder_arities)
    }
    return ModelParams(config, num_rel, max_arity, decoder_arities, tensors)


# --- forward: shared pieces -----------------------------------------------


def edges_by_relation(
    graph: RelationalHypergraph, masked_edges: frozenset[int] | set[int] | None = None
) -> dict[int, Array]:
    """Node-id arrays (E_r, k) of the graph's `relation_edges` less the masked
    edges, relations in order of their first kept edge (the scatter's order)."""
    table = graph.relation_edges
    if not masked_edges:
        return {r: nodes for r, (_, nodes) in table.items()}
    masked = np.fromiter(masked_edges, dtype=np.intp, count=len(masked_edges))
    kept = []
    for r, (ids, nodes) in table.items():
        keep = ~np.isin(ids, masked)
        if keep.any():
            kept.append((ids[keep.argmax()], r, nodes[keep]))
    return {r: nodes for _, r, nodes in sorted(kept, key=lambda item: item[0])}


# --- forward: exact theorem path ------------------------------------------


def _g_vector(params: ModelParams, rel: int, query: Query | None) -> Array:
    if params.config.mode == "query-dependent":
        if query is None:
            raise ShapeMismatch("query-dependent mode needs a query")
        return params.tensors[f"W_rel{rel}"] @ params.tensors["z_q"][query.relation]
    return params.tensors[f"w_rel{rel}"]


def forward_exact(
    graph: RelationalHypergraph,
    params: ModelParams,
    query: Query | None,
    rounds: int,
) -> list[Array]:
    """Feature maps for rounds 0..`rounds` with multiset-order-independent sums.

    Round 0 is the batched paths' start: the query's initialization, or
    all ones without a query. Messages come from the same kernel, and
    each node's are summed in lexicographic order, so two nodes receiving
    equal multisets of messages end up with bitwise-identical features.
    Runs the bare layer form: no layer norm, dropout or skip connection.
    """
    tape = Tape(record=False)
    bound = bind_params(tape, params, graph)
    if query is None:
        h = np.ones((graph.node_count, params.config.d))
    else:
        h = _query_init(tape, bound, graph, [query], params.config.variant)[0].value[0]
    out = [h]
    edge_groups = edges_by_relation(graph)
    dest = ad.destinations(edge_groups)
    pe = bound["pe"].value
    for ell in range(rounds):
        alpha = params.tensors[f"alpha_l{ell}"]
        W = params.tensors[f"W_l{ell}"]
        b = params.tensors[f"b_l{ell}"]
        gates = {rel: _g_vector(params, rel, query) for rel in edge_groups}
        msgs = ad.incidence_messages(h, alpha, 1.0 - alpha, pe, gates, edge_groups)
        order = np.lexsort((*msgs.T[::-1], dest))
        acc = ad.scatter_add(h.shape, dest[order], msgs[order])
        # Row by row, so equal input rows give bitwise-equal output rows
        # whatever blocking a BLAS matrix product would use.
        x = np.concatenate([h, acc], axis=1)
        h = np.maximum(np.stack([W @ row for row in x]) + b, 0.0)
        out.append(h)
    return out


def feature_partition(features: Array) -> list[int]:
    """Exact-equality partition of feature rows as dense class ids, interned
    like the WL engines' colors."""
    return _canonical_ordinals([tuple(r) for r in features.tolist()])


# --- forward: batched tape path -------------------------------------------


@dataclass
class ForwardTrace:
    tape: Tape
    bound: dict[str, Var]
    features: Var  # (Q, V, d)
    zq_batch: Var | None = None  # (Q, d), hcnet batches only


def bind_params(tape: Tape, params: ModelParams, graph: RelationalHypergraph) -> dict[str, Var]:
    """The trained tensors as leaves and, for a closed-form encoding, its
    table for the positions of `graph` as a constant."""
    bound = {name: tape.leaf(value) for name, value in params.tensors.items()}
    cfg = params.config
    if cfg.pe_kind != "learnable":
        bound["pe"] = tape.constant(pe_table(cfg.pe_kind, max(graph.max_arity, 2), cfg.d))
    return bound


def _query_init(
    tape: Tape,
    bound: dict[str, Var],
    graph: RelationalHypergraph,
    queries: list[Query],
    variant: str,
) -> tuple[Var, Var, tuple[Array, Array]]:
    """Initial features (Q, V, d), query embeddings z_q (Q, d) and the
    (query, given node) pairs (two arrays) for a batch: h0_v = sum over
    given positions i with u_i = v of (p_i + z_q); zero elsewhere.
    Ablation variants drop either addend or use a bare indicator. Every
    row off the given pairs is +0.0, a bincount's onto zeros, which the
    first layer's `autodiff.relation_messages` relies on."""
    incidences: list[tuple[int, int, int]] = []  # (query, given node, its position)
    for b, q in enumerate(queries):
        arity = graph.relations[q.relation].arity
        incidences += [(b, u, i) for u, i in zip(q.given, q.given_positions(arity))]
    rows_a, cols_a, pe_a = np.asarray(incidences, dtype=np.intp).reshape(-1, 3).T
    qrel = np.asarray([q.relation for q in queries], dtype=np.intp)
    zq_batch = ad.take_rows(tape, bound["z_q"], qrel)  # (Q, d)

    parts: list[Var] = []
    if variant in ("pos+rel", "pos"):
        parts.append(ad.take_rows(tape, bound["pe"], pe_a))
    if variant in ("pos+rel", "rel"):
        parts.append(ad.take_rows(tape, bound["z_q"], qrel[rows_a]))
    d = zq_batch.value.shape[1]
    if variant == "ones":
        parts.append(tape.constant(np.ones((len(rows_a), d))))
    vals = parts[0]
    for p in parts[1:]:
        vals = ad.add(tape, vals, p)
    shape = (len(queries), graph.node_count, d)
    h0 = ad.index_add_2d(tape, shape, rows_a, cols_a, vals)
    return h0, zq_batch, (rows_a, cols_a)


def _forward_batch(
    graph: RelationalHypergraph, params: ModelParams, queries: list[Query] | None,
    rng: np.random.Generator | None, masked_edges: set[int] | None, record: bool,
) -> ForwardTrace:
    """Features (Q, V, d) from the queries' initialization, or (1, V, d)
    from all ones without queries, through every layer. Only this frame
    holds the initial features, so a pass that records nothing frees them
    after the first layer."""
    cfg = params.config
    tape = Tape(record=record)
    bound = bind_params(tape, params, graph)
    zq_batch = given = None
    if queries is None:
        h = tape.constant(np.ones((1, graph.node_count, cfg.d)))
    else:
        h, zq_batch, given = _query_init(tape, bound, graph, queries, cfg.variant)
    edge_groups = edges_by_relation(graph, masked_edges)
    plan = ad.MessagePlan(edge_groups, h.value.shape)
    gates: dict[int, Var] = {}
    for rel in edge_groups:
        if cfg.mode == "query-dependent":
            g = ad.matmul_last(tape, zq_batch, bound[f"W_rel{rel}"])  # (Q, d)
            gates[rel] = ad.reshape(tape, g, (g.value.shape[0], 1, 1, g.value.shape[1]))
        else:
            gates[rel] = bound[f"w_rel{rel}"]
    rate = cfg.dropout if rng is not None else 0.0
    for ell in range(cfg.layers):
        alpha = bound[f"alpha_l{ell}"]
        one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), alpha)
        h = ad.layer_tail(
            tape, h, ad.relation_messages(tape, h, alpha, one_minus, bound["pe"], gates, plan,
                                          given if ell == 0 else None),
            *(bound[f"{name}_l{ell}"] for name in ("W", "b", "ln_g", "ln_b")), rate, rng,
        )
    return ForwardTrace(tape, bound, h, zq_batch=zq_batch)


def hcnet_forward_batch(
    graph: RelationalHypergraph,
    queries: list[Query],
    params: ModelParams,
    rng: np.random.Generator | None = None,
    masked_edges: set[int] | None = None,
    record: bool = True,
) -> ForwardTrace:
    """Conditional features (Q, V, d) for a batch of queries in one pass,
    with dropout drawn from `rng` when one is given. With record=False the
    tape records nothing, so the pass cannot be differentiated and holds
    only the arrays still in use."""
    return _forward_batch(graph, params, queries, rng, masked_edges, record)


def hrnet_forward_batch(
    graph: RelationalHypergraph, params: ModelParams, record: bool = True
) -> ForwardTrace:
    """Query-agnostic features (1, V, d) from the all-ones initialization,
    without dropout; `record` as in `hcnet_forward_batch`."""
    return _forward_batch(graph, params, None, None, None, record)


def hcnet_forward(
    graph: RelationalHypergraph, query: Query, params: ModelParams
) -> tuple[Array, ForwardTrace]:
    """Single-query convenience wrapper: final (V, d) features plus trace."""
    trace = hcnet_forward_batch(graph, [query], params)
    return trace.features.value[0], trace


def hrnet_forward(graph: RelationalHypergraph, params: ModelParams) -> tuple[Array, ForwardTrace]:
    trace = hrnet_forward_batch(graph, params)
    return trace.features.value[0], trace


# --- decoders --------------------------------------------------------------


def decode_unary_batch(trace: ForwardTrace) -> Var:
    """Logits (Q, V) of the unary decoder over [h_v || z_q]; a block of
    queries builds only its own rows."""
    h, zq = trace.features, trace.zq_batch
    Q, V, d = h.value.shape

    def rows(lo: int, hi: int) -> Array:
        zb = np.broadcast_to(zq.value[lo:hi, None, :], (hi - lo, V, zq.value.shape[1]))
        return np.concatenate([h.value[lo:hi], zb], axis=-1)

    return ad.mlp_decoder(trace.tape, [h, zq], (Q, V), rows,
                          lambda gx: [gx[..., :d], gx[..., d:].sum(axis=1)],
                          *(trace.bound[f"dec_{n}"] for n in ("W1", "b1", "W2", "b2")))


def decode_kary_batch(trace: ForwardTrace, tuples: Array, qrel: Array) -> Var:
    """Logits (M,) for node tuples (M, k) under query relations qrel (M,),
    from query-agnostic features (1, V, d): one 2-D product, one block,
    over rows [h_u1 || ... || h_uk || z_q] filled by two gathers.
    h's gradient is handed on one scatter per position, last first, as a
    chain of gathers summed it."""
    h, z_q = trace.features, trace.bound["z_q"]
    d = h.value.shape[2]
    M, k = tuples.shape

    def rows(lo: int, hi: int) -> Array:
        x = np.empty((hi - lo, k + 1, d))
        x[:, :k] = h.value[0][tuples[lo:hi]]
        x[:, k] = z_q.value[qrel[lo:hi]]
        return x.reshape(hi - lo, -1)

    def spread(gx: Array) -> list:
        return [*(ad.scatter_add(h.value.shape, tuples[:, t], gx[None, :, t * d:(t + 1) * d])
                  for t in range(k - 1, -1, -1)),
                ad.scatter_add(z_q.value.shape, qrel, gx[:, k * d:])]

    return ad.mlp_decoder(trace.tape, [h] * k + [z_q], (M,), rows, spread,
                          *(trace.bound[f"dec{k}_{n}"] for n in ("W1", "b1", "W2", "b2")))


def _mlp_probability(params: ModelParams, prefix: str, x: Array) -> float:
    t = params.tensors
    hdn = np.maximum(t[f"{prefix}_W1"] @ x + t[f"{prefix}_b1"], 0.0)
    return float(ad.stable_sigmoid(t[f"{prefix}_W2"] @ hdn + t[f"{prefix}_b2"])[0])


def decode_unary(h_v: Array, z_q: Array, params: ModelParams) -> float:
    """Probability from the 2-layer MLP over [h_v || z_q]."""
    return _mlp_probability(params, "dec", np.concatenate([h_v, z_q]))


def decode_kary(h_tuple: list[Array], z_q: Array, params: ModelParams) -> float:
    """Probability for a full k-tuple of final representations."""
    k = len(h_tuple)
    x = np.concatenate([*h_tuple, z_q])
    if f"dec{k}_W1" not in params.tensors:
        raise ShapeMismatch(f"no decoder for arity {k}")
    if params.tensors[f"dec{k}_W1"].shape[1] != x.shape[0]:
        raise ShapeMismatch("decoder width does not match tuple arity")
    return _mlp_probability(params, f"dec{k}", x)


# --- gradients -------------------------------------------------------------


def backward(trace: ForwardTrace, root: Var, seed: Array | float = 1.0) -> dict[str, Array]:
    """Gradients of root, seeded with `seed`, of the trained tensors of a
    recorded forward pass (a closed-form encoding table has none)."""
    ad.backward(trace.tape, root, seed)
    return {
        name: (var.grad if var.grad is not None else np.zeros_like(var.value))
        for name, var in trace.bound.items()
        if not isinstance(var, ad.Constant)
    }


def grad_check(
    graph: RelationalHypergraph,
    query: Query,
    params: ModelParams,
    eps: float = 1e-5,
    samples_per_tensor: int = 4,
    seed: int = 0,
) -> float:
    """Max relative error of backward vs central finite differences on a
    subsample of entries of every trainable tensor (64-bit).

    Parameters are first nudged to a generic point (uniform jitter of
    +-0.05): zero-initialized biases put entire feature rows exactly on the
    ReLU kink and at zero layer-norm variance, where the loss is genuinely
    non-differentiable and finite differences are meaningless."""
    rng = np.random.default_rng(seed)
    params = params.copy()
    for tensor in params.tensors.values():
        tensor += rng.uniform(-0.05, 0.05, tensor.shape)

    def loss_of(p: ModelParams) -> tuple[float, dict[str, Array]]:
        trace = hcnet_forward_batch(graph, [query], p)
        logits = decode_unary_batch(trace)
        tape = trace.tape
        loss = ad.sum_all(tape, ad.sigmoid(tape, logits))
        grads = backward(trace, loss)
        return float(loss.value), grads

    _, grads = loss_of(params)
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        n = flat.size
        picks = rng.choice(n, size=min(samples_per_tensor, n), replace=False)
        for idx in picks:
            saved = flat[idx]
            flat[idx] = saved + eps
            up, _ = loss_of(params)
            flat[idx] = saved - eps
            down, _ = loss_of(params)
            flat[idx] = saved
            numeric = (up - down) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, err)
    return worst
