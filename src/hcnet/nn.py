"""Positional encodings, conditional/unconditional message passing, decoders.

Two forward paths share the same parameterization and one message
kernel, `autodiff.incidence_messages`: per relation, one gather of the
(E_r, k) node ids, position-major, and the exclusive products of the
factors (`autodiff.exclusive_products`), gated, all written into one
array of per-incidence messages.

* The batched training path runs the kernel as one tape op per layer
  (`autodiff.relation_messages`), which sums the messages with one
  scatter and keeps no per-incidence array: its VJP recomputes them from
  the layer's input, one relation at a time. It scores Q queries against
  all nodes at once, with layer norm / dropout / skip connections as used
  for training.
* The exact theorem path (`forward_exact`) runs the bare layer form and
  differs only in how it sums: each node's messages in lexicographic
  order, so nodes with equal message multisets get bitwise-equal
  features — required by the refinement-and-matching checks against the
  WL engines.

The compiled logic networks (`logic.run_compiled`) run its products in
int64. Both conditional paths start from one query initialization
(`_query_init`), which also checks every query.

The layer rule, for each node v with incidence pairs (e,i):

    h' = act( W [ h_v || sum_(e,i) g_(rho(e),q) * prod_{j != i}
                  (alpha h_e(j) + (1-alpha) p_j) ] + b )

with g a diagonal map: W_r z_q in query-dependent mode, w_r otherwise;
the empty product (arity-1 relations) is the all-ones vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ConfigError, DimensionTooSmall, ShapeMismatch
from .hypergraph import Query, RelationalHypergraph
from .refine import _canonical_ordinals

Array = np.ndarray

INIT_VARIANTS = ("pos+rel", "pos", "rel", "ones")
MODEL_KINDS = ("hcnet", "hrnet")
MESSAGE_MODES = ("query-dependent", "query-independent")


# --- positional encodings --------------------------------------------------


def positional_encoding(kind: str, i: int, d: int) -> Array:
    """One encoding vector for position i (1-based; i=0 allowed) of a
    closed-form kind; `pe_table` draws the "learnable" kind."""
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


def pe_table(kind: str, max_pos: int, d: int, rng: np.random.Generator | None = None) -> Array:
    """Rows 0..max_pos of the chosen encoding (row 0 present for indexing)."""
    if kind == "learnable":
        if rng is None:
            raise ShapeMismatch("learnable table needs an rng")
        return rng.standard_normal((max_pos + 1, d)) / np.sqrt(d)
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
        # hrnet has no query, so there is nothing for W_r z_q to read.
        if self.kind == "hrnet" and self.mode == "query-dependent":
            raise ConfigError("hrnet needs mode 'query-independent'")


@dataclass
class ModelParams:
    config: ModelConfig
    num_relations: int
    max_arity: int
    decoder_arities: tuple[int, ...]
    tensors: dict[str, Array]
    fixed: dict[str, Array] = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            self.num_relations,
            self.max_arity,
            self.decoder_arities,
            {k: v.copy() for k, v in self.tensors.items()},
            dict(self.fixed),
        )

    def pe_row(self, i: int | Array) -> Array:
        table = self.tensors.get("pe", self.fixed.get("pe"))
        return table[i]


def init_params(
    graph: RelationalHypergraph,
    config: ModelConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Fresh parameters: U[-1/sqrt(d), 1/sqrt(d)] matrices, zero biases,
    N(0,1)/sqrt(d) query embeddings, alpha = 0.5."""
    if config.kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {config.kind!r}")
    if config.mode not in MESSAGE_MODES:
        raise ConfigError(f"unknown message mode {config.mode!r}")
    d = config.d
    bound = 1.0 / np.sqrt(d)
    num_rel = len(graph.relations)
    max_arity = max(graph.max_arity, 2)
    tensors: dict[str, Array] = {}
    fixed: dict[str, Array] = {}

    for ell in range(config.layers):
        tensors[f"W_l{ell}"] = rng.uniform(-bound, bound, (d, 2 * d))
        tensors[f"b_l{ell}"] = np.zeros(d)
        tensors[f"alpha_l{ell}"] = np.asarray(0.5)
        tensors[f"ln_g_l{ell}"] = np.ones(d)
        tensors[f"ln_b_l{ell}"] = np.zeros(d)
    for r in range(num_rel):
        if config.mode == "query-dependent":
            tensors[f"W_rel{r}"] = rng.uniform(-bound, bound, (d, d))
        else:
            tensors[f"w_rel{r}"] = rng.uniform(-bound, bound, d)
    tensors["z_q"] = rng.standard_normal((num_rel, d)) / np.sqrt(d)
    if config.pe_kind == "learnable":
        tensors["pe"] = pe_table("learnable", max_arity, d, rng)
    else:
        fixed["pe"] = pe_table(config.pe_kind, max_arity, d)

    def mlp(prefix: str, din: int) -> None:
        tensors[f"{prefix}_W1"] = rng.uniform(-bound, bound, (d, din))
        tensors[f"{prefix}_b1"] = np.zeros(d)
        tensors[f"{prefix}_W2"] = rng.uniform(-bound, bound, (1, d))
        tensors[f"{prefix}_b2"] = np.zeros(1)

    if config.kind == "hcnet":
        decoder_arities: tuple[int, ...] = ()
        mlp("dec", 2 * d)
    else:
        decoder_arities = tuple(sorted({r.arity for r in graph.relations}))
        for k in decoder_arities:
            mlp(f"dec{k}", (k + 1) * d)
    return ModelParams(config, num_rel, max_arity, decoder_arities, tensors, fixed)


# --- forward: shared pieces -----------------------------------------------


def edges_by_relation(
    graph: RelationalHypergraph, masked_edges: frozenset[int] | set[int] | None = None
) -> dict[int, Array]:
    """Node-id arrays (E_r, k) per relation, skipping masked edge ids."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for e, ed in enumerate(graph.edges):
        if masked_edges and e in masked_edges:
            continue
        groups.setdefault(ed.relation, []).append(ed.nodes)
    return {r: np.asarray(rows, dtype=np.intp) for r, rows in groups.items()}


def hcnet_init(graph: RelationalHypergraph, query: Query, params: ModelParams) -> Array:
    """One query's initial features (V, d), as the batched path builds them
    (`_query_init`)."""
    tape = Tape(record=False)
    bound = bind_params(tape, params)
    h0, _ = _query_init(tape, bound, graph, [query], params.config.variant)
    return h0.value[0]


# --- forward: exact theorem path ------------------------------------------


def _g_vector(params: ModelParams, rel: int, query_rel: int | None) -> Array:
    if params.config.mode == "query-dependent":
        if query_rel is None:
            raise ShapeMismatch("query-dependent mode needs a query relation")
        return params.tensors[f"W_rel{rel}"] @ params.tensors["z_q"][query_rel]
    return params.tensors[f"w_rel{rel}"]


def forward_exact(
    graph: RelationalHypergraph,
    h0: Array,
    params: ModelParams,
    layers: int | None = None,
    query_rel: int | None = None,
) -> list[Array]:
    """Feature maps for rounds 0..L with multiset-order-independent sums.

    Messages come from the same kernel as the batched path. Each node's
    messages are summed in lexicographic order, so two nodes receiving
    equal multisets of messages end up with bitwise-identical features.
    Runs the bare layer form: no layer norm, dropout or skip connection.
    """
    cfg = params.config
    L = cfg.layers if layers is None else layers
    out = [h0.astype(np.float64)]
    h = out[0]
    edge_groups = edges_by_relation(graph)
    pe = params.pe_row(slice(None))
    for ell in range(L):
        alpha = params.tensors[f"alpha_l{ell}"]
        W = params.tensors[f"W_l{ell}"]
        b = params.tensors[f"b_l{ell}"]
        gates = {rel: _g_vector(params, rel, query_rel) for rel in edge_groups}
        msgs, dest = ad.incidence_messages(h, alpha, 1.0 - alpha, pe, gates, edge_groups)
        order = np.lexsort((*msgs.T[::-1], dest))
        acc = ad.scatter_add(h.shape, dest[order], msgs[order])
        # Row by row, so equal input rows give bitwise-equal output rows
        # whatever blocking a BLAS matrix product would use.
        x = np.concatenate([h, acc], axis=1)
        h = np.maximum(np.stack([W @ row for row in x]) + b, 0.0)
        out.append(h)
    return out


def hrnet_features_exact(
    graph: RelationalHypergraph, params: ModelParams, layers: int | None = None
) -> list[Array]:
    h0 = np.ones((graph.node_count, params.config.d))
    return forward_exact(graph, h0, params, layers)


def hcnet_features_exact(
    graph: RelationalHypergraph,
    query: Query,
    params: ModelParams,
    layers: int | None = None,
) -> list[Array]:
    h0 = hcnet_init(graph, query, params)
    return forward_exact(graph, h0, params, layers, query_rel=query.relation)


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


def bind_params(tape: Tape, params: ModelParams) -> dict[str, Var]:
    bound = {name: tape.leaf(value) for name, value in params.tensors.items()}
    for name, value in params.fixed.items():
        bound[name] = tape.constant(value)
    return bound


def _message_layer(
    tape: Tape,
    bound: dict[str, Var],
    cfg: ModelConfig,
    ell: int,
    h: Var,
    edge_groups: dict[int, Array],
    g_by_rel: dict[int, Var],
    train: bool,
    rng: np.random.Generator | None,
) -> Var:
    alpha = bound[f"alpha_l{ell}"]
    one_minus = ad.sub(tape, tape.constant(np.asarray(1.0)), alpha)
    msgs = ad.relation_messages(tape, h, alpha, one_minus, bound["pe"], g_by_rel, edge_groups)
    z = ad.concat_last(tape, [h, msgs])
    z = ad.add(tape, ad.matmul_last(tape, z, bound[f"W_l{ell}"]), bound[f"b_l{ell}"])
    z = ad.layer_norm(tape, z, bound[f"ln_g_l{ell}"], bound[f"ln_b_l{ell}"])
    if train and cfg.dropout > 0.0:
        z = ad.dropout(tape, z, cfg.dropout, rng)
    return ad.add(tape, ad.relu(tape, z), h)


def _g_vars(
    tape: Tape,
    bound: dict[str, Var],
    cfg: ModelConfig,
    edge_groups: dict[int, Array],
    zq_batch: Var | None,
) -> dict[int, Var]:
    out: dict[int, Var] = {}
    for rel in edge_groups:
        if cfg.mode == "query-dependent":
            g = ad.matmul_last(tape, zq_batch, bound[f"W_rel{rel}"])  # (Q, d)
            out[rel] = ad.reshape(tape, g, (g.value.shape[0], 1, 1, g.value.shape[1]))
        else:
            out[rel] = bound[f"w_rel{rel}"]
    return out


def _query_init(
    tape: Tape,
    bound: dict[str, Var],
    graph: RelationalHypergraph,
    queries: list[Query],
    variant: str,
) -> tuple[Var, Var]:
    """Initial features (Q, V, d) and query embeddings z_q (Q, d) for a
    batch: h0_v = sum over given positions i with u_i = v of (p_i + z_q);
    zero elsewhere. Ablation variants drop either addend or use a bare
    indicator."""
    if variant not in INIT_VARIANTS:
        raise ShapeMismatch(f"unknown init variant {variant!r}")
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
    return h0, zq_batch


def hcnet_forward_batch(
    graph: RelationalHypergraph,
    queries: list[Query],
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
    masked_edges: set[int] | None = None,
    record: bool = True,
) -> ForwardTrace:
    """Conditional features (Q, V, d) for a batch of queries in one pass.
    With record=False the tape records nothing, so the pass cannot be
    differentiated and holds only the arrays still in use."""
    cfg = params.config
    tape = Tape(record=record)
    bound = bind_params(tape, params)
    h, zq_batch = _query_init(tape, bound, graph, queries, cfg.variant)
    edge_groups = edges_by_relation(graph, masked_edges)
    g_by_rel = _g_vars(tape, bound, cfg, edge_groups, zq_batch)
    for ell in range(cfg.layers):
        h = _message_layer(tape, bound, cfg, ell, h, edge_groups, g_by_rel, train, rng)
    return ForwardTrace(tape, bound, h, zq_batch=zq_batch)


def hrnet_forward_batch(
    graph: RelationalHypergraph, params: ModelParams, record: bool = True
) -> ForwardTrace:
    """Query-agnostic features (1, V, d) from the all-ones initialization,
    without dropout; `record` as in `hcnet_forward_batch`."""
    cfg = params.config
    tape = Tape(record=record)
    bound = bind_params(tape, params)
    h = tape.constant(np.ones((1, graph.node_count, cfg.d)))
    edge_groups = edges_by_relation(graph)
    g_by_rel = _g_vars(tape, bound, cfg, edge_groups, None)
    for ell in range(cfg.layers):
        h = _message_layer(tape, bound, cfg, ell, h, edge_groups, g_by_rel, False, None)
    return ForwardTrace(tape, bound, h)


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


def _mlp_logits(tape: Tape, bound: dict[str, Var], prefix: str, x: Var) -> Var:
    hdn = ad.relu(
        tape,
        ad.add(tape, ad.matmul_last(tape, x, bound[f"{prefix}_W1"]), bound[f"{prefix}_b1"]),
    )
    out = ad.add(tape, ad.matmul_last(tape, hdn, bound[f"{prefix}_W2"]), bound[f"{prefix}_b2"])
    return ad.reshape(tape, out, out.value.shape[:-1])


def decode_unary_batch(trace: ForwardTrace) -> Var:
    """Logits (Q, V) of the unary decoder over [h_v || z_q]."""
    tape, bound, h = trace.tape, trace.bound, trace.features
    Q, V, d = h.value.shape
    z3 = ad.reshape(tape, trace.zq_batch, (Q, 1, d))
    zb = ad.broadcast_middle(tape, z3, V)
    x = ad.concat_last(tape, [h, zb])
    return _mlp_logits(tape, bound, "dec", x)


def decode_kary_batch(trace: ForwardTrace, tuples: Array, qrel: Array) -> Var:
    """Logits (M,) for node tuples (M, k) under query relations qrel (M,),
    from query-agnostic features (1, V, d)."""
    tape, bound, h = trace.tape, trace.bound, trace.features
    k = tuples.shape[1]
    parts = [
        ad.reshape(
            tape,
            ad.gather_nodes(tape, h, tuples[:, t]),
            (tuples.shape[0], h.value.shape[2]),
        )
        for t in range(k)
    ]
    parts.append(ad.take_rows(tape, bound["z_q"], qrel))
    x = ad.concat_last(tape, parts)
    return _mlp_logits(tape, bound, f"dec{k}", x)


def decode_unary(h_v: Array, z_q: Array, params: ModelParams) -> float:
    """Probability from the 2-layer MLP over [h_v || z_q]."""
    t = params.tensors
    x = np.concatenate([h_v, z_q])
    hdn = np.maximum(t["dec_W1"] @ x + t["dec_b1"], 0.0)
    return float(ad.stable_sigmoid(t["dec_W2"] @ hdn + t["dec_b2"])[0])


def decode_kary(h_tuple: list[Array], z_q: Array, params: ModelParams) -> float:
    """Probability for a full k-tuple of final representations."""
    k = len(h_tuple)
    t = params.tensors
    x = np.concatenate([*h_tuple, z_q])
    if f"dec{k}_W1" not in t:
        raise ShapeMismatch(f"no decoder for arity {k}")
    if t[f"dec{k}_W1"].shape[1] != x.shape[0]:
        raise ShapeMismatch("decoder width does not match tuple arity")
    hdn = np.maximum(t[f"dec{k}_W1"] @ x + t[f"dec{k}_b1"], 0.0)
    return float(ad.stable_sigmoid(t[f"dec{k}_W2"] @ hdn + t[f"dec{k}_b2"])[0])


# --- gradients -------------------------------------------------------------


def backward(trace: ForwardTrace, root: Var, seed: Array | float = 1.0) -> dict[str, Array]:
    """Parameter gradients of root, seeded with `seed`, from a recorded
    forward pass."""
    ad.backward(trace.tape, root, seed)
    return {
        name: (var.grad if var.grad is not None else np.zeros_like(var.value))
        for name, var in trace.bound.items()
    }


def grad_check(
    graph: RelationalHypergraph,
    query: Query,
    params: ModelParams,
    eps: float = 1e-5,
    samples_per_tensor: int = 4,
    seed: int = 0,
    jitter: float = 0.05,
) -> float:
    """Max relative error of backward vs central finite differences on a
    subsample of entries of every trainable tensor (64-bit).

    Parameters are first nudged to a generic point (small uniform jitter):
    zero-initialized biases put entire feature rows exactly on the ReLU
    kink and at zero layer-norm variance, where the loss is genuinely
    non-differentiable and finite differences are meaningless."""
    rng = np.random.default_rng(seed)
    params = params.copy()
    if jitter > 0.0:
        for tensor in params.tensors.values():
            tensor += rng.uniform(-jitter, jitter, tensor.shape)

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
