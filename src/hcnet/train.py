"""Training loop: corruption negatives, masking, adversarial loss, Adam.

Negatives follow the partial completeness assumption: one position t of an
observed fact is corrupted, uniformly per positive per batch, filtered
against the training fact set. During message passing the batch's positive
edges are masked out, so a query never sees the edge it is asked to
predict. The loss weights negatives by a softmax of their own scores
(temperature alpha_adv); the weights are treated as constants in the
gradient. `fit` and the hypercycle experiment share one step function,
`train_step`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .errors import (
    CheckpointError,
    ConfigError,
    FactNotFound,
    NoCandidate,
    NonFiniteValue,
    ProbabilityOutOfRange,
    ShapeMismatch,
)
from .evalrank import evaluate_model, filtered_candidates
from .hypergraph import HyperEdge, Query, RelationalHypergraph
from .nn import (
    MODEL_KINDS,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    backward,
    decode_unary_batch,
    hcnet_forward_batch,
    init_params,
    pe_table,
)


@dataclass
class TrainConfig:
    d: int = 32
    layers: int = 7
    lr: float = 1e-3
    batch_size: int = 32
    negatives: int = 10
    adv_temperature: float = 0.5
    epochs: int = 100
    dropout: float = 0.0
    mode: str = "query-dependent"
    variant: str = "pos+rel"
    pe_kind: str = "sinusoidal"
    steps_per_epoch: int | None = None  # None = every batch
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject a field of the wrong type or out of range with ConfigError.
        `mode`, `variant` and `pe_kind` are checked where they are used."""

        def need(name: str, kind: type, ok, want: str) -> None:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ConfigError(f"config {name!r} must be {want}, got {value!r}")

        for name in ("d", "batch_size", "negatives"):
            need(name, Integral, lambda x: x >= 1, "an integer >= 1")
        for name in ("layers", "epochs", "seed"):
            need(name, Integral, lambda x: x >= 0, "an integer >= 0")
        if self.steps_per_epoch is not None:
            need("steps_per_epoch", Integral, lambda x: x >= 1, "null or an integer >= 1")
        for name in ("lr", "adv_temperature"):
            need(name, Real, lambda x: 0.0 < x < math.inf, "a finite number > 0")
        need("dropout", Real, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")

    def model_config(self, kind: str = "hcnet") -> ModelConfig:
        # The query-agnostic baseline carries per-relation weight vectors;
        # only the conditional model supports query-dependent messages.
        return ModelConfig(
            kind=kind,
            d=self.d,
            layers=self.layers,
            mode="query-independent" if kind == "hrnet" else self.mode,
            pe_kind=self.pe_kind,
            variant=self.variant,
            dropout=self.dropout,
        )


# --- negative sampling -----------------------------------------------------


def corrupt(
    fact: HyperEdge,
    t: int,
    graph: RelationalHypergraph,
    n: int,
    rng: np.random.Generator,
    fact_set: set[tuple[int, tuple[int, ...]]] | None = None,
) -> list[int]:
    """n corruptions of position t, uniform over nodes, excluding the true
    entity and any substitution forming a known training fact."""
    if fact_set is None:
        fact_set = graph.fact_set()
    true = fact.nodes[t - 1]
    legal = [v for v in filtered_candidates(fact, t, graph.node_count, fact_set) if v != true]
    if not legal:
        raise NoCandidate(f"no legal corruption at position {t}")
    return [legal[i] for i in rng.integers(0, len(legal), size=n)]


def self_adversarial_loss(p_pos: float, p_negs: list[float], alpha_adv: float) -> float:
    """-log p  -  sum_i w_i log(1 - p'_i), w = Softmax(log(1-p')/alpha)."""
    probs = [p_pos, *p_negs]
    if any(not (0.0 < p < 1.0) for p in probs):
        raise ProbabilityOutOfRange(str(probs))
    logs = np.log1p(-np.asarray(p_negs))
    w = np.exp(logs / alpha_adv - np.logaddexp.reduce(logs / alpha_adv))
    return float(-np.log(p_pos) - np.sum(w * logs))


def mask_positives(
    graph: RelationalHypergraph, batch_facts: list[HyperEdge]
) -> set[int]:
    """Edge ids to exclude from message passing: one occurrence per batch
    fact (duplicates mask distinct edges)."""
    masked: set[int] = set()
    index: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for e, ed in enumerate(graph.edges):
        index.setdefault((ed.relation, ed.nodes), []).append(e)
    for fact in batch_facts:
        ids = index.get((fact.relation, fact.nodes))
        if not ids:
            raise FactNotFound(f"{fact} not in graph")
        for e in ids:
            if e not in masked:
                masked.add(e)
                break
        else:
            raise FactNotFound(f"all occurrences of {fact} already masked")
    return masked


# --- optimizer -------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """In-place bias-corrected Adam update."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    for name, tensor in params.tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != tensor.shape:
            raise ShapeMismatch(f"{name}: grad {g.shape} vs param {tensor.shape}")
        m = state.m.setdefault(name, np.zeros_like(tensor))
        v = state.v.setdefault(name, np.zeros_like(tensor))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**state.step)
        vhat = v / (1 - b2**state.step)
        tensor -= lr * mhat / (np.sqrt(vhat) + state.eps)


# --- tape-side loss --------------------------------------------------------


def adversarial_loss_from_logits(
    tape: ad.Tape, pos_logits: ad.Var, neg_logits: ad.Var, alpha_adv: float
) -> ad.Var:
    """Stable loss from raw scores: log p = -softplus(-s),
    log(1-p) = -softplus(s). Adversarial weights are constants (stopgrad)."""
    log1m = np.logaddexp(0.0, neg_logits.value)  # softplus(s) = -log(1-p)
    scaled = -log1m / alpha_adv
    w = np.exp(scaled - np.logaddexp.reduce(scaled, axis=-1, keepdims=True))
    pos_term = ad.sum_all(tape, ad.softplus(tape, ad.neg(tape, pos_logits)))
    weighted = ad.mul(tape, tape.constant(w), ad.softplus(tape, neg_logits))
    return ad.add(tape, pos_term, ad.sum_all(tape, weighted))


# --- fit -------------------------------------------------------------------


def fit(
    graph: RelationalHypergraph,
    splits: dict[str, list[HyperEdge]],
    config: TrainConfig,
    log_path: str | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Train an HCNet on the graph's facts; returns the best-validation-MRR
    checkpoint and the per-epoch log."""
    rng = np.random.default_rng(config.seed)
    params = init_params(graph, config.model_config("hcnet"), rng)
    state = AdamState()
    train_facts = splits["train"]
    valid_facts = splits.get("valid", [])
    fact_set = graph.fact_set()
    log: list[dict] = []
    if log_path:
        open(log_path, "w", encoding="utf-8").close()  # one run per log
    best = params.copy()
    best_mrr = -1.0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_facts))
        losses = []
        steps = 0
        for start in range(0, len(order), config.batch_size):
            if config.steps_per_epoch is not None and steps >= config.steps_per_epoch:
                break
            batch = [train_facts[i] for i in order[start : start + config.batch_size]]
            loss = _batch_step(graph, batch, params, state, config, fact_set, rng)
            losses.append(loss)
            steps += 1
        entry = {"epoch": epoch, "loss": float(np.mean(losses)) if losses else 0.0}
        if valid_facts:
            report = evaluate_model(graph, valid_facts, params, "hcnet", splits)
            entry["val_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best = params.copy()
        else:
            best = params.copy()
        log.append(entry)
        if log_path:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
    return best, log


def _batch_step(
    graph: RelationalHypergraph,
    batch: list[HyperEdge],
    params: ModelParams,
    state: AdamState,
    config: TrainConfig,
    fact_set: set,
    rng: np.random.Generator,
) -> float:
    queries: list[Query] = []
    pos_nodes: list[int] = []
    neg_nodes: list[list[int]] = []
    for fact in batch:
        arity = len(fact.nodes)
        t = int(rng.integers(1, arity + 1))
        given = fact.nodes[: t - 1] + fact.nodes[t:]
        queries.append(Query(fact.relation, given, t))
        pos_nodes.append(fact.nodes[t - 1])
        neg_nodes.append(corrupt(fact, t, graph, config.negatives, rng, fact_set))

    masked = mask_positives(graph, batch)
    trace = hcnet_forward_batch(
        graph, queries, params, train=True, rng=rng, masked_edges=masked
    )
    logits = decode_unary_batch(trace)  # (Q, V)
    tape = trace.tape
    rows = np.arange(len(queries), dtype=np.intp)
    pos = ad.gather_2d(tape, logits, rows, np.asarray(pos_nodes, dtype=np.intp))
    neg = ad.gather_2d(tape, logits, rows[:, None], np.asarray(neg_nodes, dtype=np.intp))
    return train_step(params, state, trace, pos, neg, config)


def train_step(
    params: ModelParams,
    state: AdamState,
    trace: ForwardTrace,
    pos: ad.Var,
    neg: ad.Var,
    config: TrainConfig,
) -> float:
    """One Adam step on the adversarial loss of positive logits (Q,) against
    negative logits (Q, n), averaged over the Q queries; returns the loss.
    Raises NonFiniteValue, leaving the parameters as they were, when the
    loss or a parameter's gradient holds a NaN or an infinity."""
    tape = trace.tape
    loss = adversarial_loss_from_logits(tape, pos, neg, config.adv_temperature)
    loss = ad.scale(tape, loss, 1.0 / pos.value.shape[0])
    grads = backward(trace, loss)
    bad = [name for name in params.tensors if not np.isfinite(grads[name]).all()]
    if not np.isfinite(loss.value) or bad:
        raise NonFiniteValue(f"loss {float(loss.value)}; non-finite gradient in {bad}")
    adam_step(params, grads, state, config.lr)
    return float(loss.value)


# --- checkpoints -----------------------------------------------------------


def save_checkpoint(path: str, params: ModelParams, config: TrainConfig | None = None) -> None:
    """JSON header (names, shapes, offsets, config echo) + raw little-endian
    float32 blobs in header order. Written to a temporary file first and
    moved into place, so a crash never leaves a partial checkpoint."""
    names = sorted(params.tensors)
    header = {
        "model": asdict(params.config),
        "train_config": asdict(config) if config else None,
        "num_relations": params.num_relations,
        "max_arity": params.max_arity,
        "decoder_arities": list(params.decoder_arities),
        "tensors": [],
    }
    offset = 0
    for name in names:
        shape = list(params.tensors[name].shape)
        nbytes = 4 * int(np.prod(shape, dtype=np.int64))
        header["tensors"].append(
            {"name": name, "shape": shape, "offset": offset, "nbytes": nbytes}
        )
        offset += nbytes
    blob = json.dumps(header).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name in names:
            fh.write(params.tensors[name].astype("<f4").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Inverse of save_checkpoint; raises CheckpointError on a malformed
    header (an unknown model kind too) or a tensor whose bytes are missing
    or whose sizes are not non-negative integers. Older headers carry
    `use_layernorm` and `use_skip`; they load when both are true, as in
    every checkpoint `hcnet train` wrote."""
    with open(path, "rb") as fh:
        data = fh.read()
    hlen = int.from_bytes(data[:8], "little")
    if len(data) < 8 or 8 + hlen > len(data):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
        model = dict(header["model"])
        switches = [model.pop(key, True) for key in ("use_layernorm", "use_skip")]
        cfg = ModelConfig(**model)
        specs = [(s["name"], list(s["shape"]), s["nbytes"]) for s in header["tensors"]]
        meta = (header["num_relations"], header["max_arity"], tuple(header["decoder_arities"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    if any(on is not True for on in switches):
        raise CheckpointError(f"{path}: models without layer norm and skip are not supported")
    if cfg.kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {cfg.kind!r}")
    tensors = {}
    pos = 8 + hlen
    for name, shape, nbytes in specs:
        if (
            not all(isinstance(n, int) and n >= 0 for n in (nbytes, *shape))
            or nbytes != 4 * int(np.prod(shape, dtype=np.int64))
            or pos + nbytes > len(data)
        ):
            raise CheckpointError(f"{path}: tensor {name!r} is truncated or mis-sized")
        raw = np.frombuffer(data, dtype="<f4", count=nbytes // 4, offset=pos)
        tensors[name] = raw.astype(np.float64).reshape(shape)
        pos += nbytes
    params = ModelParams(cfg, *meta, tensors)
    if cfg.pe_kind != "learnable":
        params.fixed["pe"] = pe_table(cfg.pe_kind, meta[1], cfg.d)
    return params, header
