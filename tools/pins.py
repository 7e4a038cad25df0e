"""Record, and compare bit for bit, the outputs a performance change must keep.

From the root of a checkout (hcnet is imported from its `src/`):

    python3 tools/pins.py write OUT.npz
    python3 tools/pins.py compare A.npz B.npz

`write` records, as named float64 arrays:

- features, logits and every trained tensor's gradient of hcnet forwards
  at the benchmark's `train` size (V=1000, 4000 edges of arities 2/2/3/3,
  Q=16, L=3, d=32) and `rank` size (V=2000, 8000 edges, L=2), in both
  message modes, with dropout 0 and 0.3, recorded and not, with the
  batch's facts masked; the gradients are taken of the training loss (a
  positive and ten negatives per query), which reaches few nodes, and of
  a dense random seed on the logits; hrnet's features, k-ary logits and
  gradients at both sizes;
- at `train` size, hcnet with a learnable encoding table and a negative
  first-layer alpha (so a zero row's factor starts from -0.0): features,
  logits and the gradients of the training loss and of a dense seed, pe's
  and alpha's among them;
- seeded `train.fit` logs (loss and validation MRR) and trained tensors;
- `evalrank.evaluate_model` reports of both model kinds;
- hypercycle experiment results of both model kinds.

`compare` exits 0 when both files hold the same names with the same
shapes and bytes (so the same values and sign bits), and 1 naming the
first array that differs or is missing.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, as the benchmark runs: a threaded BLAS may split a
# product differently on one CPU than on two, and change its bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from hcnet import autodiff as ad, evalrank, nn, synth, train  # noqa: E402
from hcnet.hypergraph import HyperEdge, Query, Relation, build_graph  # noqa: E402

ARITIES = (2, 2, 3, 3)
SIZES = {"train": (1000, 4000, 3), "rank": (2000, 8000, 2)}  # V, edges, layers
Q, D, NEGATIVES = 16, 32, 10


def _graph(nodes: int, edges: int, seed: int):
    rng = np.random.default_rng(seed)
    facts = [HyperEdge(r, tuple(int(v) for v in rng.integers(0, nodes, k)))
             for r, k in enumerate(ARITIES) for _ in range(edges // len(ARITIES))]
    facts = [facts[i] for i in rng.permutation(len(facts))]
    rels = [Relation(r, f"r{r}", k) for r, k in enumerate(ARITIES)]
    return build_graph(rels, facts, nodes), facts


def _batch(graph, facts, rng):
    """Q training queries as `train.fit` draws them: the queries, their
    true and negative nodes, and the edges of their facts to mask."""
    batch = [facts[i] for i in rng.choice(len(facts), Q, replace=False)]
    queries, pos, neg = [], [], []
    for fact in batch:
        t = int(rng.integers(1, len(fact.nodes) + 1))
        queries.append(Query(fact.relation, fact.nodes[: t - 1] + fact.nodes[t:], t))
        pos.append(fact.nodes[t - 1])
        neg.append(rng.integers(0, graph.node_count, NEGATIVES))
    return queries, np.asarray(pos, dtype=np.intp), np.asarray(neg, dtype=np.intp), \
        train.mask_positives(graph, batch)


def _forwards(out: dict, size: str) -> None:
    nodes, edges, layers = SIZES[size]
    graph, facts = _graph(nodes, edges, seed=nodes)
    queries, pos, neg, masked = _batch(graph, facts, np.random.default_rng(1))
    rows = np.arange(Q, dtype=np.intp)
    for mode in ("query-dependent", "query-independent"):
        for dropout in (0.0, 0.3):
            cfg = nn.ModelConfig(kind="hcnet", d=D, layers=layers, mode=mode, dropout=dropout)
            params = nn.init_params(graph, cfg, np.random.default_rng(2))
            for grad in ("none", "loss", "seed"):
                name = f"{size}/hcnet/{mode}/dropout{dropout}/{grad}"
                trace = nn.hcnet_forward_batch(graph, queries, params, np.random.default_rng(3),
                                               masked, record=grad != "none")
                logits = nn.decode_unary_batch(trace)
                out[f"{name}/features"] = trace.features.value
                out[f"{name}/logits"] = logits.value
                if grad == "loss":
                    tape = trace.tape
                    p = ad.gather_2d(tape, logits, rows, pos)
                    n = ad.gather_2d(tape, logits, rows[:, None], neg)
                    root = train.adversarial_loss_from_logits(tape, p, n, 0.5)
                    grads = nn.backward(trace, root)
                elif grad == "seed":
                    seed = np.random.default_rng(4).standard_normal(logits.value.shape)
                    grads = nn.backward(trace, logits, seed)
                else:
                    continue
                for tensor, g in grads.items():
                    out[f"{name}/grad/{tensor}"] = g
    cfg = nn.ModelConfig(kind="hrnet", d=D, layers=layers, mode="query-independent")
    params = nn.init_params(graph, cfg, np.random.default_rng(2))
    trace = nn.hrnet_forward_batch(graph, params)
    tuples = np.asarray([f.nodes for f in facts[:64] if len(f.nodes) == 3], dtype=np.intp)
    qrel = np.asarray([f.relation for f in facts[:64] if len(f.nodes) == 3], dtype=np.intp)
    logits = nn.decode_kary_batch(trace, tuples, qrel)
    out[f"{size}/hrnet/features"] = trace.features.value
    out[f"{size}/hrnet/logits"] = logits.value
    for tensor, g in nn.backward(trace, logits).items():
        out[f"{size}/hrnet/grad/{tensor}"] = g


def _first_layer(out: dict) -> None:
    nodes, edges, layers = SIZES["train"]
    graph, facts = _graph(nodes, edges, seed=nodes)
    queries, pos, neg, masked = _batch(graph, facts, np.random.default_rng(1))
    rows = np.arange(Q, dtype=np.intp)
    cfg = nn.ModelConfig(kind="hcnet", d=D, layers=layers, pe_kind="learnable")
    params = nn.init_params(graph, cfg, np.random.default_rng(2))
    params.tensors["alpha_l0"][...] = -0.7
    for grad in ("loss", "seed"):
        name = f"train/hcnet/learnable-pe/negative-alpha/{grad}"
        trace = nn.hcnet_forward_batch(graph, queries, params, None, masked)
        logits = nn.decode_unary_batch(trace)
        if grad == "loss":
            p = ad.gather_2d(trace.tape, logits, rows, pos)
            n = ad.gather_2d(trace.tape, logits, rows[:, None], neg)
            grads = nn.backward(trace, train.adversarial_loss_from_logits(trace.tape, p, n, 0.5))
        else:
            grads = nn.backward(trace, logits, np.random.default_rng(4).standard_normal(
                logits.value.shape))
        out[f"{name}/features"] = trace.features.value
        out[f"{name}/logits"] = logits.value
        for tensor, g in grads.items():
            out[f"{name}/grad/{tensor}"] = g


def _fit_and_rank(out: dict) -> None:
    graph, facts = _graph(1000, 4000, seed=5)
    splits = {"train": facts[64:], "valid": facts[:32], "test": facts[32:64]}
    cfg = train.TrainConfig(d=D, layers=3, batch_size=Q, negatives=NEGATIVES, epochs=2,
                            steps_per_epoch=3, seed=6)
    params, log = train.fit(graph, splits, cfg)
    for key in ("loss", "val_mrr"):
        out[f"fit/log/{key}"] = np.asarray([entry[key] for entry in log], dtype=np.float64)
    for tensor, value in params.tensors.items():
        out[f"fit/params/{tensor}"] = value
    for kind in ("hcnet", "hrnet"):
        model = params if kind == "hcnet" else nn.init_params(
            graph, cfg.model_config("hrnet"), np.random.default_rng(7))
        report = evalrank.evaluate_model(graph, splits["test"][:8], model, kind, splits)
        for key, value in report.as_dict().items():
            if isinstance(value, (int, float)):
                out[f"evaluate/{kind}/{key}"] = np.asarray(value, dtype=np.float64)


def _hypercycle(out: dict) -> None:
    cfg = train.TrainConfig(d=D, layers=7, epochs=1, seed=8)
    for kind in ("hcnet", "hrnet"):
        result = synth.run_expressiveness_experiment(kind, cfg, seed=8)
        out[f"hypercycle/{kind}"] = np.asarray(
            [result.accuracy, result.train_accuracy, *result.losses], dtype=np.float64)


def write(path: str) -> None:
    out: dict[str, np.ndarray] = {}
    for size in SIZES:
        _forwards(out, size)
    _first_layer(out)
    _fit_and_rank(out)
    _hypercycle(out)
    np.savez(path, **{name: np.asarray(value, dtype=np.float64) for name, value in out.items()})
    print(f"{len(out)} arrays written to {path}")


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        for name in a.files:
            if name not in b.files:
                print(f"{name}: only in {path_a}")
                return 1
            x, y = a[name], b[name]
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                print(f"{name}: differs")
                return 1
        extra = [name for name in b.files if name not in a.files]
        if extra:
            print(f"{extra[0]}: only in {path_b}")
            return 1
        print(f"{len(a.files)} of {len(a.files)} arrays equal")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
