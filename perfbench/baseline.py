"""Assemble `perfbench/baseline.json` from an end-to-end and a traced sweep.

    python3 perfbench/sweep.py --seeds 0 1 ... 9 --out e2e.json
    python3 perfbench/sweep.py --seeds 0 --trace --out traced.json
    python3 perfbench/baseline.py e2e.json traced.json

The baseline holds, per workload, each end-to-end metric's median,
quartiles and spread, and each per-layer metric's median with its share of
the traced wall time (self time; for function spans also the share
including their children, read from the `.perfbench/trace-<workload>.json`
the traced sweep left); plus LAYER_MAP, which states before any change is
measured which end-to-end metric each per-layer metric should move, and on
which workload.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRACES = os.path.join(os.path.dirname(HERE), ".perfbench")

# (per-layer metric name prefix, end-to-end metric it should move, workloads)
LAYER_MAP = (
    ("hypergraph.", "setup_s", "every workload that loads a dataset: train, rank"),
    ("train.save_checkpoint_s", "setup_s", "none timed: checkpoints are written before timing"),
    ("train.load_checkpoint_s", "setup_s", "rank"),
    ("train.", "items_per_s", "train; the data path (corrupt, mask_positives) is under 1% "
     "there, so the predicted change is none"),
    ("nn.hcnet_forward_batch_s", "items_per_s", "train, rank (hcnet half), hypercycle"),
    ("nn.hrnet_forward_batch_s", "items_per_s", "hypercycle; barely rank"),
    ("nn.decode_kary_batch_s", "items_per_s", "rank (hrnet half)"),
    ("nn.decode_unary_batch_s", "items_per_s", "train, rank (hcnet half)"),
    ("nn.forward_exact_s", "items_per_s", "theorem-suite"),
    ("nn.feature_partition_s", "items_per_s", "theorem-suite"),
    ("nn.tape_vars", "peak_rss_mb; items_per_s", "train, rank (memory); hypercycle (speed)"),
    ("nn.tape_mb", "peak_rss_mb", "train, rank"),
    ("nn.", "items_per_s", "train, rank, hypercycle"),
    ("autodiff.", "items_per_s", "scatter/gather ops and .mb: train, rank (hcnet half); "
     ".calls: hypercycle; backward: train, hypercycle"),
    ("evalrank.", "items_per_s", "rank: its hrnet half strongly, its hcnet half barely"),
    ("synth.", "items_per_s", "hypercycle"),
    ("refine.", "items_per_s", "theorem-suite"),
    ("logic.", "items_per_s", "theorem-suite"),
    ("randgen.", "items_per_s", "theorem-suite"),
    ("suites.", "items_per_s", "theorem-suite"),
    ("bench.", "none", "tracing bookkeeping and overhead; not a program layer"),
)


def moves(metric: str) -> dict:
    for prefix, e2e, where in LAYER_MAP:
        if metric.startswith(prefix):
            return {"moves": e2e, "on": where}
    raise KeyError(metric)


def _layer_entry(metric: str, median: float, wall: float, spans: dict) -> dict:
    """A per-layer metric's median, its share of the traced wall time (for
    times), the share its span covers with children included (where that
    differs), and what it should move."""
    entry: dict[str, object] = {"median": median}
    if metric.endswith("_s") and not metric.startswith("bench."):
        entry["share_of_traced_wall"] = median / wall
        span = spans.get(metric.removesuffix("_self_s").removesuffix("_s"))
        if span and span["total_s"] - span["self_s"] > 1e-9:
            entry["inclusive_share_of_traced_wall"] = span["total_s"] / wall
    entry.update(moves(metric))
    return entry


def main(e2e_path: str, traced_path: str) -> int:
    with open(e2e_path, encoding="utf-8") as fh:
        e2e = json.load(fh)
    with open(traced_path, encoding="utf-8") as fh:
        traced = json.load(fh)
    out: dict[str, object] = {"provenance": None, "workloads": {}}
    for workload, row in e2e.items():
        out["provenance"] = out["provenance"] or row["runs"][0]["provenance"]
        layers = traced[workload]["metrics"]
        wall = layers["bench.traced_wall_s"]["median"]
        with open(os.path.join(TRACES, f"trace-{workload}.json"), encoding="utf-8") as fh:
            spans = json.load(fh)["summary"]
        out["workloads"][workload] = {
            "seeds": [r["provenance"]["seed"] for r in row["runs"]],
            "end_to_end": {m: {k: e[k] for k in ("median", "q1", "q3", "spread") if k in e}
                           for m, e in row["metrics"].items()},
            "per_layer": {
                m: _layer_entry(m, e["median"], wall, spans) for m, e in layers.items() if e["median"]
            },
            "traced_wall_s": wall,
            "untraced_wall_s": layers["bench.untraced_wall_s"]["median"],
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
