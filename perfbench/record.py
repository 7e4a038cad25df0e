"""Record the reference outputs that `run.py` checks operations against.

    python3 perfbench/record.py [--seeds 0 1] [--workloads NAME ...]

For each recorded seed and the first OPS[workload] operations: the
per-step losses of `train`, each model's metrics on `rank` (every
operation is alike, so one is kept), and each model's accuracies and
losses on `hypercycle`. `theorem-suite` needs none: every suite must pass. Operations
past the recorded count are checked by the seed-independent checks only.
Rewrites the chosen workloads' entries of `perfbench/reference.json`
(default: all); run it only on a commit whose outputs are known good,
since later commits are held to these values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

OPS = {"train": 32, "rank": 1, "hypercycle": 64}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--workloads", nargs="+", choices=sorted(OPS), default=sorted(OPS))
    args = ap.parse_args()
    sys.path[:0] = [run.SRC, run.HERE]
    from workloads import WORKLOADS

    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference: dict[str, dict[str, object]] = json.load(fh)
    for name in args.workloads:
        count = OPS[name]
        reference[name] = {}
        for seed in args.seeds:
            w = WORKLOADS[name](seed, {})
            workdir = os.path.join(run.OUT, f"record-{name}-{seed}")
            try:
                w.prepare(workdir)
                state = w.setup(workdir)
                outputs = []
                for i in range(count):
                    _, out = w.op(state, i)
                    problem = w.check(state, i, out)
                    if problem:
                        raise SystemExit(f"{name} seed {seed}: {problem}")
                    outputs.append(out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            reference[name][str(seed)] = outputs[0] if name == "rank" else outputs
            print(f"recorded {name} seed {seed}: {count} operations", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
