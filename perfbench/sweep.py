"""Run workloads over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9 [--workloads ...]
                               [--trace] [--out FILE]

Each run is `run.py` in its own process, one after another, with
`run_seconds` from BENCHMARK.json. For every end-to-end metric the summary
gives the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (q3 - q1) / median, and flags a spread at or above a third of
the metric's bound. With --trace each run is a traced run and the summary
gives each per-layer metric's median. Prints the summary and, with --out,
writes it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "info": json.loads(lines[-2])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    summary: dict[str, dict] = {}
    ok = True
    for workload in names:
        runs = []
        for seed in args.seeds:
            out = run_once(workload, seed, bench["run_seconds"], args.trace)
            res = out["result"]
            if set(res["metrics"]) != set(bounds):
                raise SystemExit(f"{workload} seed {seed}: metrics {sorted(res['metrics'])} "
                                 f"differ from BENCHMARK.json {sorted(bounds)}")
            runs.append(out)
            ok &= res["correct"]
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} {out['info']['detail'].get('failures', [])}", flush=True)
        row: dict[str, dict] = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            entry = {"median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
                if bound is not None and metric != "setup_s" and entry["spread"] >= bound / 3:
                    entry["flag"] = "spread >= bound/3"
            row[metric] = entry
        summary[workload] = {"runs": [r["info"] for r in runs], "metrics": row}
        for metric, e in row.items():
            if args.trace and not e["median"]:
                continue
            print(f"  {metric:48s} median {e['median']:.6g}  spread {e.get('spread') or 0:.4f}"
                  f"  {e.get('flag', '')}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
