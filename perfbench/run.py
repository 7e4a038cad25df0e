"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` and from nowhere else. Inputs are generated from --seed into a
work directory under `.perfbench/`, which is removed afterwards.

With --trace 0 the run sets up SETUP_MIN_REPS or more times (reporting the
median), runs WARMUP_OPS untimed operations, then operations back to back
for --seconds, and reports the end-to-end metrics: `setup_s`,
`items_per_s` (items of work done by the timed operations over their
summed time) and `peak_rss_mb` (through set-up and operation 0). Runs of a
`hostspeed.Probe` are spread
over the set-up phase and follow every timed operation; each phase's time
is rescaled to the reference host speed by its mean probe (see
hostspeed.py), and the raw figures are in the detail line. With --trace 1 it runs set-up plus the same operations
twice, first untraced and then under the span tracer, reports the
per-layer metrics and the tracing overhead, and writes the spans to
`.perfbench/trace-<workload>.{npz,json}`.

Every operation's output is checked. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the provenance and per-run detail. Exit code 2 means the run could not
start (bad arguments, or no hcnet sources next to this directory).
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: a second one gave no wall-time gain on the training step
# and cost CPU. Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc's malloc hands large blocks back to the kernel when they are freed,
# so by default every `train` step page-faults its arrays in again (about
# 0.4M minor faults and up to 20% of the step in the kernel), at a cost
# that follows the host's memory state rather than the program. These two
# settings keep freed memory in the process: after the first operation a
# step takes almost no faults, and train's peak RSS is unchanged. glibc reads them
# only at start-up, so `main` re-executes the script once with them set.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 32), "MALLOC_TRIM_THRESHOLD_": str(1 << 36)}

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 5, 2.0, 100
SETUP_PROBE_EVERY = 0.25
# Untimed operations first: the first ones after set-up still grow the heap
# (about 10x the page faults of a steady operation on `train`). Rounded up
# to a whole cycle of the workload's operations.
WARMUP_OPS = 2


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with NumPy will use, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hcnet", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, state, i: int) -> tuple[float, float] | None:
        """(items, seconds) of operation i, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            items, output = self.w.op(state, i)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail([f"op {i} raised {exc!r}"])
            return None
        seconds = time.perf_counter() - t0
        problem = self.w.check(state, i, output)
        if problem:
            self._fail([problem])
        return items, seconds

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures += problems

    def warm_up(self, state, start: int = 0) -> int:
        """Untimed operations start, start + 1, ...; returns the next
        operation index."""
        i = start
        while i < WARMUP_OPS or i % self.w.cycle:
            self.op(state, i)
            i += 1
        return i

    def loop(self, state, start: int, seconds: float,
             probe: hostspeed.Probe | None = None) -> tuple[list[tuple[float, float] | None], list[float]]:
        """Operations start, start + 1, ... back to back until `seconds`
        have passed: each one's (items, seconds), None where it raised; and
        the times of `probe`, if given, run before the first operation and
        after each one."""
        done: list[tuple[float, float] | None] = []
        probes = [probe()] if probe is not None else []
        deadline = time.perf_counter() + seconds
        while not done or len(done) % self.w.cycle or time.perf_counter() < deadline:
            done.append(self.op(state, start + len(done)))
            if probe is not None:
                probes.append(probe())
        return done, probes

    def final(self, state) -> None:
        self.attempted += 1
        try:
            problems = self.w.final_check(state)
        except Exception as exc:
            problems = [f"final check raised {exc!r}"]
        if problems:
            self._fail(problems)


def timed_setup(w, workdir: str, probe: hostspeed.Probe):
    """The last set-up's state, each set-up's seconds, and the times of
    `probe` run before the first set-up, after the last one, and between
    set-ups whenever SETUP_PROBE_EVERY seconds of set-up have passed since
    the previous probe."""
    times: list[float] = []
    probes = [probe()]
    state = None
    since_probe = 0.0
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        state = w.setup(workdir)
        times.append(time.perf_counter() - t0)
        since_probe += times[-1]
        if since_probe >= SETUP_PROBE_EVERY:
            probes.append(probe())
            since_probe = 0.0
    if since_probe:
        probes.append(probe())
    return state, times, probes


def run_untraced(runner: Runner, workdir: str, seconds: float) -> tuple[dict, dict]:
    w = runner.w
    # Peak RSS through one set-up and operation 0, before the probe's data
    # (about 50 MB) exists. Each later operation can raise the high-water
    # mark by tens of MB or not, depending on its seed (hypercycle: 139-173
    # MB after operation 0 on 12 of 14 seeds, 210 MB on the other two, and
    # 212 MB on two of those 12 after operation 1), so a peak over more
    # operations would split runs between two modes.
    state = w.setup(workdir)
    runner.op(state, 0)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    start = runner.warm_up(state, 1)
    del state
    probe = hostspeed.Probe()
    state, setup_times, setup_probes = timed_setup(w, workdir, probe)
    ops, probes = runner.loop(state, start, seconds, probe)
    runner.final(state)
    done = [t for t in ops if t is not None]
    items = sum(n for n, _ in done)
    busy = sum(secs for _, secs in done)
    setup_scale = hostspeed.REFERENCE_S / statistics.mean(setup_probes)
    op_scale = hostspeed.REFERENCE_S / statistics.mean(probes)
    metrics = {
        "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
        "items_per_s": (items / (busy * op_scale), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    detail = {
        "item": w.item,
        "raw_setup_s": statistics.median(setup_times),
        "raw_items_per_s": items / busy,
        "setup_reps": len(setup_times),
        "run_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_probe_s": setup_probes,
        "op_s": [t[1] if t else None for t in ops],
        "op_items": [t[0] if t else None for t in ops],
        "probe_s": probes,
    }
    return metrics, detail


def run_traced(runner: Runner, workdir: str, seconds: float, provenance_doc: dict) -> tuple[dict, dict]:
    from tracer import Tracer, per_layer_metrics

    w = runner.w
    start = runner.warm_up(w.setup(workdir))

    t0 = time.perf_counter()
    state = w.setup(workdir)
    n = len(runner.loop(state, start, seconds)[0])
    untraced = time.perf_counter() - t0

    with Tracer() as tracer:
        with tracer.span("bench.root") as root:
            state = w.setup(workdir)
            for i in range(start, start + n):
                runner.op(state, i)
    traced = tracer.span_end[root] - tracer.span_start[root]
    runner.final(state)

    values = tracer.metrics()
    spans = tracer.summary()
    values.update({
        "bench.traced_wall_s": traced,
        "bench.untraced_wall_s": untraced,
        "bench.trace_overhead_s": traced - untraced,
        "bench.root_self_s": spans["bench.root"]["self_s"],
        "bench.tracer_s": spans.get("bench.tracer", {}).get("self_s", 0.0),
    })
    metrics = {name: (values[name], unit) for name, unit, _, _ in per_layer_metrics()}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{w.name}")
    tracer.write(stem, {"provenance": provenance_doc, "ops": n, "metrics": values})
    return metrics, {"item": w.item, "ops": n, "trace_files": [stem + ".npz", stem + ".json"]}


def main(argv: list[str] | None = None) -> int:
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hcnet", "__init__.py")):
        print(f"perfbench: no hcnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import hcnet

    if os.path.dirname(os.path.realpath(hcnet.__file__)) != os.path.realpath(os.path.join(SRC, "hcnet")):
        print(f"perfbench: hcnet imported from {hcnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    prov = provenance(args)
    runner = Runner(WORKLOADS[args.workload](args.seed, reference))
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner.w.prepare(workdir)
        if args.trace:
            metrics, detail = run_traced(runner, workdir, args.seconds, prov)
        else:
            metrics, detail = run_untraced(runner, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["failures"] = runner.failures
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
