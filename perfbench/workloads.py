"""The benchmark's workloads: inputs, set-up, one operation, output checks.

Each workload is a closed loop driven by one client in one process: the
next operation starts when the previous one returns. Operation i is a pure
function of (workload seed, i), so a run, its traced replay and the
recorded reference values all see the same work. Every call into hcnet goes
through a module attribute (`train.fit`, not a bound name), so the tracer's
patches see it.

A workload provides:

* `prepare(workdir)`: write the inputs (untimed);
* `setup(workdir)`: what a user pays before the first operation (timed as
  `setup_s`), returning the state operations use;
* `op(state, i)`: one operation, returning (items of work, output);
* `check(state, i, output)`: None when the output is right, else why not;
* `final_check(state)`: cross-checks run once after the loop (untimed).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import hcnet.evalrank as evalrank
import hcnet.hypergraph as hypergraph
import hcnet.nn as nn
import hcnet.suites as suites
import hcnet.synth as synth
import hcnet.train as train

import datagen

REL_TOL = 1e-6


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


class Workload:
    name = ""
    item = ""
    # Operations come in cycles of this many; runs and warm-ups end on a
    # cycle boundary.
    cycle = 1

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference.get(self.name, {}).get(str(seed))

    def prepare(self, workdir: str) -> None:
        pass

    def setup(self, workdir: str):
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, i: int, output) -> str | None:
        return None

    def final_check(self, state) -> list[str]:
        return []


# --- train -----------------------------------------------------------------


class Train(Workload):
    """One `train.fit` step (epochs=1, steps_per_epoch=1, no validation
    split) on a V=1000, E=4000 typed hypergraph: Q=16 queries, L=3, d=32,
    10 negatives. Operation i trains from a fresh init with seed op_seed(i),
    so it draws its own batch."""

    name = "train"
    item = "query"
    NODES, FACTS, Q = 1000, 4000, 16

    def config(self, i: int) -> train.TrainConfig:
        return train.TrainConfig(
            d=32, layers=3, batch_size=self.Q, negatives=10, epochs=1,
            steps_per_epoch=1, seed=op_seed(self.seed, i),
        )

    def prepare(self, workdir: str) -> None:
        datagen.write_dataset(workdir, self.seed, self.NODES, self.FACTS)

    def setup(self, workdir: str):
        graph, facts, _, _ = hypergraph.load_dataset(workdir)
        nn.init_params(graph, self.config(0).model_config("hcnet"), np.random.default_rng(self.seed))
        return graph, facts

    def op(self, state, i: int):
        graph, facts = state
        _, log = train.fit(graph, {"train": facts}, self.config(i))
        return self.Q, [entry["loss"] for entry in log]

    def check(self, state, i: int, output) -> str | None:
        if len(output) != 1 or not math.isfinite(output[0]) or output[0] <= 0.0:
            return f"step {i}: loss {output}"
        ref = self.reference
        if ref is not None and i < len(ref) and not _close(output[0], ref[i][0]):
            return f"step {i}: loss {output[0]!r}, recorded {ref[i][0]!r}"
        return None


# --- rank ------------------------------------------------------------------


class Rank(Workload):
    """`evalrank.evaluate_model` over held-out facts of a V=2000, E=8000
    typed hypergraph, d=32, L=2, once per model and operation, from
    checkpoints written before timing and loaded during set-up. Every
    operation ranks the same queries. hcnet scores a query about ten times
    slower than hrnet, so it ranks the first 16 of the 64 held-out facts;
    hrnet ranks all 64, and spends about 45% of its time in the data path
    that hcnet barely touches."""

    name = "rank"
    item = "query"
    NODES, FACTS, HELD_OUT = 2000, 8000, 64
    MODELS = (("hcnet", 16), ("hrnet", 64))

    def prepare(self, workdir: str) -> None:
        datagen.write_dataset(workdir, self.seed, self.NODES, self.FACTS, self.HELD_OUT)
        graph, _, _, _ = hypergraph.load_dataset(workdir)
        cfg = train.TrainConfig(d=32, layers=2, seed=self.seed)
        for kind, _ in self.MODELS:
            params = nn.init_params(graph, cfg.model_config(kind), np.random.default_rng(self.seed))
            train.save_checkpoint(os.path.join(workdir, f"{kind}.ckpt"), params, cfg)

    def setup(self, workdir: str):
        graph, facts, _, held_out = hypergraph.load_dataset(workdir)
        params = {
            kind: train.load_checkpoint(os.path.join(workdir, f"{kind}.ckpt"))[0]
            for kind, _ in self.MODELS
        }
        return graph, facts, held_out, params

    def op(self, state, i: int):
        graph, facts, held_out, params = state
        out = {}
        for kind, n in self.MODELS:
            report = evalrank.evaluate_model(
                graph, held_out[:n], params[kind], kind, {"train": facts, "test": held_out}
            )
            out[kind] = report.as_dict()
            out[kind].pop("per_arity", None)
        return sum(o["queries"] for o in out.values()), out

    def check(self, state, i: int, output) -> str | None:
        held_out = state[2]
        for kind, n in self.MODELS:
            got = output[kind]
            expected = sum(len(f.nodes) for f in held_out[:n])
            if got["queries"] != expected:
                return f"{kind}: {got['queries']} queries ranked, expected {expected}"
            h1, h3, h10, mrr = (got[k] for k in ("hits@1", "hits@3", "hits@10", "mrr"))
            if not (0.0 < mrr <= 1.0 and 0.0 <= h1 <= h3 <= h10 <= 1.0):
                return f"{kind}: metrics out of range: {got}"
            if self.reference is not None:
                for key, value in self.reference[kind].items():
                    if not _close(got[key], value):
                        return f"{kind}: {key} {got[key]!r}, recorded {value!r}"
        return None

    def final_check(self, state) -> list[str]:
        """For each model, rank every position of the first held-out fact
        with a brute-force filter and the NumPy decoders, and compare the
        MRR with `evaluate_model` on that fact alone. A model's comparison
        is skipped when a true score lies within 1e-9 of another
        candidate's: the two paths may order such near-ties differently."""
        graph, facts, held_out, params = state
        fact = held_out[0]
        known = {(f.relation, f.nodes) for f in facts + held_out}
        problems = []
        for kind, _ in self.MODELS:
            p = params[kind]
            z_q = p.tensors["z_q"][fact.relation]
            feats = nn.hrnet_forward(graph, p)[0] if kind == "hrnet" else None
            recips = []
            for t in range(1, len(fact.nodes) + 1):
                true = fact.nodes[t - 1]
                given = fact.nodes[: t - 1] + fact.nodes[t:]
                cands = [
                    v for v in range(graph.node_count)
                    if v == true or (fact.relation, given[: t - 1] + (v,) + given[t - 1 :]) not in known
                ]
                if kind == "hcnet":
                    h, _ = nn.hcnet_forward(graph, hypergraph.Query(fact.relation, given, t), p)
                    scores = np.asarray([nn.decode_unary(h[v], z_q, p) for v in cands])
                else:
                    scores = np.asarray([
                        nn.decode_kary([feats[u] for u in given[: t - 1] + (v,) + given[t - 1 :]], z_q, p)
                        for v in cands
                    ])
                s = scores[cands.index(true)]
                gap = np.abs(scores - s)
                if np.any((gap > 0) & (gap <= 1e-9)):
                    break
                recips.append(1.0 / (1.0 + np.sum(scores > s) + (np.sum(scores == s) - 1) / 2.0))
            else:
                splits = {"train": facts, "test": held_out}
                report = evalrank.evaluate_model(graph, [fact], p, kind, splits)
                oracle = float(np.mean(recips))
                if abs(report.mrr - oracle) > 1e-9:
                    problems.append(f"{kind}, first held-out fact: evaluate_model MRR "
                                    f"{report.mrr!r}, brute force {oracle!r}")
        return problems


# --- hypercycle ------------------------------------------------------------


class Hypercycle(Workload):
    """`synth.run_expressiveness_experiment` on the criterion-1 grid
    (n in {8,12,16,20}, k in {3..7}, the fixed 70/30 split of split seed 0),
    L=7, d=32, EPOCHS epochs, once per model and operation; operation i
    initializes both models with op_seed(i)."""

    name = "hypercycle"
    item = "step"
    EPOCHS = 1
    MODELS = ("hcnet", "hrnet")

    def config(self) -> train.TrainConfig:
        return train.TrainConfig(d=32, layers=7, epochs=self.EPOCHS)

    def setup(self, workdir: str):
        """The construction the experiment does before its first step."""
        train_specs, test_specs = synth.hypercycle_suite()
        for spec in train_specs + test_specs:
            synth.hypercycle(*spec)
        for kind in self.MODELS:
            cfg = self.config().model_config(kind)
            nn.init_params(synth.hypercycle(20, 7), cfg, np.random.default_rng(self.seed))
        return len(train_specs)

    def op(self, state, i: int):
        out = {}
        for kind in self.MODELS:
            result = synth.run_expressiveness_experiment(kind, self.config(), seed=op_seed(self.seed, i))
            out[kind] = {
                "accuracy": result.accuracy, "train_accuracy": result.train_accuracy,
                "losses": list(result.losses),
            }
        return self.EPOCHS * state * len(self.MODELS), out

    def check(self, state, i: int, output) -> str | None:
        for kind in self.MODELS:
            got = output[kind]
            losses = got["losses"]
            if len(losses) != self.EPOCHS or not all(math.isfinite(x) and x > 0 for x in losses):
                return f"{kind} run {i}: losses {losses}"
            if kind == "hrnet" and (got["accuracy"] != 0.5 or got["train_accuracy"] != 0.5):
                return (f"hrnet run {i}: accuracy {got['accuracy']}/{got['train_accuracy']}, "
                        "the rotation automorphism forces 0.5")
            ref = self.reference
            if ref is not None and i < len(ref):
                want = ref[i][kind]
                if (got["accuracy"], got["train_accuracy"]) != (want["accuracy"], want["train_accuracy"]):
                    return f"{kind} run {i}: accuracy {got['accuracy']}, recorded {want['accuracy']}"
                if not all(_close(a, b) for a, b in zip(losses, want["losses"])):
                    return f"{kind} run {i}: losses {losses}, recorded {want['losses']}"
        return None


# --- theorem suite ---------------------------------------------------------


class TheoremSuite(Workload):
    """The five exact suites of `suites.run_all(seed)`, as `hcnet
    theorem-suite --seed` runs them: refinement, matching, pairwise,
    compiler and equivariance. Operation i runs suite i % 5 at seed
    op_seed(seed, i // 5), so five operations make one item, a suite run
    on its own seed, and runs stop only at a whole suite run. The suites
    draw instances of seed-dependent size, so one seed for a whole run would
    make its figures depend on that seed's sizes. The suites build every
    instance themselves, so set-up is what that command pays before its
    first suite: a fresh interpreter importing the package.

    The other two suites are left out because their verdicts do not depend
    on the program alone. `forward-scaling` compares two wall-clock times
    and fails when the host slows down between them. `gradient-check`
    compares backward with finite differences of step 1e-5, which fail
    where a step crosses a ReLU kink (7 of the seeds 0-119 fail so)."""

    name = "theorem-suite"
    item = "suite-run"
    SUITES = ("refinement_suite", "matching_suite", "pairwise_suite", "compiler_suite",
              "equivariance_suite")
    cycle = len(SUITES)

    def setup(self, workdir: str):
        src = os.path.dirname(os.path.dirname(suites.__file__))
        subprocess.run(
            [sys.executable, "-c", "import hcnet.suites"],
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
        )

    def op(self, state, i: int):
        # Looked up in suites.ALL_SUITES on every call, where the tracer
        # puts its wrappers (each keeps the suite as `__wrapped__`).
        want = self.SUITES[i % self.cycle]
        suite = next(s for s in suites.ALL_SUITES if getattr(s, "__wrapped__", s).__name__ == want)
        result = suite(seed=op_seed(self.seed, i // self.cycle))
        return 1 / self.cycle, (result.name, result.passed)

    def check(self, state, i: int, output) -> str | None:
        name, passed = output
        return None if passed else f"op {i}: suite {name} failed"


WORKLOADS = {
    w.name: w
    for w in (Train, Rank, Hypercycle, TheoremSuite)
}
