"""Executable property suites: the package's theorems as exact checks.

Each suite returns a SuiteResult with a pass flag and counters, so the
test suite and the `theorem-suite` CLI subcommand share one
implementation. All randomness is seeded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import HyperEdge, Query, Relation, apply_permutation, build_graph
from .logic import LogicSignature, compile_hgml_r, eval_formula, run_compiled
from .nn import (
    ModelConfig,
    decode_unary_batch,
    feature_partition,
    grad_check,
    hcnet_features_exact,
    hcnet_forward_batch,
    hrnet_features_exact,
    hrnet_forward_batch,
    init_params,
)
from .randgen import (
    random_hgml_r,
    random_hypergraph,
    random_knowledge_graph,
    random_query,
)
from .refine import (
    conditional_run,
    default_pair_init,
    equivalent,
    hcwl2_run,
    hrwl1_run,
    rawl2plus_run,
    refines,
    uniform_coloring,
)
from .synth import hypercycle


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: int
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.checked} checked, {self.failures} failed {self.detail}"


def _bare_params(graph, kind: str, d: int, rng) -> "object":
    cfg = ModelConfig(kind=kind, d=d, layers=5, mode="query-independent")
    return init_params(graph, cfg, rng)


def refinement_suite(seed: int = 0, count: int = 100, rounds: int = 5, d: int = 16) -> SuiteResult:
    """WL round-l partitions refine exact-equality feature partitions, for
    the query-agnostic model (uniform init) and the conditional model
    (query init), on every round l <= `rounds`."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        g = random_hypergraph(rng, max_nodes=30, max_relations=4, max_arity=4)
        q = random_query(rng, g)

        params = _bare_params(g, "hrnet", d, rng)
        wl = hrwl1_run(g, uniform_coloring(g), rounds)
        feats = hrnet_features_exact(g, params, rounds)
        for ell in range(rounds + 1):
            if not refines(wl[ell].colors, feature_partition(feats[ell])):
                failures += 1

        params_c = _bare_params(g, "hcnet", d, rng)
        wl_c = conditional_run(g, q, rounds)
        feats_c = hcnet_features_exact(g, q, params_c, rounds)
        for ell in range(rounds + 1):
            if not refines(wl_c[ell].colors, feature_partition(feats_c[ell])):
                failures += 1
    return SuiteResult("wl-refines-features", failures == 0, count, failures)


def matching_suite(seed: int = 0, count: int = 100, rounds: int = 3, d: int = 64,
                   required: int = 95) -> SuiteResult:
    """With random width-64 parameters the layer-3 feature partition equals
    the WL partition on at least `required` of `count` graphs."""
    rng = np.random.default_rng(seed)
    matched = 0
    for _ in range(count):
        g = random_hypergraph(rng, max_nodes=30, max_relations=4, max_arity=4)
        q = random_query(rng, g)
        ok = True

        params = _bare_params(g, "hrnet", d, rng)
        wl = hrwl1_run(g, uniform_coloring(g), rounds)
        feats = hrnet_features_exact(g, params, rounds)
        ok &= equivalent(wl[rounds].colors, feature_partition(feats[rounds]))

        params_c = _bare_params(g, "hcnet", d, rng)
        wl_c = conditional_run(g, q, rounds)
        feats_c = hcnet_features_exact(g, q, params_c, rounds)
        ok &= equivalent(wl_c[rounds].colors, feature_partition(feats_c[rounds]))
        matched += bool(ok)
    return SuiteResult(
        "features-match-wl", matched >= required, count, count - matched,
        {"matched": matched, "required": required},
    )


def pairwise_suite(seed: int = 0, count: int = 50, rounds: int = 5) -> SuiteResult:
    """The conditioned local pairwise test and the inverse-augmented
    pairwise oracle induce identical partitions at every round."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        kg = random_knowledge_graph(rng, max_nodes=15, max_relations=3)
        init = default_pair_init(kg)
        a = hcwl2_run(kg, init, rounds)
        b = rawl2plus_run(kg, init, rounds)
        for ell in range(rounds + 1):
            if not equivalent(a[ell].colors, b[ell].colors):
                failures += 1
    return SuiteResult("pairwise-tests-agree", failures == 0, count, failures)


def compiler_suite(seed: int = 0, count: int = 200, depth: int = 4) -> SuiteResult:
    """Differential test: every component of the compiled network equals the
    brute-force evaluator on every node, exactly."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        num_colors = int(rng.integers(1, 4))
        sig = LogicSignature(
            colors=[f"c{c}" for c in range(num_colors)],
            relations=[
                (f"r{r}", int(rng.integers(1, 5)))
                for r in range(int(rng.integers(1, 4)))
            ],
        )
        n = int(rng.integers(2, 13))
        relations = [Relation(r, name, k) for r, (name, k) in enumerate(sig.relations)]
        edges = []
        for _ in range(int(rng.integers(1, 2 * n))):
            rel = relations[int(rng.integers(0, len(relations)))]
            edges.append(
                HyperEdge(rel.id, tuple(int(x) for x in rng.integers(0, n, rel.arity)))
            )
        colors = [int(c) for c in rng.integers(0, num_colors, n)]
        g = build_graph(relations, edges, n, colors)

        formula = random_hgml_r(rng, sig, depth=depth)
        net = compile_hgml_r(formula, sig)
        out = run_compiled(net, g)
        for p, sub in enumerate(net.subformulas):
            for v in range(g.node_count):
                if bool(out[v, p]) != eval_formula(g, sig, sub, v):
                    failures += 1
    return SuiteResult("compiler-matches-evaluator", failures == 0, count, failures)


def equivariance_suite(seed: int = 0, permutations: int = 20, tol: float = 1e-9) -> SuiteResult:
    """Features and scores commute with node permutations within tol."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(permutations):
        g = random_hypergraph(rng, max_nodes=20, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=16, layers=3), rng)
        trace = hcnet_forward_batch(g, [q], params, record=False)
        scores = decode_unary_batch(trace).value[0]
        feats = trace.features.value[0]

        perm = [int(x) for x in rng.permutation(g.node_count)]
        pg = apply_permutation(g, perm)
        pq = Query(q.relation, tuple(perm[u] for u in q.given), q.target)
        ptrace = hcnet_forward_batch(pg, [pq], params, record=False)
        pscores = decode_unary_batch(ptrace).value[0]
        pfeats = ptrace.features.value[0]

        err = max(
            float(np.max(np.abs(pfeats[perm] - feats))),
            float(np.max(np.abs(pscores[np.asarray(perm)] - scores))),
        )
        worst = max(worst, err)
        if err > tol:
            failures += 1
    return SuiteResult(
        "permutation-equivariance", failures == 0, permutations, failures,
        {"worst": worst},
    )


def gradient_suite(seed: int = 0, instances: int = 10, threshold: float = 1e-4) -> SuiteResult:
    """backward vs central finite differences on random (graph, query)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for i in range(instances):
        g = random_hypergraph(rng, max_nodes=10, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        err = grad_check(g, q, params, eps=1e-5, samples_per_tensor=3, seed=seed + i)
        worst = max(worst, err)
        if err >= threshold:
            failures += 1
    return SuiteResult(
        "gradient-check", failures == 0, instances, failures, {"worst": worst}
    )


def complexity_suite(seed: int = 0, factor_limit: float = 2.5, repeats: int = 3) -> SuiteResult:
    """Doubling the edge count doubles forward wall time at most
    `factor_limit`-fold (linear-in-edges scaling)."""
    rng = np.random.default_rng(seed)
    times = {}
    for n in (1000, 2000):
        g = hypercycle(n, 3)
        params = init_params(g, ModelConfig(kind="hrnet", d=32, layers=3,
                                            mode="query-independent"), rng)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            hrnet_forward_batch(g, params)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    ratio = times[2000] / times[1000]
    return SuiteResult(
        "forward-scaling", ratio <= factor_limit, 2, int(ratio > factor_limit),
        {"ratio": ratio, "seconds": times},
    )


ALL_SUITES = (
    refinement_suite,
    matching_suite,
    pairwise_suite,
    compiler_suite,
    equivariance_suite,
    gradient_suite,
    complexity_suite,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed=seed) for suite in ALL_SUITES]
