"""Acceptance gate: one test and one PASS/FAIL line per criterion.

Run with `-s` (or read captured output) to see the lines. Criterion 1
trains both models at full scale and takes several minutes; everything
else finishes in seconds.
"""

import numpy as np
import pytest

from hcnet.evalrank import RankingOutcome, aggregate, rank_of
from hcnet.hypergraph import Query
from hcnet.suites import (
    compiler_suite,
    complexity_suite,
    equivariance_suite,
    gradient_suite,
    matching_suite,
    pairwise_suite,
    refinement_suite,
)
from hcnet.synth import run_expressiveness_experiment
from hcnet.train import TrainConfig


def _report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


@pytest.mark.slow
def test_criterion_1_conditional_model_separates_antipodal_pairs():
    """Conditional model >= 0.99 held-out accuracy on the cyclic family;
    query-agnostic baseline stuck in [0.45, 0.55]. Grid n in {8,12,16,20},
    k in {3..7}, 70/30 split, 7 layers, width 32, lr 1e-3, 100 epochs,
    averaged over 3 seeds."""
    cfg = TrainConfig(d=32, layers=7, epochs=100, lr=1e-3)
    accs = {}
    for model in ("hcnet", "hrnet"):
        runs = [
            run_expressiveness_experiment(model, cfg, seed=s) for s in (0, 1, 2)
        ]
        accs[model] = float(np.mean([r.accuracy for r in runs]))
    ok = accs["hcnet"] >= 0.99 and 0.45 <= accs["hrnet"] <= 0.55
    _report(
        1,
        ok,
        f"conditional mean accuracy {accs['hcnet']:.4f} (need >= 0.99), "
        f"baseline {accs['hrnet']:.4f} (need in [0.45, 0.55]), 3 seeds",
    )


def test_criterion_2_wl_partition_refines_feature_partition():
    res = refinement_suite(seed=0, count=100, rounds=5)
    _report(2, res.passed, f"{res.name}: {res.checked} graphs, {res.failures} violations (need 0)")


def test_criterion_3_width_64_features_match_wl():
    res = matching_suite(seed=0, count=100, rounds=3, d=64, required=95)
    _report(3, res.passed,
            f"{res.name}: {res.detail['matched']}/100 matched at layer 3 (need >= 95)")


def test_criterion_4_pairwise_tests_agree():
    res = pairwise_suite(seed=0, count=50, rounds=5)
    _report(4, res.passed,
            f"{res.name}: {res.checked} knowledge graphs, {res.failures} round mismatches (need 0)")


def test_criterion_5_compiled_networks_match_evaluator():
    res = compiler_suite(seed=0, count=200, depth=4)
    _report(5, res.passed,
            f"{res.name}: {res.checked} formula/graph pairs, {res.failures} component mismatches (need 0)")


def test_criterion_6_gradients_match_finite_differences():
    res = gradient_suite(seed=0, instances=10, threshold=1e-4)
    _report(6, res.passed,
            f"{res.name}: worst relative error {res.detail['worst']:.3e} over 10 instances (need < 1e-4)")


def test_criterion_7_permutation_equivariance():
    res = equivariance_suite(seed=0, permutations=20, tol=1e-9)
    _report(7, res.passed,
            f"{res.name}: worst deviation {res.detail['worst']:.3e} over 20 permutations (need <= 1e-9)")


def test_criterion_8_metric_arithmetic():
    q = Query(0, (0,), 2)
    rep = aggregate([RankingOutcome(q, 0, r, 10) for r in (1.0, 2.0, 4.0)])
    mrr_ok = abs(rep.mrr - 0.583333) <= 1e-6 and abs(rep.mrr - 7 / 12) <= 1e-9
    hits_ok = rep.hits3 == 2 / 3
    tie_rank = rank_of(np.full(5, 0.25), 2)
    tie_ok = tie_rank == 3.0
    ok = mrr_ok and hits_ok and tie_ok
    _report(8, ok,
            f"ranks [1,2,4] -> MRR {rep.mrr:.6f} (need 0.583333 +/- 1e-9), "
            f"Hits@3 {rep.hits3:.6f} (need 2/3), all-ties/5 rank {tie_rank} (need 3)")


def test_criterion_9_forward_time_linear_in_edges():
    res = complexity_suite(seed=0, factor_limit=2.5, repeats=3)
    _report(9, res.passed,
            f"{res.name}: CPU-time ratio {res.detail['ratio']:.2f} for 2x edges (need <= 2.5)")


def test_criterion_10_real_dataset_benchmarks():
    pytest.skip(
        "PASS-BY-OMISSION criterion 10: optional, not a gate - external "
        "benchmark datasets are not redistributed with this package; supply "
        "them in the documented directory format and use the train/evaluate "
        "subcommands to reproduce."
    )
