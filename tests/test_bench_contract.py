"""The benchmark's tracer and workloads use hcnet by name from outside
the package.

A rename or deletion under src/ that the tracer or a workload still names
would only fail a benchmark run; these checks make it fail the test suite.
"""

import ast
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import hcnet.autodiff as ad
import hcnet.evalrank as evalrank
import hcnet.hypergraph as hg
import hcnet.nn as nn
import hcnet.suites as suites
import hcnet.synth as synth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_suite_names() -> tuple[str, ...]:
    """`SUITES` of the theorem-suite workload, read without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SUITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("workloads.py defines no SUITES")


def _workload_attributes() -> set[tuple[str, str]]:
    """(module, attribute) for each `<alias>.<attr>` in workloads.py whose
    alias is one of its `import hcnet.<module> as <alias>` imports."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname and alias.name.startswith("hcnet.")
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_workload_attributes_resolve():
    used = _workload_attributes()
    assert ("hcnet.nn", "decode_kary") in used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_function_spans_resolve(tracer):
    for _, mod_name, attr in tracer.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )
    assert "fact_set" in hg.RelationalHypergraph.__dict__


def test_autodiff_ops_exist(tracer):
    for op in tracer.AUTODIFF_OPS + tracer.MOVED_OPS:
        assert callable(getattr(ad, op, None)), op


def test_theorem_suite_names_are_in_all_suites(tracer):
    names = {s.__name__ for s in suites.ALL_SUITES}
    wanted = _workload_suite_names()
    assert len(wanted) == 5
    assert set(wanted) <= names
    assert {f"{s}_suite" for s in tracer.SUITES} == set(wanted)


def test_traced_forward_backward_and_evaluation(tracer):
    """`--trace 1` rewrites each op's `parents` to time its closures and
    walks `tape.vars` after `backward`; both must survive a tape that frees
    as it walks and an evaluation that records nothing."""
    g = synth.hypercycle(8, 3)
    params = nn.init_params(g, nn.ModelConfig(kind="hcnet", d=8, layers=2),
                            np.random.default_rng(0))
    queries = [hg.Query(0, (0,), 2), hg.Query(0, (3,), 2)]
    hr_params = nn.init_params(
        g, nn.ModelConfig(kind="hrnet", d=8, layers=2, mode="query-independent"),
        np.random.default_rng(0),
    )
    tuples = np.array([[0, 4], [3, 7]], dtype=np.intp)
    with tracer.Tracer() as t:
        trace = nn.hcnet_forward_batch(g, queries, params)
        logits = nn.decode_unary_batch(trace)
        grads = nn.backward(trace, logits, np.ones_like(logits.value))
        hr_trace = nn.hrnet_forward_batch(g, hr_params)
        hr_logits = nn.decode_kary_batch(hr_trace, tuples, np.zeros(2, dtype=np.intp))
        hr_grads = nn.backward(hr_trace, hr_logits, np.ones_like(hr_logits.value))
        report = evalrank.evaluate_model(g, [hg.HyperEdge(0, (0, 4))], params, "hcnet")
    assert report.count == 2
    assert all(np.isfinite(v).all() for v in [*grads.values(), *hr_grads.values()])
    metrics = t.metrics()
    reported = {name for name, _, source, _ in tracer.per_layer_metrics() if source != "bench"}
    assert set(metrics) == reported
    assert all(math.isfinite(v) and v >= 0.0 for v in metrics.values())
    for name in ("nn.hcnet_forward_batch_s", "autodiff.backward_s",
                 "evalrank.evaluate_model_self_s", "autodiff.gather_nodes.bwd_s",
                 "autodiff.index_add_2d.fwd_s", "nn.tape_vars", "nn.tape_mb",
                 "autodiff.gather_nodes.mb"):
        assert metrics[name] > 0.0, name
    assert not hasattr(ad.gather_nodes, "__wrapped__")  # patches undone on exit


@pytest.mark.parametrize("name", ["train", "rank", "hypercycle"])
def test_workload_outputs_pass_their_checks(name, tmp_path, monkeypatch):
    """Operation 0 of the workload at seed 0, checked against the recorded
    references as a benchmark run checks it, then the final cross-check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[name](0, reference)
    assert w.reference is not None
    w.prepare(str(tmp_path))
    state = w.setup(str(tmp_path))
    items, output = w.op(state, 0)
    assert items > 0
    assert w.check(state, 0, output) is None
    assert w.final_check(state) == []
