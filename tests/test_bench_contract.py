"""The benchmark's tracer patches hcnet by name from outside the package.

A rename or deletion under src/ that the tracer still names would only
fail a traced benchmark run; these checks make it fail the test suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import hcnet.autodiff as ad
import hcnet.hypergraph as hg
import hcnet.suites as suites

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
