"""Shared fixtures: small hand-built graphs used across test modules."""

import os

# One BLAS thread, as `perfbench/run.py` and `tools/pins.py` run: OpenBLAS's
# default threads spin while they wait and slow small products, which the
# timing tests read. Set before NumPy loads; a value set in the environment
# wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from hcnet.hypergraph import HyperEdge, Relation, build_graph  # noqa: E402


@pytest.fixture
def degree_graph():
    """Five named entities, two facts:

        StudyDegree(Hawking, Oxford, Physics, BA)   (arity 4)
        Awarded(Physics, Nobel, Oxford)             (arity 3)

    Node ids: Hawking=0, Oxford=1, Physics=2, BA=3, Nobel=4.
    Hawking carries color "Person" (id 1); everything else color 0.
    """
    relations = [Relation(0, "StudyDegree", 4), Relation(1, "Awarded", 3)]
    edges = [HyperEdge(0, (0, 1, 2, 3)), HyperEdge(1, (2, 4, 1))]
    colors = [1, 0, 0, 0, 0]
    g = build_graph(relations, edges, 5, colors)
    g.node_names = ["Hawking", "Oxford", "Physics", "BA", "Nobel"]
    return g
