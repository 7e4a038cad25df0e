"""From a logical property to network weights, end to end.

Builds a five-entity academic graph, states a graded modal property
("a person who studies for some degree that was awarded less than twice"),
checks it with the brute-force evaluator, compiles it into integer
message-passing weights, and verifies both agree on every entity.

Run: python3 demos/logic_demo.py
"""

import numpy as np

from hcnet.hypergraph import HyperEdge, Relation, build_graph
from hcnet.logic import (
    LogicSignature,
    compile_hgml_r,
    eval_formula,
    parse_formula,
    run_compiled,
)

COLORS = ["Thing", "Person"]  # color ids 0 and 1
FORMULA = (
    "(color(Person) and "
    "exists>=1 StudyDegree@1 [2: not exists>=2 Awarded@3 []])"
)


def build_example():
    relations = [Relation(0, "StudyDegree", 4), Relation(1, "Awarded", 3)]
    # Entities: 0 Hawking, 1 Oxford, 2 Physics, 3 BA, 4 Nobel.
    edges = [
        HyperEdge(0, (0, 1, 2, 3)),  # StudyDegree(Hawking, Oxford, Physics, BA)
        HyperEdge(1, (2, 4, 1)),     # Awarded(Physics, Nobel, Oxford)
    ]
    g = build_graph(relations, edges, 5, colors=[1, 0, 0, 0, 0])
    g.node_names = ["Hawking", "Oxford", "Physics", "BA", "Nobel"]
    return g


def main():
    g = build_example()
    sig = LogicSignature(
        colors=COLORS,
        relations=[(r.name, r.arity) for r in g.relations],
    )
    phi = parse_formula(FORMULA)
    print(f"Formula: {FORMULA}\n")

    print("Brute-force evaluation:")
    truth = [eval_formula(g, sig, phi, v) for v in range(g.node_count)]
    for name, value in zip(g.node_names, truth):
        print(f"  {name:8s} {value}")
    assert truth == [True, False, False, False, False]

    net = compile_hgml_r(phi, sig)
    print(f"\nCompiled into {net.size} subformula channels "
          f"(integer weights, one message-passing layer per nesting level).")
    out = run_compiled(net, g)
    compiled_truth = [bool(x) for x in out[:, -1]]
    agree = compiled_truth == truth
    print(f"Compiled network output column: {compiled_truth}")
    print(f"Agrees with the evaluator on all entities: {agree}")
    assert agree
    assert net.W0.dtype == np.int64


if __name__ == "__main__":
    main()
