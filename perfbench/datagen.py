"""Seeded random typed hypergraphs written in the TAB dataset format.

The benchmark hands the program nothing but these files: `entities.dict`,
`relations.dict` and one `<split>.txt` per split, read back through
`hcnet.hypergraph.load_dataset`. The relation mix is fixed (arities 2, 2,
3, 3, in that order of ids) and every relation gets the same number of
facts, so the shape of the work does not change with the seed; only which
nodes each fact touches does. No fact appears twice across all splits.
"""

from __future__ import annotations

import os

import numpy as np

ARITIES = (2, 2, 3, 3)


def random_facts(rng: np.random.Generator, nodes: int, facts: int) -> list[tuple[int, tuple[int, ...]]]:
    """`facts` distinct (relation, node tuple) pairs, shuffled, with
    relation r holding exactly facts // len(ARITIES) of them (the first
    facts % len(ARITIES) relations take one more)."""
    out: list[tuple[int, tuple[int, ...]]] = []
    for rel, arity in enumerate(ARITIES):
        want = facts // len(ARITIES) + (rel < facts % len(ARITIES))
        if want > nodes**arity:
            raise ValueError(f"relation {rel}: {want} facts exceed {nodes}^{arity} tuples")
        seen: set[tuple[int, ...]] = set()
        while len(seen) < want:
            for row in rng.integers(0, nodes, size=(want - len(seen), arity)):
                tup = tuple(int(v) for v in row)
                if tup not in seen and len(seen) < want:
                    seen.add(tup)
                    out.append((rel, tup))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def write_dataset(
    directory: str,
    seed: int,
    nodes: int,
    facts: int,
    held_out: int = 0,
) -> None:
    """Write `facts - held_out` training facts to train.txt and `held_out`
    facts to test.txt (test.txt only when held_out > 0)."""
    if not 0 <= held_out < facts:
        raise ValueError(f"held_out={held_out} must lie in [0, {facts})")
    rng = np.random.default_rng(seed)
    all_facts = random_facts(rng, nodes, facts)
    splits = {"train": all_facts[held_out:]}
    if held_out:
        splits["test"] = all_facts[:held_out]
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "entities.dict"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{v}\te{v}\n" for v in range(nodes))
    with open(os.path.join(directory, "relations.dict"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{r}\tr{r}\n" for r in range(len(ARITIES)))
    for split, rows in splits.items():
        with open(os.path.join(directory, f"{split}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(
                "\t".join([f"r{rel}", *(f"e{v}" for v in tup)]) + "\n" for rel, tup in rows
            )
