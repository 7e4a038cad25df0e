"""Command-line entry point.

Subcommands: generate-hypercycle, refine, logic (eval | compile), train,
evaluate, gradcheck, theorem-suite. Exit codes: 0 success, 1 domain error,
2 usage error. Config files are flat JSON mirroring TrainConfig; flags
override file keys, and every run writes a config echo next to its
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .errors import ConfigError, EngineError
from .evalrank import evaluate_model
from .hypergraph import Query, load_dataset
from .logic import LogicSignature, compile_hgml_r, eval_formula_c, parse_formula
from .nn import ModelConfig, grad_check, init_params
from .randgen import random_hypergraph, random_query
from .refine import conditional_run, hrwl1_run, uniform_coloring
from .suites import run_all
from .synth import hypercycle, write_hypercycle_dataset
from .train import TrainConfig, fit, load_checkpoint, save_checkpoint


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hcnet")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-hypercycle", help="write the synthetic cyclic suite")
    g.add_argument("--out", required=True)
    g.add_argument("--ns", default="8,12,16,20")
    g.add_argument("--ks", default="3,4,5,6,7")
    g.add_argument("--ratio", type=float, default=0.7)
    g.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("refine", help="emit per-round color partitions")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset directory")
    src.add_argument("--hypercycle", metavar="N,K", help="generate a cycle instead")
    r.add_argument("--rounds", type=int, default=5)
    r.add_argument("--query", help="REL:u1,u2,...:t — run the conditioned test")

    lo = sub.add_parser("logic", help="evaluate or compile formulas")
    lsub = lo.add_subparsers(dest="logic_command", required=True)
    le = lsub.add_parser("eval")
    le.add_argument("--data", required=True)
    le.add_argument("--formula", required=True)
    le.add_argument("--node", required=True)
    le.add_argument("--colors", default="c0", help="comma-separated color names")
    le.add_argument("--const", action="append", default=[], metavar="NAME=ENTITY")
    lc = lsub.add_parser("compile")
    lc.add_argument("--formula", required=True)
    lc.add_argument("--colors", default="c0")
    lc.add_argument("--relations", required=True, metavar="NAME:ARITY,...")

    t = sub.add_parser("train")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="flat JSON config file")
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True, help="checkpoint path")

    e = sub.add_parser("evaluate")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)

    gc = sub.add_parser("gradcheck")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=5)

    ts = sub.add_parser("theorem-suite", help="run every exact property suite")
    ts.add_argument("--seed", type=int, default=0)
    return ap


def _load_config(path: str | None, seed: int | None) -> TrainConfig:
    values: dict = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
        known = {f.name for f in fields(TrainConfig)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = TrainConfig(**values)
    return cfg if seed is None else replace(cfg, seed=seed)


def _names_to_ids(graph, names: list[str]) -> list[int]:
    lookup = {nm: i for i, nm in enumerate(graph.node_names or [])}
    out = []
    for nm in names:
        if nm in lookup:
            out.append(lookup[nm])
        elif nm.isdigit() and int(nm) < graph.node_count:
            out.append(int(nm))
        else:
            raise ConfigError(f"unknown entity {nm!r}")
    return out


def _cmd_refine(args) -> int:
    if args.hypercycle:
        n, k = (int(x) for x in args.hypercycle.split(","))
        graph = hypercycle(n, k)
    else:
        graph, *_ = load_dataset(args.data)
    if args.query:
        rel_name, given_part, target = args.query.split(":")
        rel = next((r for r in graph.relations if r.name == rel_name), None)
        if rel is None:
            raise ConfigError(f"unknown relation {rel_name!r}")
        given = _names_to_ids(graph, given_part.split(",")) if given_part else []
        colorings = conditional_run(
            graph, Query(rel.id, tuple(given), int(target)), args.rounds
        )
    else:
        colorings = hrwl1_run(graph, uniform_coloring(graph), args.rounds)
    for coloring in colorings:
        for v, c in enumerate(coloring.colors):
            print(f"{coloring.round}\t{v}\t{c}")
    return 0


def _cmd_logic(args) -> int:
    colors = args.colors.split(",")
    if args.logic_command == "eval":
        graph, *_ = load_dataset(args.data)
        sig = LogicSignature(
            colors=colors,
            relations=[(r.name, r.arity) for r in graph.relations],
        )
        for item in args.const:
            name, _, entity = item.partition("=")
            sig.constants[name] = _names_to_ids(graph, [entity])[0]
        node = _names_to_ids(graph, [args.node])[0]
        result = eval_formula_c(graph, sig, parse_formula(args.formula), node)
        print("true" if result else "false")
        return 0
    relations = []
    for item in args.relations.split(","):
        name, _, arity = item.partition(":")
        relations.append((name, int(arity)))
    sig = LogicSignature(colors=colors, relations=relations)
    net = compile_hgml_r(parse_formula(args.formula), sig)
    print(json.dumps({
        "subformulas": net.size,
        "W0": net.W0.tolist(),
        "bias": net.bias.tolist(),
        "Wr": {name: net.Wr[i].tolist() for i, (name, _) in enumerate(sig.relations)},
        "ar": {name: net.ar[i].tolist() for i, (name, _) in enumerate(sig.relations)},
        "p": net.p.tolist(),
    }))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    graph, train_facts, valid_facts, test_facts = load_dataset(args.data)
    params, log = fit(
        graph,
        {"train": train_facts, "valid": valid_facts, "test": test_facts},
        cfg,
        log_path=args.out + ".log",
    )
    save_checkpoint(args.out, params, cfg)
    with open(args.out + ".config.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2)
    print(json.dumps({"epochs": len(log), "final": log[-1] if log else None}))
    return 0


def _cmd_evaluate(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    graph, train_facts, valid_facts, test_facts = load_dataset(args.data)
    report = evaluate_model(
        graph, test_facts, params, params.config.kind,
        {"train": train_facts, "valid": valid_facts},
    )
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(args.instances):
        g = random_hypergraph(rng, max_nodes=10, max_relations=3, max_arity=4)
        q = random_query(rng, g)
        params = init_params(g, ModelConfig(kind="hcnet", d=8, layers=2), rng)
        worst = max(worst, grad_check(g, q, params, seed=args.seed + i))
    ok = worst < 1e-4
    print(f"{'PASS' if ok else 'FAIL'} max relative error {worst:.3e}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate-hypercycle":
            write_hypercycle_dataset(
                args.out,
                tuple(int(x) for x in args.ns.split(",")),
                tuple(int(x) for x in args.ks.split(",")),
                args.ratio,
                args.seed,
            )
            print(f"wrote {args.out}")
            return 0
        if args.command == "refine":
            return _cmd_refine(args)
        if args.command == "logic":
            return _cmd_logic(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "theorem-suite":
            results = run_all(seed=args.seed)
            for res in results:
                print(res.line())
            return 0 if all(r.passed for r in results) else 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def entry() -> None:
    sys.exit(main())
