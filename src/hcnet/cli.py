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

from .errors import ConfigError, EngineError
from .evalrank import evaluate_model
from .hypergraph import Query, load_dataset
from .logic import LogicSignature, compile_hgml_r, eval_formula_c, parse_formula
from .refine import conditional_run, hrwl1_run, uniform_coloring
from .suites import gradient_suite, run_all
from .synth import hypercycle, write_hypercycle_dataset
from .train import TrainConfig, fit, load_checkpoint, save_checkpoint


def _at_least(low: int):
    """An argparse type: an integer >= low. argparse reports the ValueError
    of a non-integer as an invalid `integer` value."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}: {text!r}")
        return value

    return integer


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None


def _cycle_spec(text: str) -> tuple[int, int]:
    spec = _ints(text)
    if len(spec) != 2:
        raise argparse.ArgumentTypeError(f"expected N,K: {text!r}")
    return spec


def _query_spec(text: str) -> tuple[str, list[str], int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected REL:u1,u2,...:t: {text!r}")
    rel, given, target = parts
    try:
        return rel, given.split(",") if given else [], int(target)
    except ValueError:
        raise argparse.ArgumentTypeError(f"target position is not an integer: {text!r}") from None


def _relations_spec(text: str) -> list[tuple[str, int]]:
    pairs = [item.partition(":") for item in text.split(",")]
    try:
        return [(name, int(arity)) for name, _, arity in pairs]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME:ARITY,...: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hcnet")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-hypercycle", help="write the synthetic cyclic suite")
    g.add_argument("--out", required=True)
    g.add_argument("--ns", type=_ints, default="8,12,16,20")
    g.add_argument("--ks", type=_ints, default="3,4,5,6,7")
    g.add_argument("--ratio", type=float, default=0.7)
    g.add_argument("--seed", type=_at_least(0), default=0)

    r = sub.add_parser("refine", help="emit per-round color partitions")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset directory")
    src.add_argument(
        "--hypercycle", type=_cycle_spec, metavar="N,K", help="generate a cycle instead"
    )
    r.add_argument("--rounds", type=_at_least(0), default=5)
    r.add_argument("--query", type=_query_spec, help="REL:u1,u2,...:t — run the conditioned test")

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
    lc.add_argument("--relations", type=_relations_spec, required=True, metavar="NAME:ARITY,...")

    t = sub.add_parser("train")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="flat JSON config file")
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True, help="checkpoint path")

    e = sub.add_parser("evaluate")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)

    gc = sub.add_parser("gradcheck")
    gc.add_argument("--seed", type=_at_least(0), default=0)
    gc.add_argument("--instances", type=_at_least(1), default=5)

    ts = sub.add_parser("theorem-suite", help="run every exact property suite")
    ts.add_argument("--seed", type=_at_least(0), default=0)
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
        graph = hypercycle(*args.hypercycle)
    else:
        graph, *_ = load_dataset(args.data)
    if args.query:
        rel_name, given_names, target = args.query
        rel = next((r for r in graph.relations if r.name == rel_name), None)
        if rel is None:
            raise ConfigError(f"unknown relation {rel_name!r}")
        given = _names_to_ids(graph, given_names)
        colorings = conditional_run(graph, Query(rel.id, tuple(given), target), args.rounds)
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
    sig = LogicSignature(colors=colors, relations=args.relations)
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate-hypercycle":
            write_hypercycle_dataset(
                args.out,
                args.ns,
                args.ks,
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
            result = gradient_suite(seed=args.seed, instances=args.instances)
            print(result.line())
            return 0 if result.passed else 1
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
