"""Hypergraph graded modal logic: AST, brute-force semantics, compiler.

The logic has color atoms a(x), negation, conjunction, and graded modalities
exists>=N r@i [...]: "x occurs at position i of at least N r-edges whose
remaining entries satisfy the guards". Guards may be arbitrary Boolean
combinations over the bound positions (evaluator), but the compiler accepts
only the restricted fragment where each modality carries a per-position
conjunction of unary guards. Constant atoms is(b) extend the logic for the
evaluator only, which resolves them through the signature's constants.

The compiler turns a restricted formula into fixed message-passing
parameters whose rounds compute formula truth values exactly, in integer
arithmetic with the truncated ReLU min(max(0,x),1). The compiled network
runs the learned model's message kernel (`nn.edges_by_relation` and
`autodiff.exclusive_products`) in int64.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    ArityMismatch,
    ColorOutOfSignature,
    FormulaParseError,
    InvalidConstants,
    NotRestricted,
    PositionOutOfRange,
    UnknownColor,
    UnknownConstant,
    UnknownRelation,
)
from .hypergraph import RelationalHypergraph
from .nn import edges_by_relation

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class ColorAtom:
    color: str


@dataclass(frozen=True)
class ConstAtom:
    const: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class GuardAt:
    """Unary formula applied to the node bound at `position`."""

    position: int
    formula: "Formula"


@dataclass(frozen=True)
class GuardNot:
    sub: "Guard"


@dataclass(frozen=True)
class GuardAnd:
    left: "Guard"
    right: "Guard"


@dataclass(frozen=True)
class ExistsGeq:
    count: int
    relation: str
    position: int
    guard: "Guard | None"


Formula = ColorAtom | ConstAtom | Not | And | ExistsGeq
Guard = GuardAt | GuardNot | GuardAnd


def Or(left: Formula, right: Formula) -> Formula:
    """Disjunction as sugar: not(not left and not right)."""
    return Not(And(Not(left), Not(right)))


def GuardOr(left: Guard, right: Guard) -> Guard:
    return GuardNot(GuardAnd(GuardNot(left), GuardNot(right)))


def guards_from_map(mapping: dict[int, Formula]) -> Guard | None:
    """Per-position conjunction guard from {position: unary formula}."""
    guard: Guard | None = None
    for j in sorted(mapping):
        g = GuardAt(j, mapping[j])
        guard = g if guard is None else GuardAnd(guard, g)
    return guard


@dataclass
class LogicSignature:
    colors: list[str]
    relations: list[tuple[str, int]]  # (name, arity)
    constants: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, k in self.relations:
            if k < 1:
                raise ArityMismatch(f"relation {name!r} has arity {k}; it must be at least 1")
        for what, names in (("relation", [n for n, _ in self.relations]), ("color", self.colors)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ArityMismatch(f"{what} {name!r} is listed twice")

    def relation_arity(self, name: str) -> int:
        for n, k in self.relations:
            if n == name:
                return k
        raise UnknownRelation(name)


# --- Evaluator -------------------------------------------------------------


def _eval(graph: RelationalHypergraph, sig: LogicSignature, formula: Formula, node: int) -> bool:
    if isinstance(formula, ColorAtom):
        if formula.color not in sig.colors:
            raise UnknownColor(formula.color)
        return graph.node_color[node] == sig.colors.index(formula.color)
    if isinstance(formula, ConstAtom):
        if formula.const not in sig.constants:
            raise UnknownConstant(formula.const)
        return node == sig.constants[formula.const]
    if isinstance(formula, Not):
        return not _eval(graph, sig, formula.sub, node)
    if isinstance(formula, And):
        return _eval(graph, sig, formula.left, node) and _eval(graph, sig, formula.right, node)
    if isinstance(formula, ExistsGeq):
        arity = sig.relation_arity(formula.relation)
        if not (1 <= formula.position <= arity):
            raise PositionOutOfRange(
                f"own position {formula.position} for {arity}-ary {formula.relation}"
            )
        _check_guard_positions(formula.guard, arity, formula.position)
        rel_id = _graph_relation_id(graph, formula.relation)
        if rel_id is None:
            return formula.count <= 0
        count = 0
        for e, i in graph.incidence_index[node]:
            ed = graph.edges[e]
            if ed.relation != rel_id or i != formula.position:
                continue
            if formula.guard is None or _eval_guard(graph, sig, formula.guard, ed.nodes):
                count += 1
        return count >= formula.count
    raise FormulaParseError(f"not a formula: {formula!r}")


def _graph_relation_id(graph: RelationalHypergraph, name: str) -> int | None:
    for r in graph.relations:
        if r.name == name:
            return r.id
    return None


def _check_guard_positions(guard: Guard | None, arity: int, own: int) -> None:
    if guard is None:
        return
    if isinstance(guard, GuardAt):
        if not (1 <= guard.position <= arity) or guard.position == own:
            raise PositionOutOfRange(f"guard position {guard.position}")
    elif isinstance(guard, GuardNot):
        _check_guard_positions(guard.sub, arity, own)
    elif isinstance(guard, GuardAnd):
        _check_guard_positions(guard.left, arity, own)
        _check_guard_positions(guard.right, arity, own)
    else:
        raise FormulaParseError(f"not a guard: {guard!r}")


def _eval_guard(
    graph: RelationalHypergraph, sig: LogicSignature, guard: Guard, nodes: tuple[int, ...]
) -> bool:
    if isinstance(guard, GuardAt):
        return _eval(graph, sig, guard.formula, nodes[guard.position - 1])
    if isinstance(guard, GuardNot):
        return not _eval_guard(graph, sig, guard.sub, nodes)
    if isinstance(guard, GuardAnd):
        return _eval_guard(graph, sig, guard.left, nodes) and _eval_guard(
            graph, sig, guard.right, nodes
        )
    raise FormulaParseError(f"not a guard: {guard!r}")


def eval_formula(
    graph: RelationalHypergraph, sig: LogicSignature, formula: Formula, node: int
) -> bool:
    """Exact satisfaction of `formula` at `node`, with is(b) atoms resolved
    through the signature's constant interpretations (which must be
    pairwise distinct)."""
    if len(set(sig.constants.values())) != len(sig.constants):
        raise InvalidConstants("constant interpretations collide")
    return _eval(graph, sig, formula, node)


# --- Restricted fragment ---------------------------------------------------


def _guard_conjuncts(guard: Guard) -> list[Guard] | None:
    """Flatten a guard into GuardAt conjuncts; None if not a conjunction."""
    if isinstance(guard, GuardAt):
        return [guard]
    if isinstance(guard, GuardAnd):
        left = _guard_conjuncts(guard.left)
        right = _guard_conjuncts(guard.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def is_hgml_r(formula: Formula) -> bool:
    """True iff every modality's guard is a per-position conjunction of
    unary restricted formulas."""
    if isinstance(formula, (ColorAtom, ConstAtom)):
        return True
    if isinstance(formula, Not):
        return is_hgml_r(formula.sub)
    if isinstance(formula, And):
        return is_hgml_r(formula.left) and is_hgml_r(formula.right)
    if isinstance(formula, ExistsGeq):
        if formula.guard is None:
            return True
        conj = _guard_conjuncts(formula.guard)
        if conj is None:
            return False
        return all(is_hgml_r(g.formula) for g in conj)
    return False


# --- Compiler --------------------------------------------------------------


@dataclass
class CompiledNetwork:
    sig: LogicSignature
    subformulas: list[Formula]  # occurrence order, subterms first
    W0: np.ndarray  # (L, L)
    bias: np.ndarray  # (L,)
    Wr: np.ndarray  # (|R|, L, L)
    ar: np.ndarray  # (|R|, L)
    p: np.ndarray  # (max_arity + 1, L), rows indexed by position, entries in {1, 3}

    @property
    def size(self) -> int:
        return len(self.subformulas)


def _true_formula(sig: LogicSignature) -> Formula:
    if not sig.colors:
        raise NotRestricted("signature needs at least one color")
    a = ColorAtom(sig.colors[0])
    return Not(And(a, Not(a)))


def _normalize(formula: Formula, sig: LogicSignature) -> Formula:
    """Give every modality a guard at every position j != i (missing guards
    become an always-true formula); merge repeated positions by conjunction."""
    if isinstance(formula, ColorAtom):
        return formula
    if isinstance(formula, ConstAtom):
        raise NotRestricted("constant atoms are not compilable")
    if isinstance(formula, Not):
        return Not(_normalize(formula.sub, sig))
    if isinstance(formula, And):
        return And(_normalize(formula.left, sig), _normalize(formula.right, sig))
    if isinstance(formula, ExistsGeq):
        arity = sig.relation_arity(formula.relation)
        if not (1 <= formula.position <= arity):
            raise PositionOutOfRange(f"own position {formula.position}")
        by_pos: dict[int, Formula] = {}
        if formula.guard is not None:
            conj = _guard_conjuncts(formula.guard)
            if conj is None:
                raise NotRestricted("guard is not a per-position conjunction")
            for g in conj:
                if not (1 <= g.position <= arity) or g.position == formula.position:
                    raise PositionOutOfRange(f"guard position {g.position}")
                sub = _normalize(g.formula, sig)
                by_pos[g.position] = (
                    And(by_pos[g.position], sub) if g.position in by_pos else sub
                )
        for j in range(1, arity + 1):
            if j != formula.position and j not in by_pos:
                by_pos[j] = _true_formula(sig)
        return ExistsGeq(
            formula.count, formula.relation, formula.position, guards_from_map(by_pos)
        )
    raise FormulaParseError(f"not a formula: {formula!r}")


def compile_hgml_r(formula: Formula, sig: LogicSignature) -> CompiledNetwork:
    """Fill the fixed-form message-passing parameters, one row per
    subformula occurrence (subterms precede superterms):

      color atom     -> (W0)_{ll} = 1
      not phi_k      -> (W0)_{lk} = -1, b_l = 1
      phi_j and phi_k-> (W0)_{lj} = (W0)_{lk} = 1, b_l = -1
      exists>=N r@i  -> (W_r)_{l k_j} = 1 per guard row k_j, (a_r)_l = 1,
                        b_l = -N + 1

    Positional vectors carry 1 at guard rows used at that position, 3
    elsewhere, so the elementwise product over (p_j - h_e(j)) detects
    guard satisfaction at the right position only.
    """
    if not is_hgml_r(formula):
        raise NotRestricted("formula is outside the restricted fragment")
    root = _normalize(formula, sig)

    subs: list[Formula] = []
    child_idx: list[list[int]] = []  # generic child occurrence indices
    guard_rows: list[dict[int, int]] = []  # modality: position -> guard row

    def walk(f: Formula) -> int:
        if isinstance(f, ColorAtom):
            kids, rows = [], {}
        elif isinstance(f, Not):
            kids, rows = [walk(f.sub)], {}
        elif isinstance(f, And):
            kids, rows = [walk(f.left), walk(f.right)], {}
        elif isinstance(f, ExistsGeq):
            rows = {
                g.position: walk(g.formula) for g in _guard_conjuncts(f.guard) or []
            }
            kids = []
        else:
            raise NotRestricted(f"not compilable: {f!r}")
        subs.append(f)
        child_idx.append(kids)
        guard_rows.append(rows)
        return len(subs) - 1

    walk(root)
    L = len(subs)
    num_rel = len(sig.relations)
    max_arity = max((k for _, k in sig.relations), default=1)
    rel_index = {name: idx for idx, (name, _) in enumerate(sig.relations)}

    W0 = np.zeros((L, L), dtype=np.int64)
    bias = np.zeros(L, dtype=np.int64)
    Wr = np.zeros((num_rel, L, L), dtype=np.int64)
    ar = np.zeros((num_rel, L), dtype=np.int64)
    p = np.full((max_arity + 1, L), 3, dtype=np.int64)

    for ell, f in enumerate(subs):
        if isinstance(f, ColorAtom):
            W0[ell, ell] = 1
        elif isinstance(f, Not):
            W0[ell, child_idx[ell][0]] = -1
            bias[ell] = 1
        elif isinstance(f, And):
            for k in child_idx[ell]:
                W0[ell, k] += 1
            bias[ell] = -1
        elif isinstance(f, ExistsGeq):
            r = rel_index[f.relation]
            for j, k_j in guard_rows[ell].items():
                Wr[r, ell, k_j] = 1
                p[j, k_j] = 1
            ar[r, ell] = 1
            bias[ell] = -f.count + 1
    return CompiledNetwork(sig, subs, W0, bias, Wr, ar, p)


def _trunc(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0, 1)


def run_compiled(
    network: CompiledNetwork, graph: RelationalHypergraph, rounds: int | None = None
) -> np.ndarray:
    """Run L rounds (default: one per subformula) of the compiled network in
    exact integer arithmetic; entry (v, p) of the result is 1 iff
    subformula p holds at v.

    Messages come from the model's kernel, in int64: per relation, one
    gather of the (E_r, k) node ids and the exclusive products of the
    factors p_j - h_e(j)."""
    sig = network.sig
    L = network.size
    V = graph.node_count
    rel_index = {name: idx for idx, (name, _) in enumerate(sig.relations)}

    h = np.zeros((V, L), dtype=np.int64)
    for v in range(V):
        c = graph.node_color[v]
        if not (0 <= c < len(sig.colors)):
            raise ColorOutOfSignature(f"node {v} has color id {c}")
        for ell, f in enumerate(network.subformulas):
            if isinstance(f, ColorAtom) and f.color == sig.colors[c]:
                h[v, ell] = 1

    # Relations outside the signature have zero parameters: skipped.
    groups = [
        (rel_index[graph.relations[rel].name], nodes)
        for rel, nodes in edges_by_relation(graph).items()
        if graph.relations[rel].name in rel_index
    ]
    for _ in range(rounds if rounds is not None else L):
        msg = np.zeros((V, L), dtype=np.int64)
        for r, nodes in groups:
            k = nodes.shape[1]
            f = network.p[1 : k + 1, None, :] - h[nodes.T]  # (k, E, L)
            z = ad.exclusive_products(f)
            np.add.at(msg, nodes.T, network.ar[r] - _trunc(z @ network.Wr[r].T))
        h = _trunc(h @ network.W0.T + msg + network.bias)
    return h


# --- Text syntax -----------------------------------------------------------
#
#   F := color(name) | is(name) | not F | (F and F) | (F or F)
#      | exists>=N rel@i [j1: F, j3: F]
#
# Guard labels accept `j1` or bare `1`. The guard list may be empty.

_TOKEN = re.compile(
    r"\s*(?:(?P<geq>>=)|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9\-]*)"
    r"|(?P<sym>[()\[\],:@]))"
)

_KEYWORDS = {"color", "is", "not", "and", "or", "exists"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise FormulaParseError(f"bad character at offset {pos}: {text[pos]!r}")
            break
        pos = m.end()
        for kind in ("geq", "num", "ident", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None, value: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of formula")
        if (kind is not None and tok[0] != kind) or (value is not None and tok[1] != value):
            raise FormulaParseError(f"unexpected token {tok[1]!r}")
        self.pos += 1
        return tok[1]

    def formula(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of formula")
        if tok == ("ident", "color"):
            self.take()
            self.take("sym", "(")
            name = self.take("ident")
            self.take("sym", ")")
            return ColorAtom(name)
        if tok == ("ident", "is"):
            self.take()
            self.take("sym", "(")
            name = self.take("ident")
            self.take("sym", ")")
            return ConstAtom(name)
        if tok == ("ident", "not"):
            self.take()
            return Not(self.formula())
        if tok == ("sym", "("):
            self.take()
            left = self.formula()
            op = self.take("ident")
            if op not in ("and", "or"):
                raise FormulaParseError(f"expected and/or, got {op!r}")
            right = self.formula()
            self.take("sym", ")")
            return And(left, right) if op == "and" else Or(left, right)
        if tok == ("ident", "exists"):
            self.take()
            self.take("geq")
            n = int(self.take("num"))
            rel = self.take("ident")
            if rel in _KEYWORDS:
                raise FormulaParseError(f"{rel!r} cannot name a relation")
            self.take("sym", "@")
            own = int(self.take("num"))
            self.take("sym", "[")
            guard_map: dict[int, Formula] = {}
            while self.peek() != ("sym", "]"):
                j = self._guard_position()
                self.take("sym", ":")
                sub = self.formula()
                guard_map[j] = And(guard_map[j], sub) if j in guard_map else sub
                if self.peek() == ("sym", ","):
                    self.take()
            self.take("sym", "]")
            return ExistsGeq(n, rel, own, guards_from_map(guard_map))
        raise FormulaParseError(f"unexpected token {tok[1]!r}")

    def _guard_position(self) -> int:
        tok = self.peek()
        if tok is not None and tok[0] == "ident" and re.fullmatch(r"j\d+", tok[1]):
            self.take()
            return int(tok[1][1:])
        return int(self.take("num"))


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    out = parser.formula()
    if parser.peek() is not None:
        raise FormulaParseError(f"trailing input: {parser.peek()[1]!r}")
    return out
