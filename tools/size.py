"""Count the lines of each `src/hcnet` module by kind: code, docstring,
comment-only and blank.

From the root of a checkout:

    python3 tools/size.py [FILE ...]

With no arguments it counts every `src/hcnet/*.py`. A line belongs to a
docstring when it lies within the string that opens a module, class or
function (its blank lines too); otherwise it is blank, comment-only (a
comment and nothing else), or code. The four columns of a file add up to
its `wc -l`. Deleting prose shrinks the docstring and comment columns
only, so a size figure can tell code from prose.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of source by kind, as `KINDS` names them."""
    text = source.splitlines()
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()  # lines holding a token other than a comment
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text, start=1):
        if n in docs:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif n in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main(paths: list[str]) -> int:
    if not paths:
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "hcnet")
        paths = sorted(glob.glob(os.path.join(root, "*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'wc -l':>6} " + " ".join(f"{kind:>9}" for kind in KINDS) + "  file")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            counts = count(f.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{sum(counts.values()):>6} " + " ".join(f"{counts[k]:>9}" for k in KINDS)
              + f"  {os.path.relpath(path)}")
    print(f"{sum(total.values()):>6} " + " ".join(f"{total[k]:>9}" for k in KINDS) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
