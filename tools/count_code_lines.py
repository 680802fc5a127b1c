"""Count the lines of each module of the polydiff package.

    python3 tools/count_code_lines.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  For every
module under its `src/polydiff`, and in total, it counts physical lines and
code lines, and prints one JSON line.  A code line holds at least one token
that is not a comment and not part of a docstring, where the docstrings are
those `ast` finds: the leading string statement of the module, of each
class and of each function.  Blank lines, comment-only lines and docstring
lines are therefore not code.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

NON_CODE_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE_TOKENS:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return {"physical": len(source.splitlines()), "code": len(code)}


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    package = checkout / "src" / "polydiff"
    modules = {
        path.relative_to(package).as_posix(): count(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }
    total = {key: sum(m[key] for m in modules.values()) for key in ("physical", "code")}
    print(json.dumps({"modules": modules, "total": total}))


if __name__ == "__main__":
    main()
