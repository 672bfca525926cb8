"""Code-only line counter: the number every simplicity PR quotes.  A line
counts when it carries a token that is not a comment, a blank, or part of a
docstring (any bare string statement); continuation lines and *used* strings do.
    python tools/count_code.py src/repro src/repro/edge   # a total per path
    python tools/count_code.py --check       # against tools/code_ceiling.json
"""

import ast
import io
import json
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CEILING = os.path.join(ROOT, "tools", "code_ceiling.json")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_source(source: str) -> int:
    """Code-only lines of one module's source text."""
    lines: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def count_path(path: str) -> int:
    """Code-only lines of a ``.py`` file, or of every one under a tree."""
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return count_source(fh.read())
    return sum(count_path(os.path.join(base, name))
               for base, _dirs, files in os.walk(path)
               for name in files if name.endswith(".py"))


def over_ceiling(root: str = ROOT, ceiling_path: str = CEILING) -> list:
    """One message per path (a directory or one module) above its
    committed ceiling."""
    with open(ceiling_path) as fh:
        ceilings = json.load(fh)["ceilings"]
    counts = {path: count_path(os.path.join(root, path)) for path in ceilings}
    return [f"{path}: {counts[path]} code-only lines, ceiling {limit} — take "
            "lines out; tools/code_ceiling.json is only ever lowered"
            for path, limit in ceilings.items() if counts[path] > limit]


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        problems = over_ceiling()
        print("\n".join(problems) or "code ceilings hold")
        sys.exit(1 if problems else 0)
    for arg in sys.argv[1:]:
        print(f"{count_path(arg):>7}  {arg}")
