"""Count code lines and optional parameters per module.

A code line is a line holding a token that is not a comment or a
docstring (blank lines, comment-only lines and docstring lines do not
count).  An optional parameter is a default value, a *args or a **kwargs
of a function or lambda.  The last lines count the names the package's
__init__.py imports from its modules, its public API, and list the
modules outside the package that importing it adds to a fresh
interpreter (python -I -S, so no site hook preloads any).

Usage: python tools/code_lines.py [DIR]   (default: src/mahonian)
"""

from __future__ import annotations

import ast
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _optional_parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            count += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            count += (a.vararg is not None) + (a.kwarg is not None)
    return count


def measure(path: Path) -> tuple[int, int]:
    """(code lines, optional parameters) of one Python file."""
    source = path.read_text()
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP or tok.type == tokenize.ENCODING:
                continue
            if tok.start[0] in docs:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), _optional_parameters(tree)


def exported_names(path: Path) -> int:
    """Names a package's __init__.py imports from its own modules."""
    tree = ast.parse(path.read_text())
    return sum(
        len(node.names) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
    )


def imported_modules(package: Path) -> list[str]:
    """Modules outside the package that importing it adds to a fresh
    interpreter, sorted by name."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "__import__(sys.argv[2]); print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(package.resolve().parent), package.name],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [m for m in out.split() if m.split(".")[0] != package.name]


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/mahonian")
    total_lines = total_opts = 0
    print(f"{'module':<20} {'code lines':>10} {'optional':>9}")
    for path in sorted(root.glob("*.py")):
        n, opts = measure(path)
        total_lines += n
        total_opts += opts
        print(f"{path.name:<20} {n:>10} {opts:>9}")
    print(f"{'total':<20} {total_lines:>10} {total_opts:>9}")
    init = root / "__init__.py"
    if init.exists():
        print(f"exported names: {exported_names(init)}")
        modules = imported_modules(root)
        print(f"modules the import adds: {len(modules)}")
        print(" ".join(modules))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
