"""Count the code lines of ``src/tapp``'s modules: physical lines that are
not blank, not only a comment and not part of a docstring, per file and in
total, then the total of ``tests/``.  Run from the repository root::

    python tools/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {n for t in tokens if t.type not in _NOT_CODE for n in range(t.start[0], t.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    total = 0
    for path in sorted(pathlib.Path("src/tapp").glob("*.py")):
        total += (n := code_lines(path.read_text()))
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    tests = sum(code_lines(path.read_text()) for path in pathlib.Path("tests").glob("*.py"))
    print(f"{tests:6d}  tests/ total")
