"""Size of the filterlab package: `wc -l` of each module and the count of its
code lines, those that hold a token other than a comment and lie outside every
docstring (a string that is the first statement of a module, class or function).

Run from anywhere: python3 tools/src_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filterlab"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total_lines = total_code = 0
    print(" lines   code  module")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_lines, n_code = source.count("\n"), code_lines(source)
        total_lines += n_lines
        total_code += n_code
        print(f"{n_lines:6d} {n_code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total")


if __name__ == "__main__":
    main()
