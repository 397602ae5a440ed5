"""Count code lines per module of a Python package, and their total.

A code line is a non-blank line that is not a comment and not part of a
string-literal statement (a docstring, or the string under a constant).

    python3 tools/count_code_lines.py [package directory, default src/fequbit]
"""

import ast
import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    strings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in strings and line.strip()
               and not line.lstrip().startswith("#"))


if __name__ == "__main__":
    package = Path(sys.argv[1] if len(sys.argv) > 1 else "src/fequbit")
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
