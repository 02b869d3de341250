"""Count code lines per Python file under a directory.

A code line holds at least one token that is not a comment; lines that
are blank, hold only comments, or belong to a docstring (the leading
string of a module, class or function body) do not count.  The total
is the instrument ROADMAP's size aims are stated in.

    python tools/code_lines.py src/repro/rdbms            # per file + total
    python tools/code_lines.py src/repro/rdbms --max 4150 # exit 1 above

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) \
                and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` carry code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('directory', type=Path)
    parser.add_argument('--max', type=int, default=None,
                        help='exit 1 when the total exceeds this')
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.rglob('*.py')):
        count = code_lines(path.read_text(encoding='utf-8'))
        total += count
        print(f'{count:6d}  {path.relative_to(args.directory)}')
    print(f'{total:6d}  total')
    if args.max is not None and total > args.max:
        print(f'{args.directory}: {total} code lines, above the ceiling '
              f'of {args.max}', file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
