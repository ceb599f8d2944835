"""Count the code lines of the phasemix package.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank, comment-only and docstring lines do not count.  A
token that spans several lines (a long string) counts each of them.
Prints the count per module and the total of each directory given
(default: `src/phasemix`), then, for more than one, the grand total; a
change that moves code, say into `tests`, shows both sides that way.  Uses
only the standard library:

    python3 tools/code_lines.py [dir ...]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one source file."""
    source = Path(path).read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv):
    roots = [Path(a) for a in argv[1:]] or [
        Path(__file__).resolve().parent.parent / "src" / "phasemix"]
    grand = 0
    for root in roots:
        total = 0
        for path in sorted(root.glob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path.name}")
        print(f"{total:6d}  total ({root})")
        grand += total
    if len(roots) > 1:
        print(f"{grand:6d}  total ({', '.join(map(str, roots))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
