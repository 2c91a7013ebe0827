"""Count the lines of `src/landau` by kind: code, docstring, comment, blank.

A line is a docstring line when it lies in a module, class or function
docstring (by `ast`), a comment line when it holds only a comment (by
`tokenize`), blank when it holds only whitespace outside a docstring, and
code otherwise.  Prints one row per file and a total:

    python tools/src_lines.py          # the working tree
    python tools/src_lines.py REV      # also REV (read by `git show`) and the change
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/landau"
KINDS = ("code", "docstring", "comment", "blank")


def count(source):
    """{kind: lines} of one Python source text."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in doc:
            out["docstring"] += 1
        elif not line.strip():
            out["blank"] += 1
        elif number in comment:
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def tree_sources():
    return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_sources(rev):
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def table(sources):
    """{file: {kind: lines}} with a "total" row."""
    rows = {name: count(text) for name, text in sources.items()}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return rows


def render(rows, title):
    print(f"{title:<18}" + "".join(f"{kind:>11}" for kind in KINDS + ("lines",)))
    for name, row in rows.items():
        print(f"{name:<18}" + "".join(f"{row[kind]:>11}" for kind in KINDS)
              + f"{sum(row.values()):>11}")


def main(argv):
    now = table(tree_sources())
    render(now, "working tree")
    if argv:
        before = table(revision_sources(argv[0]))
        print()
        render(before, argv[0][:18])
        zero = dict.fromkeys(KINDS, 0)
        change = {name: {kind: now.get(name, zero)[kind] - before.get(name, zero)[kind]
                         for kind in KINDS} for name in {**before, **now}}
        print()
        render({name: change[name] for name in sorted(change, key=lambda n: n == "total")},
               "change")


if __name__ == "__main__":
    main(sys.argv[1:])
