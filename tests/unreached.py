"""List the statements of `src/` that the test suite never executes.

Runs the whole suite once, in this process, under a stdlib `sys.settrace`
line collector, then prints every statement of `src/b2dunkl` whose lines
saw no line event, as `path:line: source`, and a count on stderr.
Docstrings are skipped, and so are `try` headers and `global` statements,
which run no code of their own.  Lines run only in a child process (the
acceptance test starts one CLI process) are not seen.

    python tests/unreached.py [pytest args]
    python tests/unreached.py --commands

It takes about two minutes, which is why it is not part of the suite.
The exit status is pytest's.  With ``--commands`` it runs no test:
it replays every command of `tests/golden_manifest.json` in this process
and lists the statements that no command reaches, the paths that only
unit tests pin.  It takes about ten seconds, and its exit status is 1
when a command's output differs from the manifest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from typing import Dict, Iterator, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "b2dunkl")


def _collector() -> Tuple[Dict[str, Set[int]], object]:
    """A trace function recording the lines run in files of the package;
    frames of other files get no local tracer, so they run untraced."""
    seen: Dict[str, Set[int]] = {}
    wanted: Dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.abspath(name).startswith(
                PACKAGE + os.sep)
            if keep:
                seen.setdefault(name, set())
        if not keep:
            return None
        seen[name].add(frame.f_lineno)
        return local

    return seen, tracer


def _docstring_ids(tree: ast.AST) -> Set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.add(id(first))
    return out


def _header_lines(node: ast.stmt) -> range:
    """The lines one of whose events means the statement ran: a compound
    statement's header (decorators included), a simple statement's whole
    extent."""
    start = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(node.lineno, body[0].lineno - 1) + 1)
    return range(start, node.end_lineno + 1)


def statements(path: str) -> Iterator[Tuple[int, range]]:
    """(first line, header lines) of each statement that runs code."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    skip = _docstring_ids(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        yield node.lineno, _header_lines(node)


def unreached(seen: Dict[str, Set[int]]) -> List[Tuple[str, int]]:
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran = set()
        for key, lines in seen.items():
            if os.path.abspath(key) == path:
                ran |= lines
        for line, header in sorted(statements(path)):
            if not ran.intersection(header):
                out.append((path, line))
    return out


def _replay() -> int:
    """Run each command of the golden manifest; 1 if any output changed."""
    import golden_manifest
    changed = golden_manifest.changed()
    for command in changed:
        print("changed: " + command, file=sys.stderr)
    return int(bool(changed))


def main(argv: List[str]) -> int:
    if any(m == "b2dunkl" or m.startswith("b2dunkl.") for m in sys.modules):
        raise SystemExit("b2dunkl was imported before tracing began")
    commands = argv[:1] == ["--commands"]
    if commands and argv[1:]:
        raise SystemExit("--commands takes no other arguments")
    if not commands:
        import pytest

    sys.path[:0] = [SRC, HERE]
    seen, tracer = _collector()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = (_replay() if commands else
                  pytest.main(["-q", "-p", "no:cacheprovider", HERE] + argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached(seen)
    sources: Dict[str, List[str]] = {}
    for path, line in missed:
        if path not in sources:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        text = sources[path][line - 1].strip()
        print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    by = " by the golden commands" if commands else ""
    print(f"{len(missed)} statements of src/ never executed{by}",
          file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
