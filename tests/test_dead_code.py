"""Dead-code gate: every function, method and class in ``src/`` has a caller.

A definition counts as referenced when its name is *used as an
identifier* anywhere in ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` outside the lines of its own definition: a name, an
attribute, an import outside ``src/``, or a string literal that is
exactly the name (``getattr`` dispatch) and not an ``__all__`` entry.
Docstrings, comments, re-exports and ``__all__`` do not count, so a
definition they alone mention is dead.  Names referenced *only* from
``tests/`` are listed in ``dead_code_allowlist.txt``; each one is a
candidate for deletion or for a real caller, and the list may only shrink:
an entry whose definition is gone, or that gained a caller outside
``tests/``, fails the gate until it is removed from the list.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = ("src", "tests", "benchmarks", "examples")
ALLOWLIST = Path(__file__).with_name("dead_code_allowlist.txt")

#: (qualified name, bare name, file, first line, last line) of one
#: definition.
Definition = Tuple[str, str, Path, int, int]


def _definitions() -> List[Definition]:
    """Every non-dunder function, method and class under ``src/``."""
    found: List[Definition] = []

    def visit(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    found.append((qual, child.name, path, child.lineno,
                                  child.end_lineno))
                visit(child, qual + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), str(path)), f"{rel}::", path)
    return found


def _all_entries(tree: ast.AST) -> Set[int]:
    """ids of the nodes inside ``__all__ = [...]`` and ``__all__ += [...]``."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AugAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            out.update(id(n) for n in ast.walk(node.value))
    return out


def _used_name(node: ast.AST, in_src: bool, listed: Set[int]):
    """The identifier ``node`` uses, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias) and not in_src:
        return node.name.rsplit(".", 1)[-1]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in listed):
        return node.value
    return None


def _uses() -> Dict[str, Dict[Path, Set[int]]]:
    """identifier -> file -> line numbers where it is used, over all
    scanned trees."""
    index: Dict[str, Dict[Path, Set[int]]] = defaultdict(
        lambda: defaultdict(set))
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            listed = _all_entries(tree)
            for node in ast.walk(tree):
                name = _used_name(node, top == "src", listed)
                if name is not None:
                    index[name][path].add(node.lineno)
    return index


def classify() -> Tuple[List[str], List[str]]:
    """(names with no reference at all, names referenced only from
    ``tests/``), each as ``path::Qual.name`` under ``src/repro``."""
    index = _uses()
    tests = ROOT / "tests"
    dead, test_only = [], []
    for qual, name, path, first, last in _definitions():
        users = {p for p, lines in index.get(name, {}).items()
                 if p != path or any(not first <= n <= last for n in lines)}
        if not users:
            dead.append(qual)
        elif all(tests in p.parents for p in users):
            test_only.append(qual)
    return dead, test_only


def _allowlist() -> List[str]:
    return [line.strip() for line in ALLOWLIST.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.fixture(scope="module")
def scan():
    return classify()


def test_every_src_definition_has_a_caller(scan):
    dead, _ = scan
    assert dead == [], (
        f"{len(dead)} definition(s) in src/ are referenced nowhere: delete "
        f"them: {dead}")


def test_test_only_definitions_are_allowlisted(scan):
    _, test_only = scan
    unlisted = sorted(set(test_only) - set(_allowlist()))
    assert unlisted == [], (
        f"referenced only from tests/, so either give them a real caller or "
        f"add them to {ALLOWLIST.name}: {unlisted}")


def test_allowlist_only_shrinks(scan):
    _, test_only = scan
    stale = sorted(set(_allowlist()) - set(test_only))
    assert stale == [], (
        f"no longer test-only (deleted, or gained a caller outside tests/): "
        f"remove from {ALLOWLIST.name}: {stale}")
