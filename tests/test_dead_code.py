"""Dead-code gate: every function, method and class in ``src/`` has a caller.

A definition counts as referenced when its name appears as a whole word
anywhere in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` outside
the lines of its own definition (a string mention counts, so ``getattr``
dispatch and re-exports are covered).  Names referenced *only* from
``tests/`` are listed in ``dead_code_allowlist.txt``; each one is a
candidate for deletion or for a real caller, and the list may only shrink:
an entry whose definition is gone, or that gained a caller outside
``tests/``, fails the gate until it is removed from the list.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = ("src", "tests", "benchmarks", "examples")
ALLOWLIST = Path(__file__).with_name("dead_code_allowlist.txt")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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


def _word_lines() -> Dict[str, Dict[Path, Set[int]]]:
    """word -> file -> line numbers where it appears, over all scanned
    trees."""
    index: Dict[str, Dict[Path, Set[int]]] = defaultdict(
        lambda: defaultdict(set))
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in _WORD.findall(line):
                    index[word][path].add(lineno)
    return index


def classify() -> Tuple[List[str], List[str]]:
    """(names with no reference at all, names referenced only from
    ``tests/``), each as ``path::Qual.name`` under ``src/repro``."""
    index = _word_lines()
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
