"""Static gate: every kernel launch declares its family as a literal.

A launch's kernel family is a fact the kernel states where it records the
launch, never something computed (say, from its name).  This test walks
``src/`` with :mod:`ast` and checks that every ``record(...)`` call — the
``kernels.record`` wrapper and ``Device.record`` alike — passes
``family=`` as a string literal naming a known family.
"""

import ast
import functools
import pathlib
from typing import Dict, Tuple

from repro.backend.device import FAMILIES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@functools.lru_cache(maxsize=None)
def record_calls() -> Tuple[Tuple[str, ast.Call], ...]:
    """Every ``record(...)`` / ``<obj>.record(...)`` call under ``src/``,
    except the ``kernels.record`` wrapper forwarding its own argument
    (parsed once per test run)."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        wrapper = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "record"
                   for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in wrapper:
                continue
            f = node.func
            if ((isinstance(f, ast.Name) and f.id == "record")
                    or (isinstance(f, ast.Attribute) and f.attr == "record")):
                where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
                calls.append((where, node))
    return tuple(calls)


def _family(call: ast.Call):
    return next((k.value for k in call.keywords if k.arg == "family"), None)


def declared_families() -> Dict[str, str]:
    """Kernel name -> declared family, for every record site whose kernel
    name is a literal (the GEMM wrappers take their names from layers)."""
    out: Dict[str, str] = {}
    for _, call in record_calls():
        if call.args and isinstance(call.args[0], ast.Constant):
            out[call.args[0].value] = _family(call).value
    return out


def test_every_record_call_declares_a_literal_family():
    calls = record_calls()
    # ~90 sites today; a walk that finds far fewer has lost its way
    assert len(calls) > 80, len(calls)
    bad = []
    for where, call in calls:
        fam = _family(call)
        if not (isinstance(fam, ast.Constant) and fam.value in FAMILIES):
            bad.append(f"{where}: family="
                       f"{ast.unparse(fam) if fam is not None else None}")
    assert not bad, "record() sites without a literal known family:\n" \
        + "\n".join(bad)


def test_a_name_declares_one_family():
    """Two sites recording the same kernel name agree on its family, so a
    per-name table in a report never straddles two families."""
    seen: Dict[str, set] = {}
    for _, call in record_calls():
        if call.args and isinstance(call.args[0], ast.Constant):
            seen.setdefault(call.args[0].value, set()).add(
                _family(call).value)
    split = {n: f for n, f in seen.items() if len(f) > 1}
    assert not split, split
