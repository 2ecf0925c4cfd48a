"""``benchmarks/gates.py::GATES`` and ``ci.yml`` stay one table."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load_gates():
    spec = importlib.util.spec_from_file_location(
        "gates", os.path.join(ROOT, "benchmarks", "gates.py"))
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


GATES = _load_gates().GATES
CI_YML = open(os.path.join(ROOT, ".github", "workflows", "ci.yml")).read()


def _args():
    """Every string argument of every step of every gate."""
    for steps in GATES.values():
        for step in steps:
            argv = step[0] if isinstance(step, tuple) else step
            yield from (a for a in argv if isinstance(a, str))


def test_ci_matrix_is_the_gates_table():
    (matrix,) = re.findall(r"^\s+gate: \[([^\]]*)\]", CI_YML, re.M)
    assert [g.strip() for g in matrix.split(",")] == sorted(GATES)
    assert "python benchmarks/gates.py ${{ matrix.gate }}" in CI_YML


def test_ci_has_no_inline_scripts_or_old_spellings():
    assert "<<'EOF'" not in CI_YML and "<<EOF" not in CI_YML
    assert "python -m repro.obs." not in CI_YML
    assert not [a for a in _args() if a.startswith("repro.obs.")]


def test_every_named_file_exists():
    paths = [a.split("::")[0] for a in _args()
             if a.startswith(("benchmarks/", "tests/"))]
    assert len(paths) > 30
    assert not [p for p in paths if not os.path.exists(os.path.join(ROOT, p))]


def test_every_named_pytest_node_collects():
    nodes = sorted({a for a in _args() if "::" in a})
    assert len(nodes) > 10
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", *nodes],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    # pytest exits 4 ("not found") when any id names nothing
    assert done.returncode == 0, done.stdout + done.stderr
