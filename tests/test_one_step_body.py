"""Static gate: the training path has one forward+backward body.

A step's forward+backward is written once, in
``repro.training.loop.staged_forward_backward``: stage scopes, FP16 weights
widened once per pass, the arena step.  A layer or model carrying its own
``forward_backward`` would be a second body that skips all three, and the
eager twins of the parity tests and gate benches would check it instead of
the training path.  This test walks ``src/repro/layers/`` and
``src/repro/models/`` with :mod:`ast` and fails if any class there defines
``forward_backward``.  (``CaptureReplayEngine.forward_backward`` is not a
layer: it dispatches to that one body or to a replayed program.)
"""

import ast
import pathlib

import repro.models  # noqa: F401  (registers every model's Layer subclass)
import repro.training  # noqa: F401
from repro.layers.base import Layer

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_layer_or_model_class_defines_forward_backward():
    classes, bad = 0, []
    for pkg in ("layers", "models"):
        for path in sorted((SRC / pkg).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                classes += 1
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and node.name == "forward_backward"):
                        bad.append(f"{path.relative_to(SRC.parent)}:"
                                   f"{node.lineno} {cls.name}")
    # 14 classes today; a walk that finds far fewer has lost its way
    assert classes > 10, classes
    assert not bad, ("a second forward+backward body; call "
                     "training.loop.staged_forward_backward instead:\n"
                     + "\n".join(bad))


def test_no_layer_subclass_inherits_forward_backward():
    """Covers Layer subclasses outside layers/ and models/ too (say,
    ``training.checkpointing.CheckpointedLayer``)."""
    seen, todo = [], [Layer]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    assert len(seen) > 10, len(seen)   # Layer + 11 subclasses today
    assert not [c.__qualname__ for c in seen
                if hasattr(c, "forward_backward")]
