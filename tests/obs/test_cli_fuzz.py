"""Schema-skewed input to ``python -m repro.obs {profile,memory}``.

A document of the wrong shape is unusable input: the CLI must exit 2 with
an ``error:`` line, never a traceback (exit 1 means "gate failed").
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.obs.memory import MEMORY_SCHEMA

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: a minimal well-formed memory report; each skewed case breaks one part.
_MEMORY = {
    "schema": MEMORY_SCHEMA,
    "peak": {"step": 1, "demand_bytes": 1024, "capacity_bytes": 1024},
    "bitwise_peak_equal": True,
    "attribution": {"by_site": [{"key": "attn", "bytes": 1024,
                                 "share": 1.0, "requests": 1}]},
    "shape_plan": {"base": {"batch": 2, "seq_len": 16},
                   "requests": [{"shape": [2, 16, 8], "dtype": "float32",
                                 "plan": None}],
                   "plans": []},
}


#: a well-formed ``oom`` forensics object (what ``oom_forensics`` writes)
_OOM = {"step": 1, "requested_bytes": 64, "budget_bytes": 1024,
        "over_budget_bytes": 32, "live_bytes": 992, "live_slots": [],
        "sharing_saved_bytes": 0, "would_fit_without_largest": False,
        "would_fit_without_padding": False, "hints": []}


def _skewed_memory(path, value):
    doc = copy.deepcopy(_MEMORY)
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p]
    target[key] = value
    return doc


_PROFILE_CASES = {
    "traceEvents_not_a_list": {"traceEvents": {"cat": "kernel"}},
    "event_not_an_object": {"traceEvents": [1]},
    "otherData_not_an_object": {"traceEvents": [], "otherData": [1]},
    "kernel_event_without_name": {"traceEvents": [
        {"cat": "kernel", "args": {"elems_read": 1, "elems_written": 1}}]},
    "kernel_args_not_an_object": {"traceEvents": [
        {"cat": "kernel", "name": "k", "args": 5}]},
}

_MEMORY_CASES = {
    "shape_plan_not_an_object": (("shape_plan",), "x"),
    "requests_not_a_list": (("shape_plan", "requests"), "x"),
    "peak_not_an_object": (("peak",), [1]),
    "attribution_not_an_object": (("attribution",), "x"),
    "attribution_row_without_bytes": (
        ("attribution", "by_site"),
        [{"key": "attn", "share": 1.0, "requests": 1}]),
    "oom_not_an_object": (("oom",), "x"),
    "oom_without_forensics_keys": (("oom",), {"step": 1}),
    "oom_byte_count_not_an_integer": (("oom",),
                                      {**_OOM, "requested_bytes": "64"}),
}

#: memory runs a what-if so the shape plan is walked too
_MEMORY_ARGS = ["--whatif", "seq_len=32"]


def _run(tmp_path, sub, doc, *args):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", sub, str(path), *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)


@pytest.mark.parametrize("sub, doc, args", [
    *[pytest.param("profile", doc, [], id=f"profile-{name}")
      for name, doc in _PROFILE_CASES.items()],
    *[pytest.param("memory", _skewed_memory(*case), _MEMORY_ARGS,
                   id=f"memory-{name}")
      for name, case in _MEMORY_CASES.items()],
])
def test_skewed_document_is_unusable_input(tmp_path, sub, doc, args):
    done = _run(tmp_path, sub, doc, *args)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:"), done.stderr
    assert "Traceback" not in done.stderr


def test_well_formed_memory_report_is_accepted(tmp_path):
    """The base the memory cases skew is itself usable input."""
    done = _run(tmp_path, "memory", _MEMORY, *_MEMORY_ARGS)
    assert done.returncode == 0, done.stderr
    assert "what-if" in done.stdout


def test_well_formed_oom_is_accepted(tmp_path):
    """The ``oom`` the forensics cases skew is itself usable input."""
    done = _run(tmp_path, "memory", _skewed_memory(("oom",), _OOM),
                *_MEMORY_ARGS)
    assert done.returncode == 0, done.stderr
    assert "OOM at step 1: request of 64 bytes" in done.stdout
