"""``python -m repro.obs <subcommand>``: one dispatcher, four loud redirects."""

import os
import subprocess
import sys

import pytest

from repro.obs.__main__ import COMMANDS, main

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.mark.parametrize("sub", sorted(COMMANDS))
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as done:
        main([sub, "--help"])
    assert done.value.code == 0
    assert f"python -m repro.obs {sub}" in capsys.readouterr().out


def test_front_door_usage(capsys):
    assert sorted(COMMANDS) == ["compare", "health", "memory", "profile",
                                "trajectory"]
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out
    assert all(sub in usage for sub in COMMANDS)
    assert main(["summarize"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("old, new", [
    ("trajectory", "trajectory"), ("health", "health"),
    ("profile", "profile"), ("memory", "memory")])
def test_old_module_spelling_redirects_loudly(old, new):
    """A gate still spelling ``python -m repro.obs.<module>`` must fail,
    not exit 0 having checked nothing."""
    done = subprocess.run(
        [sys.executable, "-m", f"repro.obs.{old}", "x.json"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert done.returncode != 0
    assert f"moved: python -m repro.obs {new}" in done.stderr


def test_removed_summarize_module_fails():
    """``repro.obs.summarize`` is gone (``python -m repro.obs compare``
    replaced it); a gate still spelling it must fail, not exit 0."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs.summarize", "x.json"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert done.returncode != 0
    assert "No module named repro.obs.summarize" in done.stderr
