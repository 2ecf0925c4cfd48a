"""Provenance stamps: git SHA, config hash, schema version."""

import json

from repro.obs.metrics import MetricsRecorder, read_jsonl
from repro.obs.provenance import (PROVENANCE_SCHEMA, config_hash, git_sha,
                                  provenance)
from repro.obs.runrecord import make_run_record


def test_git_sha_shape():
    sha = git_sha()
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))


def test_config_hash_is_order_independent():
    a = config_hash({"lr": 1e-3, "steps": 5})
    b = config_hash({"steps": 5, "lr": 1e-3})
    assert a == b and len(a) == 12


def test_config_hash_distinguishes_configs():
    assert config_hash({"lr": 1e-3}) != config_hash({"lr": 2e-3})


def test_config_hash_survives_unserialisable_values():
    # argparse namespaces carry arbitrary objects; the hash must not raise
    h = config_hash({"fn": object()})
    assert len(h) == 12


def test_provenance_document():
    doc = provenance({"x": 1})
    assert doc["provenance_schema"] == PROVENANCE_SCHEMA
    assert doc["config_hash"] == config_hash({"x": 1})
    assert "python" in doc


def test_run_record_stamped():
    rec = make_run_record("t", counters={"c": 1})
    assert rec["provenance"]["provenance_schema"] == PROVENANCE_SCHEMA
    assert "config_hash" in rec["provenance"]


def test_metrics_stream_header_is_first_line(tmp_path):
    path = tmp_path / "m.jsonl"
    m = MetricsRecorder(str(path), config={"seed": 0})
    m.observe_step(step=1, loss=1.0, num_tokens=2, wall_s=0.1)
    rows = read_jsonl(str(path))
    assert rows[0].get("event") == "header"
    assert rows[0]["config_hash"] == config_hash({"seed": 0})
    assert rows[0]["schema"].startswith("repro.obs.metrics/")


def test_header_json_serialisable():
    m = MetricsRecorder(config={"a": [1, 2]})
    json.dumps(m.events[0])


# -- history ordering key ----------------------------------------------------


def test_order_key_shape_and_sortability():
    from repro.obs.provenance import order_key
    k1 = order_key(sha="a" * 40, commit_time=100)
    k2 = order_key(sha="b" * 40, commit_time=20000)
    assert k1 == f"{100:012d}-" + "a" * 12
    # lexicographic sort == historic sort thanks to zero padding
    assert sorted([k2, k1]) == [k1, k2]


def test_order_key_resolves_head_in_this_checkout():
    from repro.obs.provenance import git_commit_time, git_sha, order_key
    sha, ct = git_sha(), git_commit_time()
    if sha is None or ct is None:
        assert order_key() is None      # outside a checkout: no key
    else:
        assert order_key() == f"{ct:012d}-{sha[:12]}"


def test_provenance_carries_order_key():
    from repro.obs.provenance import git_commit_time, order_key
    prov = provenance()
    assert "order_key" in prov and "git_commit_time" in prov
    # in this checkout both resolve and agree with the helpers
    assert prov["order_key"] == order_key()
    assert prov["git_commit_time"] == git_commit_time()


def test_record_order_key_roundtrip(tmp_path):
    """A record written in this checkout orders by its provenance stamp
    after a disk round-trip; a stamp-less record falls back to mtime."""
    from repro.obs.provenance import order_key
    from repro.obs.runrecord import (load_run_record, record_order_key,
                                     write_run_record)
    path = str(tmp_path / "r.json")
    write_run_record(path, make_run_record("t"))
    rec = load_run_record(path)
    if order_key() is not None:
        assert record_order_key(rec, path) == order_key()
    rec["provenance"].pop("order_key", None)
    fallback = record_order_key(rec, path)
    assert fallback.endswith("-mtime")
    assert record_order_key({"name": "x"}) == f"{0:012d}-x"


def test_blas_thread_count_stamped():
    from repro.blas import BLAS_THREADS
    assert provenance()["blas_threads"] == BLAS_THREADS


def test_missing_openblas_is_a_flag_not_an_import_error(monkeypatch):
    """No loadable bundled OpenBLAS: the pin reports ``None`` (recorded
    as the provenance flag) instead of failing ``import repro``."""
    from repro import blas
    monkeypatch.setattr(blas.glob, "glob", lambda pattern: [])
    assert blas._pin_one_thread() is None
    monkeypatch.setattr(blas.glob, "glob",
                        lambda pattern: ["/nonexistent/libscipy_openblas.so"])
    assert blas._pin_one_thread() is None
