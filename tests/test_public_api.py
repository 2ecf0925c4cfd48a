"""The package's public surface: imports, version, Fig.-10 entry points."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_fig10_exports():
    for name in ("LSTransformerEncoderLayer", "LSTransformerDecoderLayer",
                 "LSEmbeddingLayer", "LSCrossEntropyLayer", "LSConfig",
                 "get_config"):
        assert hasattr(repro, name), name


def test_all_is_accurate():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_profiler_and_obs_exports():
    """The observability surface is part of the package's front door."""
    for name in ("alloc_counters", "reset_alloc_counters", "by_stage",
                 "span", "use_recorder", "SpanRecorder", "MetricsRecorder",
                 "perfetto_trace", "write_trace", "summarize_run_records"):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name
    # the exports are the real objects, not stale aliases
    from repro.backend import profiler
    assert repro.alloc_counters is profiler.alloc_counters
    assert repro.by_stage is profiler.by_stage
    from repro import obs
    assert repro.span is obs.span


def test_subpackage_imports():
    import repro.backend
    import repro.bench
    import repro.data
    import repro.layers
    import repro.models
    import repro.obs
    import repro.precision
    import repro.resilience
    import repro.sim
    import repro.tools
    import repro.training
