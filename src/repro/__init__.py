"""LightSeq2 reproduction — accelerated Transformer training.

A faithful Python reproduction of *LightSeq2: Accelerated Training for
Transformer-Based Models on GPUs* (SC 2022): fused forward/backward kernels
for every non-GEMM op in Transformer encoder/decoder/embedding/criterion
layers, a memory-efficient mixed-precision trainer with a symbolic-tensor-
link workspace, and static lifetime-shared memory planning — executed on a
numpy substrate whose kernel traces are replayed through a V100/A100
roofline cost model to regenerate the paper's figures and tables.

Quick start (mirrors Fig. 10 of the paper)::

    from repro import LSTransformerEncoderLayer

    config = LSTransformerEncoderLayer.get_config(
        model="transformer-big",
        max_batch_tokens=4096,
        max_seq_len=256,
        fp16=True,
        local_rank=0,
    )
    enc_layer = LSTransformerEncoderLayer(config)
"""

from . import blas  # noqa: F401  (first: pins BLAS before any GEMM runs)
from .backend.profiler import (alloc_counters, by_stage,
                               reset_alloc_counters)
from .config import LSConfig, get_config
from .layers.criterion import LSCrossEntropyLayer
from .layers.decoder import LSTransformerDecoderLayer
from .layers.embedding import LSEmbeddingLayer
from .layers.encoder import LSTransformerEncoderLayer
from .obs import (AnomalyEngine, AnomalyHalted, MetricsRecorder,
                  NumericsCollector, SpanRecorder, analyze_rows,
                  perfetto_trace, span, summarize_run_records, use_collector,
                  use_recorder, write_trace)

__version__ = "1.0.0"

__all__ = [
    "LSConfig",
    "get_config",
    "LSTransformerEncoderLayer",
    "LSTransformerDecoderLayer",
    "LSEmbeddingLayer",
    "LSCrossEntropyLayer",
    # profiler / observability surface
    "alloc_counters",
    "reset_alloc_counters",
    "by_stage",
    "span",
    "use_recorder",
    "SpanRecorder",
    "MetricsRecorder",
    "perfetto_trace",
    "write_trace",
    "summarize_run_records",
    # numerics observatory
    "NumericsCollector",
    "use_collector",
    "AnomalyEngine",
    "AnomalyHalted",
    "analyze_rows",
    "__version__",
]
