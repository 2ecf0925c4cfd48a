"""EXPERIMENTS.md generation: paper-vs-measured, from real runs.

``python -m repro.bench --report EXPERIMENTS.md`` runs every experiment and
writes the reproduction report: for each table/figure, what the paper
says, what this reproduction measured, and whether every shape claim held.
Keeping the report generated (never hand-edited) means it can't drift from
the code.
"""

from __future__ import annotations

import platform
from typing import Dict, Sequence

from .harness import ExperimentResult

#: What the paper reports for each experiment — quoted/condensed from the
#: evaluation section, shown next to our measurements.
PAPER_EXPECTATIONS: Dict[str, str] = {
    "fig01": "Training cost for popular Transformer models rises roughly "
             "in proportion to parameter count (§1, Fig. 1).",
    "fig04": "Fig. 4: on WMT14 En–De with Transformer-big (batch 232×30), "
             "LightSeq2 greatly reduces the time of the computing stages, "
             "'especially the parameter updates'.",
    "fig09": "Fig. 9: 1.4–2.8× over PyTorch/Fairseq on V100 and 1.5–3.5× "
             "on A100; speedup decreases with batch-token size, deeper "
             "models gain more, Apex helps but stays well below LightSeq2.",
    "fig11": "Fig. 11: 8-GPU speedups sit below 1-GPU due to gradient "
             "sync; the gap narrows as batch tokens grow; the TensorFlow/"
             "NeurST integration (encoder+decoder only) shows smaller "
             "speedups than the PyTorch one.",
    "fig12": "Fig. 12: ViT-B/32 and ViT-L/32 beat PyTorch at every batch "
             "size; the ratio falls as batch grows; peak ≈1.7× at batch "
             "16 on ViT-B/32.",
    "table2": "Table 2: LightSeq2 > DeepSpeed > PyTorch in every "
              "(model, #GPUs, precision) cell; FP16 gains exceed FP32; "
              "BERT-base gains exceed BERT-large; (base, 8 GPU, FP16) "
              "speedup ≈1.64× over Hugging Face.",
    "fig13": "Fig. 13: LightSeq2 LayerNorm holds ≈4× regardless of batch "
             "token size / hidden dim; DeepSpeed's speedup collapses at "
             "large element counts (below PyTorch); TensorFlow mostly "
             "below PyTorch.",
    "fig14": "Fig. 14: Dropout 1.2–1.5× with DeepSpeed dropping below "
             "PyTorch past ~5M elements; Softmax speedup *grows* with "
             "input size (shape-specialised kernels).",
    "fig15": "Fig. 15: per-layer speedups — forward > backward; encoder/"
             "decoder ratios fall quickly with sequence length; embedding "
             "and criterion stay stable.",
    "fig16": "Fig. 16: PyTorch consumes ~6 GB more than LightSeq2 and its "
             "reserved memory keeps growing stepwise as longer batches "
             "arrive; LightSeq2 allocates the scanned maximum once and "
             "stays flat.",
    "fig17": "Fig. 17: LightSeq2 holds ≈99% GPU utilization; PyTorch "
             "fluctuates (Transformer-base 80–93%, big steadier but "
             "≤95%).",
    "trainer": "§3.2: the fused workspace trainer cuts trainer runtime by "
               "54.9% and saves ~2 GB vs the Fairseq trainer with Apex "
               "fusion (FP32 masters + FP32 grads eliminated).",
    "ablations": "Design choices: each fusion stage helps cumulatively; "
                 "FP16 > FP32; ring all-reduce > parameter server; static "
                 "allocation removes mid-run growth (plus extensions: "
                 "checkpointing, padding removal).",
    "gpt": "Supplementary (Table 1 capability): decoder-only (GPT) "
           "training accelerates like MT — DeepSpeed cannot run this "
           "workload at all.",
    "overlap_zero1": "Extension of Fig. 11's sync-cost analysis: bucketed "
                     "per-bucket all-reduce launched during backward hides "
                     "most communication (exposed sync strictly drops at "
                     "every world size), and ZeRO-1 sharding cuts "
                     "per-replica optimizer state by (world-1)/world while "
                     "staying bit-identical to the unsharded trainer.",
    "smoke": "Supplementary (§3.2 observability): a healthy fused-FP16 "
             "run under full numerics instrumentation shows zero "
             "anomalies — every layer sampled every step, no loss-scale "
             "skips at a conservative init scale; the record is the "
             "nightly CI health baseline.",
}

HEADER = """\
# EXPERIMENTS — paper vs. this reproduction

**Generated** by `python -m repro.bench --report` — do not hand-edit.
Scale: `{scale}` ({scale_note}).
Substrate: numpy {numpy} on {machine}; GPU times are the calibrated
V100/A100 roofline replay of real kernel traces (see DESIGN.md §2 for why
this preserves the paper's phenomena).  Absolute numbers are therefore
model outputs, not hardware measurements; the reproduction targets are the
paper's *shape claims*, each checked programmatically below.

## Scorecard

| experiment | claims checked | claims held |
|---|---|---|
{scorecard}

"""

SCALE_NOTES = {
    "paper": "the paper's model sizes: Transformer-big, BERT-base/large, "
             "ViT-B/L-32",
    "quick": "shrunken models — same claim structure, exaggerated "
             "launch-bound magnitudes",
}


def write_report(results: Sequence[ExperimentResult],
                 names: Sequence[str], path: str, scale: str) -> None:
    """Write the EXPERIMENTS.md report for completed experiment results."""
    import numpy

    scorecard_rows = []
    sections = []
    for name, res in zip(names, results):
        held = sum(1 for c in res.claims if c.holds)
        scorecard_rows.append(
            f"| {name} ({res.name.split('—')[0].strip()}) "
            f"| {len(res.claims)} | {held} |")
        lines = [f"## {res.name}", ""]
        expectation = PAPER_EXPECTATIONS.get(name)
        if expectation:
            lines += [f"**Paper:** {expectation}", ""]
        lines += ["**Measured:**", "", "```"]
        lines.append(res.format())
        lines += ["```", ""]
        sections.append("\n".join(lines))

    body = HEADER.format(
        scale=scale,
        scale_note=SCALE_NOTES.get(scale, scale),
        numpy=numpy.__version__,
        machine=f"python {platform.python_version()} / "
                f"{platform.machine()}",
        scorecard="\n".join(scorecard_rows),
    ) + "\n".join(sections)
    with open(path, "w") as f:
        f.write(body)
