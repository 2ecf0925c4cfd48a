"""In-memory spans recorded by the benchmark around its calls into each layer.

The program's own ``repro.obs.spans`` recorder is one of the things this
benchmark measures, so the ladder keeps its own: a span is ``(name, start,
end, parent, step_id)``, held in a list and written out once at exit.  A
layer's *self time* is its span's duration minus the part of that interval
its direct child spans cover; the self time of the ``step`` span is the glue
no child span accounts for (``trace.residual_share``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

#: name of the per-step root span every traced step driver opens.
STEP = "step"


class SpanLog:
    """Append-only span list; spans nest through a simple open-span stack."""

    def __init__(self) -> None:
        # [name, start_s, end_s, parent_index or None, step_id or None]
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, step_id: Optional[int] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if step_id is None and parent is not None:
            step_id = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, step_id])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in recording order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self, under: Optional[str] = None) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children).

        With ``under``, only spans called ``under`` and their descendants
        count — their self times then sum to the ``under`` spans' total.
        """
        covered = defaultdict(float)
        inside: List[bool] = []         # parents precede children in the list
        for name, start, end, parent, _step in self.spans:
            if parent is not None:
                covered[parent] += end - start
            inside.append(under is None or name == under
                          or (parent is not None and inside[parent]))
        out: Dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _step) in enumerate(self.spans):
            if inside[idx]:
                out[name] += (end - start) - covered[idx]
        return dict(out)

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": s - t0, "end_s": e - t0,
                 "parent": p, "step_id": sid}
                for n, s, e, p, sid in self.spans]
        with open(path, "w") as f:
            json.dump({"schema": "benchmarks.ladder.trace/v1",
                       "self_seconds": self.self_seconds(),
                       "spans": rows}, f)
            f.write("\n")


class _NoLog:
    """Span sink for untraced steps: every span is a no-op."""

    def span(self, name: str, step_id: Optional[int] = None):
        return nullcontext()


NO_LOG = _NoLog()
