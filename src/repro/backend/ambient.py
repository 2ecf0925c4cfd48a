"""Ambient slots: install a value for a block, look up the innermost one.

Kernels find their device and activation arena (§3.3), and the
observability planes find their recorders, without either being passed
through every call.  Each such channel is one :class:`Slot`, declared next
to the code that owns it; DESIGN.md §3 tables all of them.  A channel's
public ``use_*``/``current_*`` names are the slot's own bound methods::

    DEVICE = Slot("device", per_thread=True, default=NULL_DEVICE)
    use_device, current_device = DEVICE.use, DEVICE.current
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Type


class ThreadStack(threading.local):
    """A ``stack`` list private to each thread, created empty on the
    thread's first access."""

    def __init__(self):
        self.stack: List[Any] = []


class Slot:
    """One ambient channel: a stack of installed values, innermost last.

    A ``per_thread`` slot gives every thread its own stack, so a worker
    thread starts with nothing installed.  Otherwise one list is shared by
    all threads and exposed as :attr:`stack`, so a hot-path guard is a
    single truthiness test on it.  :meth:`current` returns the innermost
    value, or ``default`` with nothing installed.  ``refuse_nested`` is the
    exception :meth:`use` raises when a value is already installed.
    """

    def __init__(self, name: str, *, per_thread: bool = False,
                 default: Any = None,
                 refuse_nested: Optional[Type[Exception]] = None):
        self.name = name
        self.per_thread = per_thread
        self.default = default
        self.refuse_nested = refuse_nested
        if per_thread:
            self._store = ThreadStack()
        else:
            self.stack: List[Any] = []
            self._store = self

    def current(self) -> Any:
        """The innermost installed value, or the slot's default."""
        st = self._store.stack
        return st[-1] if st else self.default

    @contextmanager
    def use(self, value: Any) -> Iterator[Any]:
        """Install ``value`` for the dynamic extent of the block."""
        # no lock: append, pop and remove are each one atomic list
        # operation, and the nesting check runs *after* the append, so of
        # two threads racing to install, at most one can pass it
        st = self._store.stack
        st.append(value)
        if self.refuse_nested is not None and len(st) > 1:
            st.remove(value)
            raise self.refuse_nested(
                f"nested {self.name} sessions are not supported")
        try:
            yield value
        finally:
            # a thread's own blocks nest strictly; on a shared list another
            # thread may have installed since, so remove this block's value
            if self.per_thread:
                st.pop()
            else:
                st.remove(value)


#: installed span recorders (:class:`repro.obs.spans.SpanRecorder`).
#: Declared here rather than in ``repro.obs.spans`` because the arena's
#: requesting-site lookup falls back to the innermost open span, and
#: backend modules cannot import ``repro.obs`` while it initialises.
RECORDERS = Slot("recorder")
