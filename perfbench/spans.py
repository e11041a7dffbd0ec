"""In-memory span tracer that wraps functions from outside the traced code.

A span records name, start, end, parent span, thread and a work count (for
example the sensor-samples a noise draw produced).  Spans are appended to a
list held by the ``Tracer`` and written out only when the benchmark ends, so
tracing adds no I/O to the measured section.

Self time is a span's duration minus the part of that interval its child
spans cover; children are the spans started on the same thread while it was
open.
"""

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WorkFn = Callable[[tuple, dict, object], int]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    work: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, work: Optional[WorkFn] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._id_lock:
                span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, done = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # A call that raised did no countable work, but its time counts.
                count = 1 if work is None else int(work(args, kwargs, result)) if done else 0
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), count)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, name: str, work: Optional[WorkFn] = None):
        """Replace ``owner.attr`` by a traced wrapper until uninstall()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, work))

    def patch_everywhere(
        self, modules: Sequence[object], fn: Callable, name: str, work: Optional[WorkFn] = None
    ) -> int:
        """Wrap every module-level binding of ``fn`` in ``modules``.

        A function imported with ``from m import f`` is bound in the importing
        module too; patching each binding makes every call site see the same
        wrapper.  Returns the number of bindings patched.
        """
        wrapper = self.wrap(name, fn, work)
        patched = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    patched += 1
        return patched

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_records(self) -> List[dict]:
        return [vars(s).copy() for s in self.spans]


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }

