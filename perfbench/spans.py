"""In-memory span tracer and the wrappers that feed it.

A span is one call into a layer: ``(name, start, end, parent)``. Spans nest
strictly (the benchmark traces one thread), so a stack is enough to know
each span's parent. A layer's *self time* is its spans' durations minus
the part of each span that its child spans cover; the root span's self
time is the ``unattributed`` remainder, so the self times of all layers
plus ``unattributed`` equal the root span's duration exactly.

Hot layers (one call per cache miss or per scheduling epoch) run hundreds
of thousands of times per batch, so every span is folded into per-name
totals as it closes; only spans opened with ``keep=True`` are also kept
verbatim in :attr:`Tracer.spans`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One kept span: (name, start, end, parent name or None).
Span = Tuple[str, float, float, Optional[str]]


class Tracer:
    """Stack-based span recorder with per-name self/total time and calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans: [name, start, seconds covered by children, keep]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: named counts recorded at layer boundaries (requests, epochs, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Span] = []

    def begin(self, name: str, keep: bool = False) -> None:
        self._stack.append([name, self.clock(), 0.0, keep])

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = self.clock()
        name, start, covered, keep = self._stack.pop()
        duration = now - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = None
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[0]
        if keep:
            self.spans.append((name, start, now, parent))
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


@contextlib.contextmanager
def span(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    """A kept span around the block; nothing when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    tracer.begin(name, keep=True)
    try:
        yield
    finally:
        tracer.end()


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    keep: bool = False,
    on_return: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``on_return(result, args)`` sees each call."""
    begin = tracer.begin
    end = tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            end()
        if on_return is not None:
            on_return(result, args)
        return result

    return wrapper


_INHERITED = object()


class Patches:
    """Attribute replacements on classes/modules, undone in reverse order.

    Wrappers go on the *class* (or module), never on instances: the
    simulator binds some methods once at construction, and
    ``SecureTimingEngine`` has ``__slots__``, so instance attributes can
    be neither added nor relied on. Install before the objects are built.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        # The raw ``__dict__`` entry (a plain function, not a bound method)
        # is what restore puts back; an inherited attribute is deleted.
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def wrap(
        self,
        tracer: Tracer,
        owner: object,
        attr: str,
        name: str,
        keep: bool = False,
        on_return: Optional[Callable] = None,
    ) -> None:
        original = getattr(owner, attr)
        self.replace(owner, attr, traced(tracer, name, original, keep, on_return))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

