"""Scoped simulation contexts: the execution-state container for one run.

Before this module existed the simulator leaned on *process-global* mutable
state — the telemetry registry stack, the event tracer, the runner's
trace/warm/cell memos, the workload generator's raw-word consumption hints,
and the execution-stats collector. That was fine while exactly one
simulation ran per process, but it is what forced the experiment service
down to a single worker thread: two concurrent simulations would interleave
registries, cross-pollinate memos and race on counters.

A :class:`SimContext` owns all of that state as instance attributes. The
*current* context is resolved through a :class:`contextvars.ContextVar`,
which gives exactly the isolation semantics the service needs:

* threads (and asyncio tasks) that never enter a context share the single
  process-default context — byte-for-byte the pre-context behaviour, so the
  CLI, the tests and every existing entry point are unaffected;
* a thread that enters :func:`sim_context` (or :func:`activate`) sees its
  own registry stack, tracer, memos and stats for the duration, invisible
  to every other thread — two simulations can now run concurrently in one
  process without sharing any mutable simulator state.

What deliberately stays process-wide (documented in DESIGN.md under
"Execution contexts & the concurrency model"): the telemetry *collection
enable* flag, the execution-policy defaults (``REPRO_JOBS`` /
``REPRO_CACHE``), the sanitizer switch, and the on-disk run cache (whose
writes are atomic-rename, hence concurrency-safe). None of those are
mutated per simulation.

This module imports nothing from the rest of ``repro`` — consumer modules
(``telemetry.registry``/``trace``/``aggregate``, ``parallel.instrument``,
``sim.runner``, ``workloads.generator``) lazily materialise their slice of
the context, which keeps the import graph acyclic.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Byte budget for the per-context cell-result memo. Serialized cells are a
#: few KiB of JSON, so this retains thousands of cells while bounding a
#: long-lived service process.
DEFAULT_RUN_MEMO_BYTES = 32 * 1024 * 1024


class BoundedBytesMemo:
    """A string-to-string LRU memo bounded by approximate byte size.

    Sizes are approximated as ``len(key) + len(value)`` (the values are
    ASCII-dominated JSON, so characters ~ bytes). ``put`` evicts from the
    least-recently-used end until the budget holds and returns how many
    entries were evicted, so callers can count evictions into their stats.
    A budget of 0 disables the memo entirely (every ``get`` misses).
    """

    __slots__ = ("max_bytes", "used_bytes", "evictions", "_entries")

    def __init__(self, max_bytes: int = DEFAULT_RUN_MEMO_BYTES) -> None:
        self.max_bytes = max(0, int(max_bytes))
        self.used_bytes = 0
        #: Lifetime eviction count (mirrors ``exec.memo_evictions``).
        self.evictions = 0
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[str]:
        """The memoised value (refreshing its recency), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: str) -> int:
        """Store ``key -> value``; returns the number of entries evicted."""
        if self.max_bytes <= 0:
            return 0
        size = len(key) + len(value)
        if size > self.max_bytes:
            # A single over-budget entry can never be retained; storing it
            # would immediately evict everything including itself.
            return 0
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.used_bytes -= len(key) + len(previous)
        self._entries[key] = value
        self.used_bytes += size
        evicted = 0
        while self.used_bytes > self.max_bytes and self._entries:
            old_key, old_value = self._entries.popitem(last=False)
            self.used_bytes -= len(old_key) + len(old_value)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop every entry (eviction counters are lifetime, kept)."""
        self._entries.clear()
        self.used_bytes = 0


class SimContext:
    """Everything one simulation scope owns that used to be process-global.

    Attributes start empty/None and are materialised lazily by the modules
    that own each concern (keeping this module import-free):

    * ``registry_stack`` — ``telemetry.registry``'s scope stack; the bottom
      entry is the scope-default registry.
    * ``tracer`` — ``telemetry.trace``'s :class:`EventTracer`.
    * ``stats`` — ``parallel.instrument``'s :class:`ExecutionStats`.
    * ``aggregate`` — ``telemetry.aggregate``'s :class:`TelemetryAggregate`.
    * ``trace_memo`` / ``warm_memo`` — ``sim.runner``'s generated-trace and
      post-warmup-cache memos (bounded by wholesale clearing, as before).
    * ``run_memo`` — the cell-result memo (the memory level of
      ``sim.runner.CellStore``), LRU-by-bytes bounded.
    * ``words_hint`` — ``workloads.generator``'s exact raw-word consumption
      hints, formerly an unbounded shared module dict.
    """

    __slots__ = (
        "name",
        "registry_stack",
        "tracer",
        "stats",
        "aggregate",
        "trace_memo",
        "warm_memo",
        "run_memo",
        "words_hint",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.registry_stack: List[Any] = []
        self.tracer: Optional[Any] = None
        self.stats: Optional[Any] = None
        self.aggregate: Optional[Any] = None
        self.trace_memo: Dict[Tuple[object, ...], Any] = {}
        self.warm_memo: Dict[Tuple[object, ...], Any] = {}
        self.run_memo = BoundedBytesMemo()
        self.words_hint: Dict[Tuple[object, ...], int] = {}

    def clear_memos(self) -> None:
        """Drop every perf-only memo (results are never observable in them)."""
        self.trace_memo.clear()
        self.warm_memo.clear()
        self.run_memo.clear()
        self.words_hint.clear()

    def owns(self, container: object) -> bool:
        """Whether ``container`` is one of this context's owned values.

        Identity comparison against every slot (and each entry of the
        registry stack) — the check the sanitizer's owner-context rule
        uses to prove a memo/registry mutation is landing in the scope
        that created it, not leaking across workers.
        """
        for value in (
            self.registry_stack,
            self.tracer,
            self.stats,
            self.aggregate,
            self.trace_memo,
            self.warm_memo,
            self.run_memo,
            self.words_hint,
        ):
            if container is value:
                return True
        return any(container is entry for entry in self.registry_stack)

    def __repr__(self) -> str:
        return "SimContext(%r)" % (self.name or "anonymous",)


#: The process-default context: shared by every thread that never enters a
#: scope, exactly like the module-global state it replaced.
_DEFAULT = SimContext(name="process-default")

_CURRENT: "ContextVar[Optional[SimContext]]" = ContextVar(
    "repro_sim_context", default=None
)


def default_context() -> SimContext:
    """The shared process-default context."""
    return _DEFAULT


def current_context() -> SimContext:
    """The active context: the innermost activated one, else the default."""
    return _CURRENT.get() or _DEFAULT


@contextlib.contextmanager
def activate(context: SimContext) -> Iterator[SimContext]:
    """Make ``context`` the current context for the duration of the block.

    Scopes nest, and — because the backing store is a ``ContextVar`` — an
    activation is visible only to the activating thread (or asyncio task),
    never to its siblings. The service's worker pool reuses one long-lived
    context per worker slot through this entry point, so a worker keeps its
    memos warm across jobs while staying invisible to the other workers.
    """
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def sim_context(name: str = "") -> Iterator[SimContext]:
    """Enter a *fresh* :class:`SimContext` for the duration of the block.

    The common one-shot form of :func:`activate`: everything the block
    simulates records into (and memoises through) the new context, which is
    garbage once the block exits.
    """
    with activate(SimContext(name=name)) as context:
        yield context
