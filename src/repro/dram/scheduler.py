"""FR-FCFS scheduling with write-drain watermarks (USIMM-style policy).

Reads have priority; writes are buffered and drained in bursts once the
write queue crosses its high watermark, continuing until the low watermark.
Within a class, First-Ready (row hit) requests go first, ties broken by age
— the classic FR-FCFS policy.

:meth:`FrFcfsScheduler.choose_indexed` decides over two
:class:`BankIndexedPool` structures in O(log queue) amortised: a lazy age
heap answers "oldest request", a lazy row-hit heap answers "oldest request
whose row is open", and per-bank / per-(bank, row) FIFO sub-queues keep
both heaps fed as requests are admitted, scheduled, and banks switch rows.
The O(queue) scan it must agree with decision for decision is
``reference_choose`` in ``tests/oracles.py``.

Index invariants (checked by the randomized cross-test; see also
DESIGN.md "Performance engineering"):

* every live entry is in ``age_heap`` exactly once;
* for every bank whose open row has queued requests, the *oldest* such
  request is in ``hit_heap`` (younger same-row entries need not be — they
  cannot win while their elder lives);
* heaps never contain an entry that predates its FIFO position: stale
  entries (scheduled, or hit entries whose bank moved rows) are flagged
  and skipped lazily at pop time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional

from repro.telemetry import get_registry


class _IndexEntry:
    """One queued request inside a :class:`BankIndexedPool`.

    Wraps the request with the admission stamp used for age tie-breaks and
    the lazy-deletion flags the heaps rely on (``dead`` once scheduled,
    ``in_hit`` while the entry sits in the row-hit heap).
    """

    __slots__ = ("arrival", "stamp", "request", "fb", "row", "row_key", "dead", "in_hit")

    def __init__(self, request, stamp: int):
        self.arrival = request.arrival
        self.stamp = stamp
        self.request = request
        self.fb = request.flat_bank
        self.row = request.row
        self.row_key = (request.flat_bank << 40) | request.row
        self.dead = False
        self.in_hit = False


class BankIndexedPool:
    """Indexed scheduling pool for one channel direction (reads or writes).

    Holds queued requests in per-``flat_bank`` FIFO sub-queues plus
    per-(bank, row) FIFOs, with two lazy heaps over them so the FR-FCFS
    question "oldest row hit, else oldest request" is answered without
    scanning. Requests must expose ``arrival``/``flat_bank``/``row``
    attributes; age ties are broken by admission order (the reference
    scan's first-scanned-wins rule).

    The pool reads the channel's live ``open_rows`` table (shared by
    reference, not copied); the owner must call :meth:`notify_row_change`
    whenever a bank's open row moves so newly-hit FIFO heads enter the
    hit heap.
    """

    __slots__ = (
        "open_rows",
        "by_bank",
        "by_row",
        "age_heap",
        "hit_heap",
        "_by_request",
        "_stamp",
        "_len",
    )

    def __init__(self, open_rows: List[int]):
        self.open_rows = open_rows
        self.by_bank: Dict[int, Deque[_IndexEntry]] = {}
        self.by_row: Dict[int, Deque[_IndexEntry]] = {}
        self.age_heap: List = []
        self.hit_heap: List = []
        self._by_request: Dict[int, _IndexEntry] = {}
        self._stamp = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def add(self, request) -> None:
        """Admit a request (FIFO position = admission order)."""
        self._stamp = stamp = self._stamp + 1
        entry = _IndexEntry(request, stamp)
        self._by_request[id(request)] = entry
        self._len += 1
        heappush(self.age_heap, (entry.arrival, stamp, entry))
        bank_q = self.by_bank.get(entry.fb)
        if bank_q is None:
            self.by_bank[entry.fb] = deque((entry,))
        else:
            bank_q.append(entry)
        row_q = self.by_row.get(entry.row_key)
        if row_q is None:
            self.by_row[entry.row_key] = deque((entry,))
            # New (bank, row) FIFO head: enters the hit heap iff its row
            # is currently open. (A non-empty FIFO already has its head
            # covered — this entry is younger and cannot win yet.)
            if self.open_rows[entry.fb] == entry.row:
                entry.in_hit = True
                heappush(self.hit_heap, (entry.arrival, stamp, entry))
        else:
            row_q.append(entry)

    def remove(self, request) -> None:
        """Retire a request (typically the one just scheduled)."""
        entry = self._by_request.pop(id(request))
        entry.dead = True
        self._len -= 1
        row_q = self.by_row[entry.row_key]
        if row_q[0] is entry:
            row_q.popleft()
            while row_q and row_q[0].dead:
                row_q.popleft()
            if row_q:
                # Successor becomes the (bank, row) head; if the row is
                # open it is now the bank's oldest hit candidate.
                head = row_q[0]
                if not head.in_hit and self.open_rows[head.fb] == head.row:
                    head.in_hit = True
                    heappush(self.hit_heap, (head.arrival, head.stamp, head))
            else:
                del self.by_row[entry.row_key]
        # else: middle removal — purged lazily when elders retire.
        bank_q = self.by_bank[entry.fb]
        if bank_q[0] is entry:
            bank_q.popleft()
            while bank_q and bank_q[0].dead:
                bank_q.popleft()
            if not bank_q:
                del self.by_bank[entry.fb]

    def notify_row_change(self, flat_bank: int, new_row: int) -> None:
        """A bank's open row moved: surface the newly-hit FIFO head.

        Entries that *stopped* being hits are invalidated lazily at
        :meth:`choose` time against the shared ``open_rows`` table.
        """
        row_q = self.by_row.get((flat_bank << 40) | new_row)
        if row_q:
            head = row_q[0]
            if not head.in_hit:
                head.in_hit = True
                heappush(self.hit_heap, (head.arrival, head.stamp, head))

    def bank_head(self, flat_bank: int):
        """Oldest queued request for one bank, or None."""
        bank_q = self.by_bank.get(flat_bank)
        return bank_q[0].request if bank_q else None

    def choose(self):
        """Oldest row hit if any, else oldest request; None when empty.

        Two lazy heap peeks: stale tops (scheduled entries, or hit
        entries whose bank has since moved rows) are popped on the way.
        """
        open_rows = self.open_rows
        hit_heap = self.hit_heap
        while hit_heap:
            entry = hit_heap[0][2]
            if entry.dead:
                heappop(hit_heap)
                continue
            if open_rows[entry.fb] != entry.row:
                # No longer a hit; may re-enter via notify_row_change.
                entry.in_hit = False
                heappop(hit_heap)
                continue
            return entry.request
        age_heap = self.age_heap
        while age_heap:
            entry = age_heap[0][2]
            if entry.dead:
                heappop(age_heap)
                continue
            return entry.request
        return None


class FrFcfsScheduler:
    """Pick the next request for one channel."""

    __slots__ = (
        "drain_high",
        "drain_low",
        "draining",
        "_t_drain_bursts",
        "_t_write_queue_depth",
    )

    def __init__(self, drain_high: int, drain_low: int):
        self.drain_high = drain_high
        self.drain_low = drain_low
        self.draining = False
        registry = get_registry()
        self._t_drain_bursts = registry.counter("dram.write_drain_bursts")
        self._t_write_queue_depth = registry.histogram(
            "dram.write_queue_depth", (0, 1, 2, 4, 8, 16, 32, 64, 128)
        )

    def update_drain_mode(self, write_queue_depth: int, read_queue_depth: int) -> None:
        """Hysteresis: enter drain at HIGH, leave at LOW (or when reads wait)."""
        was_draining = self.draining
        if self.draining:
            if write_queue_depth <= self.drain_low:
                self.draining = False
        else:
            if write_queue_depth >= self.drain_high:
                self.draining = True
        if read_queue_depth == 0 and write_queue_depth > 0:
            # Opportunistic writes when the channel would otherwise idle.
            self.draining = True
        if self.draining and not was_draining:
            self._t_drain_bursts.inc()
            self._t_write_queue_depth.record(write_queue_depth)

    def choose_indexed(
        self,
        read_pool: BankIndexedPool,
        write_pool: BankIndexedPool,
    ) -> Optional[object]:
        """Select the next request from the two pools, or None.

        Drain mode (with its hysteresis side effects) picks the pool;
        within it the (row-hit, oldest) pick resolves by heap peeks
        instead of a scan.
        """
        self.update_drain_mode(len(write_pool), len(read_pool))
        pool = write_pool if (self.draining and len(write_pool)) else read_pool
        if not len(pool):
            pool = write_pool if len(write_pool) else read_pool
        return pool.choose()
