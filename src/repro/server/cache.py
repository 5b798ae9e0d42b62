"""The versioned, refcounted in-memory summary cache of the server.

The whole point of serving HYDRA summaries from a long-lived process is
that the expensive part of answering a query — loading and validating the
summary JSON, which also fixes every relation's cumulative row offsets
(:class:`~repro.core.summary.RelationSummary` computes them at
construction) — happens **once per summary version**, not once per request;
the per-request :class:`~repro.core.tuplegen.TupleGenerator` objects are
stateless views of it.  :class:`SummaryCache` owns that state:

* entries are keyed by *serving name* and pinned by *content fingerprint*
  (:meth:`~repro.core.summary.DatabaseSummary.fingerprint`), so re-loading
  identical content is a cheap hit and loading different content under an
  existing name is an atomic *version swap*;
* every request takes a :meth:`lease` on the entry it serves.  A swap
  retires the old entry instead of destroying it — retired entries stay
  fully usable until their last lease is released, so an in-flight query
  keeps streaming tuples from the version it started on while new requests
  already see the new one (zero failed requests during a swap);
* ``generation`` counts swaps under a name on this server, so responses can
  tell a client exactly which version answered.

All methods are thread-safe: the HTTP layer serves every connection on its
own thread, so loads, queries and evictions race by design.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..core.summary import DatabaseSummary
from ..telemetry.session import add_counter, set_gauge
from .api import SummaryInfo

__all__ = ["CachedSummary", "SummaryCache", "SummaryNotLoaded"]


class SummaryNotLoaded(KeyError):
    """No summary is currently served under the requested name."""

    def __init__(self, name: str) -> None:
        """Record the missing serving name."""
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        """Human-readable message (KeyError would quote the name only)."""
        return f"no summary loaded under name {self.name!r}"


@dataclass
class CachedSummary:
    """One summary version held by the cache.

    ``leases`` counts in-flight requests pinned to this version; a retired
    entry (superseded by a swap or evicted) is dropped when it reaches zero.
    """

    name: str
    summary: DatabaseSummary
    fingerprint: str
    generation: int
    leases: int = 0
    retired: bool = False

    def info(self, cache_hit: bool = False) -> SummaryInfo:
        """The wire-facing description of this entry."""
        return SummaryInfo(
            name=self.name,
            fingerprint=self.fingerprint,
            summary_version=self.summary.version,
            generation=self.generation,
            relations={
                table: relation.total_rows
                for table, relation in self.summary.relations.items()
            },
            total_rows=self.summary.total_rows(),
            summary_bytes=self.summary.size_bytes(),
            cache_hit=cache_hit,
        )


@dataclass
class SummaryCache:
    """Fingerprint-keyed cache of summaries with lease semantics."""

    _entries: dict[str, CachedSummary] = field(default_factory=dict)
    _retired: list[CachedSummary] = field(default_factory=list)
    _generations: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def load(self, name: str, summary: DatabaseSummary) -> SummaryInfo:
        """Serve ``summary`` under ``name``; hit, first load, or version swap.

        Identical content (same fingerprint) under the same name is a cache
        hit and changes nothing.  Different content retires the currently
        served entry (kept alive while leased) and atomically publishes the
        new one under a bumped generation.  Fingerprinting happens *outside*
        the lock, so concurrent requests keep being served during a load.
        """
        fingerprint = summary.fingerprint()
        with self._lock:
            current = self._entries.get(name)
            if current is not None and current.fingerprint == fingerprint:
                add_counter("server.cache.hits")
                return current.info(cache_hit=True)
            generation = self._generations.get(name, 0) + 1
            self._generations[name] = generation
            entry = CachedSummary(
                name=name,
                summary=summary,
                fingerprint=fingerprint,
                generation=generation,
            )
            if current is not None:
                self._retire_locked(current)
            self._entries[name] = entry
            add_counter("server.cache.misses")
            set_gauge("server.cache.entries", float(len(self._entries)))
            return entry.info(cache_hit=False)

    @contextmanager
    def lease(self, name: str) -> Iterator[CachedSummary]:
        """Pin the currently served version of ``name`` for one request.

        The yielded entry stays fully usable for the whole ``with`` block
        even if a swap or eviction retires it concurrently — retirement
        only drops an entry once its last lease is released.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise SummaryNotLoaded(name)
            entry.leases += 1
        try:
            yield entry
        finally:
            with self._lock:
                entry.leases -= 1
                if entry.retired and entry.leases == 0:
                    self._retired.remove(entry)

    def list_entries(self) -> list[SummaryInfo]:
        """Describe every currently served entry, sorted by name."""
        with self._lock:
            return [
                entry.info() for _, entry in sorted(self._entries.items())
            ]

    def evict(self, name: str) -> bool:
        """Stop serving ``name``; in-flight leases finish undisturbed."""
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                return False
            self._retire_locked(entry)
            set_gauge("server.cache.entries", float(len(self._entries)))
            return True

    def _retire_locked(self, entry: CachedSummary) -> None:
        """Mark an unpublished entry retired (caller holds the lock)."""
        entry.retired = True
        if entry.leases > 0:
            self._retired.append(entry)

    def __len__(self) -> int:
        """Number of currently served (non-retired) entries."""
        with self._lock:
            return len(self._entries)

    @property
    def retired_count(self) -> int:
        """Retired-but-leased entries still alive (observability hook)."""
        with self._lock:
            return len(self._retired)
