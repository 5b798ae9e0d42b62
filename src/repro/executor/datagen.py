"""The ``datagen`` dynamic-regeneration scan.

The paper adds a ``datagen`` property to PostgreSQL relations: when enabled,
the traditional scan operator is replaced by an operator that produces the
relation's tuples on the fly from the HYDRA summary instead of reading them
from disk.  :class:`DataGenRelation` is the equivalent here — a relation
provider that wraps any *row source* (in practice a
:class:`~repro.core.tuplegen.TupleGenerator`), streams its rows in batches
through an optional :class:`~repro.executor.rate.RateLimiter`, and can also
materialise the relation on request (the per-relation choice offered by the
demo's vendor interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, Sequence, TYPE_CHECKING, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from ..sql.predicates import BoxCondition, columns_with_dependencies
from ..storage.table import TableData
from .rate import RateLimiter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.schema import Table
    from ..core.tuplegen import TupleGenerator
    from ..sql.predicates import Predicate

__all__ = ["RowSource", "DataGenRelation", "ParallelDataGenRelation", "GenerationStats"]


@runtime_checkable
class RowSource(Protocol):
    """The minimal interface a dataless row source must provide."""

    @property
    def row_count(self) -> int:  # pragma: no cover - protocol signature
        ...

    @property
    def column_names(self) -> list[str]:  # pragma: no cover - protocol signature
        ...

    def row(self, index: int) -> tuple:  # pragma: no cover - protocol signature
        ...

    def generate_block(
        self, start: int, count: int, columns: Sequence[str] | None = None
    ) -> dict[str, NDArray[Any]]:  # pragma: no cover - protocol signature
        ...


@dataclass
class GenerationStats:
    """Bookkeeping for one regeneration run (exposed by the demo's UI)."""

    rows_generated: int = 0
    batches: int = 0
    seconds_throttled: float = 0.0


@dataclass
class DataGenRelation:
    """Relation provider that regenerates tuples on demand from a summary."""

    source: RowSource
    rate_limiter: RateLimiter = field(default_factory=RateLimiter.unlimited)
    batch_size: int = 8192
    stats: GenerationStats = field(default_factory=GenerationStats)

    # -- provider protocol -------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.source.row_count

    @property
    def column_names(self) -> list[str]:
        return self.source.column_names

    def row(self, index: int) -> tuple:
        return self.source.row(index)

    # -- bulk interface used by the execution engine -----------------------

    def _effective_batch(self, batch_size: int | None) -> int:
        """The batch size of one stream; a non-positive one could never end."""
        effective = batch_size or self.batch_size
        if effective < 1:
            raise ValueError(f"batch size must be >= 1, got {effective}")
        return effective

    def fetch_columns(
        self, columns: Sequence[str], batch_size: int | None = None
    ) -> dict[str, NDArray[Any]]:
        """Generate the requested columns for the whole relation.

        Generation happens in batches so that the rate limiter can pace the
        stream; the concatenated arrays are returned to the engine.
        """
        effective_batch = self._effective_batch(batch_size)
        pieces: dict[str, list[NDArray[Any]]] = {name: [] for name in columns}
        for start, count, block in self.iter_blocks(effective_batch, columns):
            del start, count
            for name in columns:
                pieces[name].append(block[name])
        # A zero-row relation yields no blocks; ask the source for an empty
        # block so each column keeps its schema dtype instead of collapsing
        # to float64 (which would poison join/key dtypes downstream).
        empty: dict[str, NDArray[Any]] | None = None
        result: dict[str, NDArray[Any]] = {}
        for name, chunks in pieces.items():
            if chunks:
                result[name] = np.concatenate(chunks)
            else:
                if empty is None:
                    empty = self.source.generate_block(0, 0, list(columns))
                result[name] = np.asarray(empty[name])
        return result

    def iter_blocks(
        self, batch_size: int | None = None, columns: Sequence[str] | None = None
    ) -> Iterator[tuple[int, int, dict[str, NDArray[Any]]]]:
        """Yield ``(start, count, columns)`` blocks, honouring the rate limit."""
        effective_batch = self._effective_batch(batch_size)
        total = self.source.row_count
        requested = list(columns) if columns is not None else self.source.column_names
        start = 0
        while start < total:
            count = min(effective_batch, total - start)
            block = self.source.generate_block(start, count, requested)
            self.stats.rows_generated += count
            self.stats.batches += 1
            self.stats.seconds_throttled += self.rate_limiter.throttle(count)
            yield start, count, block
            start += count

    def iter_filtered_blocks(
        self,
        predicate: "Predicate | None" = None,
        box: "BoxCondition | None" = None,
        columns: Sequence[str] | None = None,
        batch_size: int | None = None,
        skip_box: "BoxCondition | None" = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """Stream ``(start, generated, matched, block)`` with only matching rows.

        When the row source understands box conditions (a
        :class:`~repro.core.tuplegen.TupleGenerator`) and ``box`` is given,
        filtering is pushed all the way into tuple generation, which skips
        summary-row segments that cannot match.  Otherwise rows are generated
        batch-by-batch and masked with ``predicate`` (falling back to the box,
        converted to a predicate, when only a box is given).  Either way peak
        memory is bounded by the batch size plus the matching rows, and the
        rate limiter paces the *generated* tuples.

        ``skip_box`` (a semi-join pushdown, see
        :meth:`~repro.core.tuplegen.TupleGenerator.iter_filtered_blocks`) is
        honoured only on the summary-backed path, where segments it excludes
        can be replaced by an exact ``matched`` count without generation; the
        masking fallback ignores it, leaving the consumer to apply it.
        """
        effective_batch = self._effective_batch(batch_size)
        requested = list(columns) if columns is not None else self.source.column_names
        source_filtered = getattr(self.source, "iter_filtered_blocks", None)
        if box is not None and callable(source_filtered):
            for start, generated, matched, block in source_filtered(
                box, batch_size=effective_batch, columns=requested, skip_box=skip_box
            ):
                self.stats.rows_generated += generated
                if generated:
                    self.stats.batches += 1
                    self.stats.seconds_throttled += self.rate_limiter.throttle(generated)
                yield start, generated, matched, block
            return

        condition = predicate
        if condition is None and box is not None:
            condition = box.to_predicate()
        needed = requested
        if condition is not None:
            needed = columns_with_dependencies(requested, condition.columns())
        for start, count, block in self.iter_blocks(effective_batch, needed):
            if condition is None:
                yield start, count, count, {name: block[name] for name in requested}
                continue
            mask = condition.evaluate(block)
            matched = int(mask.sum())
            if matched == count:
                out = {name: block[name] for name in requested}
            else:
                out = {name: block[name][mask] for name in requested}
            yield start, count, matched, out

    def iter_rows(self, batch_size: int | None = None) -> Iterator[tuple]:
        """Stream decodable row tuples (used by examples and the CLI)."""
        names = self.source.column_names
        for start, count, block in self.iter_blocks(batch_size):
            for offset in range(count):
                yield tuple(block[name][offset] for name in names)
            del start

    # -- optional materialisation ------------------------------------------

    def materialize(self, table: "Table") -> TableData:
        """Materialise the full relation into a :class:`TableData`.

        ``table`` is the schema :class:`~repro.catalog.schema.Table` this
        relation instantiates.  This mirrors the demo's per-relation
        "materialise instead of dynamic generation" switch.
        """
        columns = self.fetch_columns(table.column_names)
        return TableData.from_columns(table, columns)


@dataclass
class ParallelDataGenRelation(DataGenRelation):
    """A ``datagen`` relation that regenerates tuples across worker processes.

    Wherever the serial relation would stream blocks from its
    :class:`~repro.core.tuplegen.TupleGenerator`, this subclass instead
    builds a :class:`~repro.parallel.sharding.ShardPlan` over the summary —
    balanced by the tuples each shard will actually generate under the
    pushed-down ``box``/``skip_box`` — and consumes the ordered merge of the
    per-shard worker streams (:func:`~repro.parallel.pool.iter_parallel_blocks`).
    A merged *filtered* stream is yield-for-yield bit-identical to the
    serial one; the unfiltered :meth:`iter_blocks` route delivers identical
    rows in identical order but with segment-anchored block boundaries
    (``stats.batches`` may exceed serial's ``ceil(total/batch)``).  Every
    consumer (engine streaming scans, streaming joins, materialisation)
    works unchanged; only tuple throughput differs.

    Each iteration builds a fresh plan and worker set, torn down when the
    stream ends — cheap under the preferred ``fork`` start method, but a
    per-scan interpreter startup cost under ``spawn``.  ``min_parallel_rows``
    keeps small relations on the serial in-process path.

    Stats and rate limiting happen here in the consuming process, on the
    merged stream: with the relation's own limiter the relation is paced as
    one stream regardless of ``workers``; with a shared limiter
    (``Hydra.regenerate(shared_rate_limiter=True)``) all relations draw from
    one global budget, again measured on merged output.  Workers never sleep
    — backpressure from the bounded queues is what holds them back, so up to
    ``workers × queue_blocks`` batches may be generated ahead of the paced
    stream.

    Falls back to the serial path when ``workers <= 1``, when the row source
    is not a summary-backed :class:`TupleGenerator`, or when the relation is
    smaller than ``min_parallel_rows``.  When only a ``predicate`` (no box)
    is given, the predicate *mask* is applied in the consuming process, but
    the underlying block generation still fans out through the parallel
    :meth:`iter_blocks` — so block starts are segment-anchored there too.
    """

    workers: int = 2
    queue_blocks: int = 8
    mp_context: str | None = None
    #: Relations smaller than this stay serial: worker startup would cost
    #: more than it parallelises.  0 keeps the pool always-on (deterministic
    #: engagement, the right default under ``fork``); raise it on platforms
    #: where only ``spawn`` is available.
    min_parallel_rows: int = 0

    def _parallel_source(self) -> "TupleGenerator | None":
        if self.workers <= 1:
            return None
        if self.source.row_count < self.min_parallel_rows:
            return None
        # Imported lazily: ``repro.core`` imports this module at package
        # init, so a module-level import back into core would be circular.
        from ..core.tuplegen import TupleGenerator

        source = self.source
        if isinstance(source, TupleGenerator):
            return source
        return None

    def _iter_merged(
        self,
        source: "TupleGenerator",
        box: "BoxCondition",
        requested: list[str],
        batch_size: int,
        skip_box: "BoxCondition | None" = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """Shard, fan out, merge — accounting stats and pacing in-parent."""
        from ..parallel.pool import iter_parallel_blocks
        from ..parallel.sharding import ShardPlan

        plan = ShardPlan.build(
            source.summary,
            workers=self.workers,
            batch_size=batch_size,
            box=box,
            skip_box=skip_box,
            pk_column=source.table.primary_key,
            # A chunk must fit in its worker's bounded queue (plus the end
            # marker) for the round-robin drain to fully overlap the lanes.
            # Sized in rows, which equals blocks only while summary segments
            # are >= batch_size: many tiny segments emit one (small) block
            # each, degrading overlap — never correctness or the memory
            # bound, which the queue enforces regardless.
            target_chunk_rows=batch_size * max(1, self.queue_blocks // 2),
        )
        for start, generated, matched, block in iter_parallel_blocks(
            source.table,
            source.summary,
            plan,
            box,
            columns=requested,
            skip_box=skip_box,
            queue_blocks=self.queue_blocks,
            mp_context=self.mp_context,
        ):
            self.stats.rows_generated += generated
            if generated:
                self.stats.batches += 1
                self.stats.seconds_throttled += self.rate_limiter.throttle(generated)
            yield start, generated, matched, block

    def iter_blocks(
        self, batch_size: int | None = None, columns: Sequence[str] | None = None
    ) -> Iterator[tuple[int, int, dict[str, NDArray[Any]]]]:
        source = self._parallel_source()
        if source is None:
            yield from super().iter_blocks(batch_size, columns)
            return
        effective_batch = self._effective_batch(batch_size)
        requested = list(columns) if columns is not None else self.source.column_names
        # An unconstrained box generates every tuple exactly once; batches
        # are anchored per summary segment rather than at offset 0, which
        # only changes block boundaries — concatenated output (what
        # ``fetch_columns``/``materialize``/``iter_rows`` consume) is
        # identical to the serial route.
        for start, generated, _matched, block in self._iter_merged(
            source, BoxCondition({}), requested, effective_batch
        ):
            yield start, generated, block

    def iter_filtered_blocks(
        self,
        predicate: "Predicate | None" = None,
        box: "BoxCondition | None" = None,
        columns: Sequence[str] | None = None,
        batch_size: int | None = None,
        skip_box: "BoxCondition | None" = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        source = self._parallel_source()
        if source is None or box is None:
            yield from super().iter_filtered_blocks(
                predicate=predicate,
                box=box,
                columns=columns,
                batch_size=batch_size,
                skip_box=skip_box,
            )
            return
        effective_batch = self._effective_batch(batch_size)
        requested = list(columns) if columns is not None else self.source.column_names
        yield from self._iter_merged(source, box, requested, effective_batch, skip_box)
