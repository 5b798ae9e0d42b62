"""The ``datagen`` dynamic-regeneration scan.

The paper adds a ``datagen`` property to PostgreSQL relations: when enabled,
the traditional scan operator is replaced by an operator that produces the
relation's tuples on the fly from the HYDRA summary instead of reading them
from disk.  :class:`DataGenRelation` is the equivalent here — the one
dataless relation provider.  It wraps a
:class:`~repro.core.tuplegen.TupleGenerator`, streams its segment-anchored
blocks (in-process, or merged from worker processes when ``workers`` > 1)
through an optional :class:`~repro.executor.rate.RateLimiter`, and can also
materialise the relation on request (the per-relation choice offered by the
demo's vendor interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from ..sql.predicates import BoxCondition, columns_with_dependencies
from ..storage.table import TableData
from .rate import RateLimiter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.schema import Table
    from ..core.tuplegen import TupleGenerator
    from ..sql.predicates import Predicate

__all__ = ["DataGenRelation", "GenerationStats"]


@dataclass
class GenerationStats:
    """Bookkeeping for one regeneration run (exposed by the demo's UI)."""

    rows_generated: int = 0
    batches: int = 0
    seconds_throttled: float = 0.0


@dataclass
class DataGenRelation:
    """Relation provider that regenerates tuples on demand from a summary.

    Every access path below is a view of one stream (:meth:`_stream`), the
    relation's :meth:`~repro.core.tuplegen.TupleGenerator.iter_filtered_blocks`:
    yield-for-yield identical at every ``workers`` count, accounted in
    ``stats`` and paced by ``rate_limiter`` in the consuming process.  With
    ``workers`` > 1 the blocks are regenerated across that many worker
    processes and merged back in serial order — only throughput differs.
    A shared limiter (``Hydra.regenerate(shared_rate_limiter=True)``) budgets
    all relations as one stream, again measured on merged output; workers
    never sleep, the bounded queues hold them back.
    """

    source: "TupleGenerator"
    rate_limiter: RateLimiter = field(default_factory=RateLimiter.unlimited)
    batch_size: int = 8192
    workers: int = 1
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

    # -- the one stream ------------------------------------------------------

    def _stream(
        self,
        box: BoxCondition,
        skip_box: BoxCondition | None,
        columns: Sequence[str] | None,
        batch_size: int | None,
        out: dict[str, NDArray[Any]] | None = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """The relation's block stream under ``box``: accounted, paced, maybe pooled.

        The serial-or-pool choice (:func:`~repro.parallel.pool.pool_plan`)
        is made here, once per stream, and nowhere else.  ``out`` is handed
        to the serial stream, or filled here from the blocks the workers ship.
        """
        # Imported lazily: ``repro.parallel`` imports ``repro.core``, whose
        # package init imports this module.
        from ..parallel.pool import iter_parallel_blocks, pool_plan

        batch = self.batch_size if batch_size is None else batch_size
        source = self.source
        plan = pool_plan(source, self.workers, batch, box, skip_box)
        if plan is None:
            blocks = source.iter_filtered_blocks(box, batch, columns, skip_box, out=out)
        else:
            blocks = iter_parallel_blocks(
                source.table, source.summary, plan, box, columns, skip_box
            )
            if out is not None:
                blocks = _written_into(blocks, out)
        for start, generated, matched, block in blocks:
            self.stats.rows_generated += generated
            if generated:
                self.stats.batches += 1
                self.stats.seconds_throttled += self.rate_limiter.throttle(generated)
            yield start, generated, matched, block

    # -- views of the stream -------------------------------------------------

    def iter_blocks(
        self, batch_size: int | None = None, columns: Sequence[str] | None = None
    ) -> Iterator[tuple[int, int, dict[str, NDArray[Any]]]]:
        """Yield ``(start, count, columns)`` blocks of the unfiltered stream."""
        for start, count, _matched, block in self._stream(
            BoxCondition({}), None, columns, batch_size
        ):
            yield start, count, block

    def iter_filtered_blocks(
        self,
        predicate: "Predicate | None" = None,
        box: BoxCondition | None = None,
        columns: Sequence[str] | None = None,
        batch_size: int | None = None,
        skip_box: BoxCondition | None = None,
        out: dict[str, NDArray[Any]] | None = None,
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """Stream ``(start, generated, matched, block)`` with only matching rows.

        With a ``box`` filtering is pushed all the way into tuple generation,
        which skips summary-row segments that cannot match and replaces the
        segments ``skip_box`` (a semi-join pushdown) excludes by exact
        ``matched`` counts.  With only a ``predicate`` the unfiltered stream
        is masked here and ``skip_box`` is left to the consumer.  Either way
        peak memory is bounded by the batch size plus the matching rows, and
        the rate limiter paces the *generated* tuples.

        ``out`` maps each requested column to an array with room for exactly
        the rows the blocks carry: they are written into it consecutively and
        each yielded block is the view just written
        (:meth:`~repro.core.tuplegen.TupleGenerator.iter_filtered_blocks`),
        whichever way the stream was generated.
        """
        if box is not None or predicate is None:
            unfiltered = BoxCondition({}) if box is None else box
            yield from self._stream(unfiltered, skip_box, columns, batch_size, out)
            return
        requested = list(columns) if columns is not None else self.column_names
        masked = self._masked(predicate, requested, batch_size)
        yield from masked if out is None else _written_into(masked, out)

    def _masked(
        self, predicate: "Predicate", requested: list[str], batch_size: int | None
    ) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
        """The unfiltered stream masked by ``predicate``, reduced to ``requested``."""
        needed = columns_with_dependencies(requested, predicate.columns())
        for start, count, _matched, block in self._stream(
            BoxCondition({}), None, needed, batch_size
        ):
            mask = predicate.evaluate(block)
            matched = int(mask.sum())
            if matched < count:
                block = {name: block[name][mask] for name in requested}
            yield start, count, matched, {name: block[name] for name in requested}

    def fetch_columns(
        self, columns: Sequence[str], batch_size: int | None = None
    ) -> dict[str, NDArray[Any]]:
        """Generate the requested columns for the whole relation.

        Each column is allocated once, in its schema dtype, and the unfiltered
        stream is generated straight into it.
        """
        table = self.source.table
        out = {
            name: np.empty(self.row_count, dtype=table.column(name).dtype.numpy_dtype)
            for name in columns
        }
        for _block in self._stream(BoxCondition({}), None, columns, batch_size, out):
            pass
        return out

    def materialize(self, table: "Table") -> TableData:
        """Materialise the full relation into a :class:`TableData`.

        ``table`` is the schema :class:`~repro.catalog.schema.Table` this
        relation instantiates.  This mirrors the demo's per-relation
        "materialise instead of dynamic generation" switch.
        """
        return TableData.from_columns(table, self.fetch_columns(table.column_names))


def _written_into(
    blocks: Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]],
    out: dict[str, NDArray[Any]],
) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
    """``blocks`` with their rows copied into ``out`` consecutively, yielding the views."""
    written = 0
    for start, generated, matched, block in blocks:
        if block:
            rows = len(next(iter(block.values())))
            view = {name: out[name][written : written + rows] for name in block}
            for name, values in view.items():
                values[...] = block[name]
            block, written = view, written + rows
        yield start, generated, matched, block
