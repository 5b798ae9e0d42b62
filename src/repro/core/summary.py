"""The memory-resident database summary — HYDRA's central artefact.

A summary is "minuscule": per relation it stores one row per region of the
LP solution, and each summary row carries

* ``#TUPLES`` — how many tuples share the row's value vector (exactly the
  ``#TUPLES`` column of the paper's Figure 4);
* a representative value for every non-key attribute;
* for every foreign-key attribute, the union of referenced primary-key
  *index intervals* the tuples of this row may point to (the deterministic
  alignment made these contiguous per referenced region).

Primary keys are not stored at all — they are emitted as auto-numbers during
regeneration, as the paper describes.  The summary is JSON-serialisable, and
its serialised size is the "few KB" metric of experiment E1.

A relation's rows are a fixed tuple, so the cumulative pk offsets every
consumer grounds against are computed once, at construction.  A summary read
back from disk or the wire is validated once, in
:meth:`DatabaseSummary.from_dict` / ``from_json`` / ``load``: anything
malformed raises :class:`~repro.core.errors.SummaryError` (``malformed
database summary at <field>: …``), never a raw parse exception.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Schema, Table
from ..serialization import JsonDocument
from ..sql.predicates import BoxCondition, Interval, IntervalSet, Predicate
from .columns import SummaryColumns
from .errors import SummaryError

__all__ = [
    "FKReference",
    "SummaryRow",
    "RelationSummary",
    "DatabaseSummary",
    "fill_run",
]

#: ``0, 1, 2, …``: an arithmetic run is this plus its first term.
_IOTA = np.arange(8192, dtype=np.int64)
_IOTA.flags.writeable = False


def fill_run(out: NDArray[Any], first: int) -> None:
    """``out[j] = first + j`` in place: chunks of :data:`_IOTA` added into ``out``, no temporary."""
    for done in range(0, len(out), len(_IOTA)):
        chunk = out[done : done + len(_IOTA)]
        np.add(_IOTA[: len(chunk)], first + done, out=chunk)


@dataclass(frozen=True)
class FKReference:
    """Admissible referenced-pk index intervals for one foreign-key column.

    Target position ``p`` (the round-robin order) is the ``p``-th integer of
    ``intervals``.  Every method reads one flattened form of that order,
    derived on first use and cached (:attr:`flat`, which the summary's
    column view concatenates): it is not part of ``==``, ``repr``,
    :meth:`to_dict` or a pickle.
    """

    ref_table: str
    intervals: IntervalSet

    def __getstate__(self) -> dict[str, Any]:
        return {"ref_table": self.ref_table, "intervals": self.intervals}

    @cached_property
    def flat(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(starts, bounds)`` over the intervals holding an integer.

        Piece ``i`` holds target positions ``[bounds[i], bounds[i + 1])``, the
        first of them being pk index ``starts[i]``; ``bounds[-1]`` is the
        target count.  ``ValueError`` for an unbounded interval.
        """
        pieces = [interval for interval in self.intervals if interval.count_integers()]
        starts = tuple(math.ceil(piece.low) for piece in pieces)
        bounds = tuple(accumulate((piece.count_integers() for piece in pieces), initial=0))
        return starts, bounds

    def target_count(self) -> int:
        """Number of distinct referenced pk indices available."""
        return self.flat[1][-1]

    def _positive_count(self) -> int:
        total = self.target_count()
        if total <= 0:
            raise SummaryError(
                f"foreign-key reference to {self.ref_table!r} has no admissible target"
            )
        return total

    def kth_target(self, k: int) -> int:
        """The k-th admissible referenced pk index (0-based, round-robin).

        The scalar reference :meth:`fill_targets` vectorises.
        """
        k = int(k) % self._positive_count()
        starts, bounds = self.flat
        i = bisect.bisect_right(bounds, k) - 1
        return starts[i] + k - bounds[i]

    def fill_targets(self, out: NDArray[Any], offset: int) -> None:
        """``out[j] = kth_target(offset + j)`` for every cell of ``out``, in place.

        Consecutive offsets walk the flattened order, so the first
        ``min(len(out), total)`` cells are at most ``#intervals + 1``
        arithmetic runs (:func:`fill_run`); the cells after them repeat those
        with period ``total``.
        """
        total = self._positive_count()
        starts, bounds = self.flat
        size, k = len(out), int(offset) % total
        head = min(size, total)
        i = bisect.bisect_right(bounds, k) - 1
        done = 0
        while done < head:
            run = min(bounds[i + 1] - k, head - done)
            first = starts[i] + k - bounds[i]
            fill_run(out[done : done + run], first)
            done += run
            i = (i + 1) % len(starts)
            k = bounds[i]
        while done < size:  # done is a multiple of total: copy doubling prefixes
            step = min(done, size - done)
            out[done : done + step] = out[:step]
            done += step

    def to_dict(self) -> dict[str, Any]:
        return {"ref_table": self.ref_table, "intervals": self.intervals.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FKReference":
        return cls(
            ref_table=payload["ref_table"],
            intervals=IntervalSet.from_dict(payload["intervals"]),
        )


@dataclass(frozen=True)
class SummaryRow:
    """One region's contribution to a relation summary.

    Read-only, down to its mappings: a changed row is a new row, so the
    column view a :class:`RelationSummary` derives from its rows cannot go
    stale.  Pickles as plain dicts.
    """

    count: int
    values: Mapping[str, float] = field(default_factory=dict)
    fk_refs: Mapping[str, FKReference] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        object.__setattr__(self, "fk_refs", MappingProxyType(dict(self.fk_refs)))

    def __reduce__(self) -> tuple[Any, ...]:
        return SummaryRow, (self.count, dict(self.values), dict(self.fk_refs))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "values": dict(self.values),
            "fk_refs": {column: ref.to_dict() for column, ref in self.fk_refs.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SummaryRow":
        return cls(
            count=int(payload["count"]),
            values={column: float(value) for column, value in payload.get("values", {}).items()},
            fk_refs={
                column: FKReference.from_dict(item)
                for column, item in payload.get("fk_refs", {}).items()
            },
        )


@dataclass
class RelationSummary:
    """Summary of one relation: an ordered, fixed sequence of read-only summary rows.

    ``rows`` is stored as a tuple of frozen :class:`SummaryRow`, so the
    cumulative pk offsets that back :meth:`locate` (computed at
    construction) and the column view every count of a box reads
    (derived on first use, dropped when pickled) cannot go stale: a
    different row is a different :class:`RelationSummary`.
    """

    table: str
    rows: Sequence[SummaryRow] = ()

    def __post_init__(self) -> None:
        self.rows = tuple(self.rows)
        #: Cumulative pk offsets: row ``i`` covers ``[offsets[i], offsets[i + 1])``.
        self.cumulative_offsets: NDArray[Any] = np.cumsum(
            [0] + [max(0, int(row.count)) for row in self.rows]
        )

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("columns", None)
        return state

    @cached_property
    def columns(self) -> SummaryColumns:
        """The column view of :attr:`rows` (derived on first use, dropped when pickled)."""
        return SummaryColumns(self.rows, self.cumulative_offsets)

    @property
    def total_rows(self) -> int:
        return int(self.cumulative_offsets[-1])

    @property
    def row_offsets(self) -> NDArray[Any]:
        """Starting pk index of each summary row (deterministic alignment)."""
        return self.cumulative_offsets[:-1]

    def locate(self, index: int) -> tuple[int, int]:
        """Map a pk index to ``(summary_row_position, offset_within_row)``."""
        cumulative = self.cumulative_offsets
        if not 0 <= index < int(cumulative[-1]):
            raise IndexError(f"row index {index} out of range for {self.table!r}")
        position = int(np.searchsorted(cumulative, index, side="right")) - 1
        return position, index - int(cumulative[position])

    def pk_interval_of_row(self, position: int) -> tuple[int, int]:
        """The ``[start, end)`` pk index interval covered by one summary row."""
        cumulative = self.cumulative_offsets
        return int(cumulative[position]), int(cumulative[position + 1])

    # -- predicate pushdown support ----------------------------------------

    def segments(self, rows: NDArray[np.bool_]) -> list[Interval]:
        """The pk segments of the non-empty ``rows``, adjacent ones merged into runs."""
        offsets = self.cumulative_offsets
        positions = (rows & (self.columns.counts > 0)).nonzero()[0]
        if not len(positions):
            return []
        lows, highs = offsets[positions], offsets[positions + 1]
        gaps = lows[1:] != highs[:-1]  # a run ends where the next segment does not touch it
        starts, ends = np.concatenate(([True], gaps)), np.concatenate((gaps, [True]))
        return list(map(Interval, lows[starts].tolist(), highs[ends].tolist()))

    def decided_box(self, predicate: Predicate, table: Table) -> BoxCondition | None:
        """``predicate`` over this summary's tuples as an exact pk-range box.

        Every tuple of a summary row carries the row's value-column
        constants, so a filter reading only value columns has one verdict per
        row.  The predicate is evaluated once, over the column view: the
        values generation writes (``row.values`` with its 0.0 default, cast
        to the column's dtype as :meth:`TupleGenerator._fill_segment
        <repro.core.tuplegen.TupleGenerator._fill_segment>` assigns it), and
        the pk ranges of the passing rows are *exactly* the matching tuples.

        ``None`` when the table has no primary key or the predicate reads no
        column, the primary key, a foreign-key column of any row or a column
        the table does not have — the block stream then masks with the
        predicate (and raises for the unknown column).
        """
        pk = table.primary_key
        columns = predicate.columns()
        if (
            pk is None
            or not columns
            or pk in columns
            or not all(table.has_column(column) for column in columns)
            or not columns.isdisjoint(self.columns.fk_columns)
        ):
            return None
        block = {
            column: self.columns.value(column).astype(table.column(column).dtype.numpy_dtype)
            for column in columns
        }
        return BoxCondition({pk: IntervalSet(self.segments(predicate.evaluate(block)))})

    def excluded(self, box: BoxCondition, pk_column: str | None = None) -> NDArray[np.bool_]:
        """The rows no tuple of which can satisfy ``box``, as one mask.

        The check the filtered block stream uses to skip whole summary-row
        segments without generating a tuple
        (:meth:`SummaryColumns.excluded <repro.core.columns.SummaryColumns.excluded>`).
        """
        if box.is_empty:
            return np.ones(len(self.rows), dtype=bool)
        if not box.conditions:  # the unfiltered stream never builds the column view
            return np.zeros(len(self.rows), dtype=bool)
        return self.columns.excluded(box, pk_column)

    def count_matching(self, box: BoxCondition, pk_column: str | None = None) -> int | None:
        """Exact number of regenerated tuples satisfying ``box`` — or ``None``.

        Answered purely from the summary in O(#summary rows): the total of
        the box's :meth:`SummaryColumns.fold
        <repro.core.columns.SummaryColumns.fold>`, ``None`` when a run of it
        is not exactly countable.
        """
        folded = self.columns.fold(box, pk_column, {}, None)
        return int(folded.total[0]) if folded.exact else None

    def matching_pk_intervals(self, box: BoxCondition, pk_column: str | None = None) -> IntervalSet:
        """Pk *index* intervals whose tuples may satisfy ``box``.

        The merged pk runs of the box's fold that carry weight (the
        deterministic alignment assigns each summary row the pk range
        :meth:`pk_interval_of_row`).  A sound *superset*: a run a spread
        matches partially is kept whole, because the matching offsets are
        scattered by the round-robin and do not form a pk range.
        """
        return IntervalSet(self.columns.fold(box, pk_column, {}, None).ranges())

    def to_dict(self) -> dict[str, Any]:
        return {"table": self.table, "rows": [row.to_dict() for row in self.rows]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RelationSummary":
        return cls(
            table=payload["table"],
            rows=[SummaryRow.from_dict(item) for item in payload.get("rows", [])],
        )


@dataclass
class DatabaseSummary(JsonDocument):
    """The complete database summary: one relation summary per table.

    ``version`` counts the summary's maintenance generations: a from-scratch
    build is version 1 and every incremental :meth:`splice` (the
    ``Hydra.extend_summary`` delta path) bumps it by one, so downstream
    consumers can tell refreshed artefacts apart.  ``extension_state`` is the
    vendor-side bookkeeping (base workload plus per-relation partition
    inputs) that lets a later session resume incremental maintenance from the
    serialised summary alone; it is excluded from :meth:`size_bytes` because
    it is never part of the artefact shipped back to the client.
    """

    schema: Schema
    relations: dict[str, RelationSummary] = field(default_factory=dict)
    build_info: dict[str, Any] = field(default_factory=dict)
    version: int = 1
    extension_state: dict[str, Any] | None = None

    def relation(self, name: str) -> RelationSummary:
        """The summary of one relation (:class:`SummaryError` when absent)."""
        if name not in self.relations:
            raise SummaryError(f"summary has no relation {name!r}")
        return self.relations[name]

    def add_relation(self, summary: RelationSummary) -> None:
        """Attach (or replace) one relation summary under its table name."""
        self.relations[summary.table] = summary

    def splice(self, replacements: Mapping[str, RelationSummary]) -> "DatabaseSummary":
        """A new summary with the given relation summaries swapped in.

        Relation order (and hence every untouched relation's regenerated
        tuple stream) is preserved; untouched :class:`RelationSummary`
        objects are shared with this summary, which is what makes the
        incremental-maintenance guarantee "untouched relations stay
        bit-identical" trivial.  ``version`` is bumped by one; replacement
        names must already exist.
        """
        unknown = sorted(set(replacements) - set(self.relations))
        if unknown:
            raise SummaryError(
                "cannot splice unknown relation(s): " + ", ".join(map(repr, unknown))
            )
        for name, replacement in replacements.items():
            if replacement.table != name:
                raise SummaryError(
                    f"replacement for {name!r} summarises {replacement.table!r}"
                )
        return DatabaseSummary(
            schema=self.schema,
            relations={
                name: replacements.get(name, relation)
                for name, relation in self.relations.items()
            },
            build_info=dict(self.build_info),
            version=self.version + 1,
        )

    def row_count(self, name: str) -> int:
        """Number of tuples relation ``name`` regenerates."""
        return self.relation(name).total_rows

    def total_rows(self) -> int:
        """Total regenerable tuples across all relations."""
        return sum(summary.total_rows for summary in self.relations.values())

    def total_summary_rows(self) -> int:
        """Total stored summary rows (the artefact's actual size driver)."""
        return sum(len(summary.rows) for summary in self.relations.values())

    def validate(self) -> None:
        """Check structural consistency against the schema."""
        for name, summary in self.relations.items():
            table: Table = self.schema.table(name)
            pk = table.primary_key
            fk_columns = table.foreign_key_columns
            for row in summary.rows:
                for column in row.values:
                    if not table.has_column(column):
                        raise SummaryError(
                            f"summary of {name!r} mentions unknown column {column!r}"
                        )
                    if column == pk:
                        raise SummaryError(
                            f"summary of {name!r} stores the primary key {column!r}; "
                            "primary keys must be auto-numbered"
                        )
                for column, ref in row.fk_refs.items():
                    if column not in fk_columns:
                        raise SummaryError(
                            f"summary of {name!r} has an FK reference on non-FK "
                            f"column {column!r}"
                        )
                    fk = table.foreign_key_for(column)
                    if fk is not None and fk.ref_table != ref.ref_table:
                        raise SummaryError(
                            f"summary of {name!r} points {column!r} at "
                            f"{ref.ref_table!r}, schema says {fk.ref_table!r}"
                        )

    # -- size accounting (the "few KB" claim) ------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "schema": self.schema.to_dict(),
            "relations": {
                name: summary.to_dict() for name, summary in self.relations.items()
            },
            "build_info": self.build_info,
            "version": int(self.version),
        }
        if self.extension_state is not None:
            payload["extension_state"] = self.extension_state
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatabaseSummary":
        """Parse a summary payload, validating it once, here.

        A summary arrives from disk or the wire: a missing key or a value of
        the wrong type raises :class:`SummaryError` naming the offending
        field instead of leaking a raw exception from deep inside the parse.
        So does a foreign-key reference that could not generate: an
        unbounded interval, or no admissible target on a row with tuples.
        So does a value generation would not write as stored: a non-finite
        one, or a non-integral one on a discrete column (generation would
        truncate it, and the summary route would count the stored value).
        """
        where = "<document>"
        try:
            if not isinstance(payload, Mapping):
                raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
            where = "schema"
            schema = Schema.from_dict(payload[where])
            relations = {}
            where = "relations"
            for name, item in payload.get(where, {}).items():
                where = f"relations[{name!r}]"
                relation = relations[name] = RelationSummary.from_dict(item)
                table = schema.table(name)
                if relation.table != table.name:
                    raise ValueError(f"summarises {relation.table!r}")
                discrete = {column.name for column in table.columns if column.dtype.is_discrete}
                for position, row in enumerate(relation.rows):
                    for column, value in row.values.items():
                        where = f"relations[{name!r}].rows[{position}].values[{column!r}]"
                        if not math.isfinite(value):
                            raise ValueError(f"non-finite value {value!r}")
                        if column in discrete and not value.is_integer():
                            raise ValueError(f"non-integral value {value!r} on a discrete column")
                    for column, ref in row.fk_refs.items():
                        where = f"relations[{name!r}].rows[{position}].fk_refs[{column!r}]"
                        if ref.target_count() == 0 < row.count:
                            raise ValueError(f"no admissible target for {row.count} tuples")
            where = "build_info"
            build_info = dict(payload.get(where, {}))
            where = "version"
            version = int(payload.get(where, 1))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise SummaryError(f"malformed database summary at {where}: {exc!r}") from exc
        return cls(
            schema=schema,
            relations=relations,
            build_info=build_info,
            version=version,
            extension_state=payload.get("extension_state"),
        )

    @classmethod
    def from_json(cls, text: str) -> "DatabaseSummary":
        """Parse summary JSON (:class:`SummaryError` when it is not JSON)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SummaryError(f"malformed database summary at <document>: {exc}") from exc
        return cls.from_dict(payload)

    def size_bytes(self, include_schema: bool = False) -> int:
        """Serialised size of the summary (excluding the schema by default).

        Vendor-side ``extension_state`` bookkeeping never counts: the paper's
        "few KB" metric is about the artefact that regenerates data.
        """
        payload = self.to_dict()
        excluded = {"extension_state"} | (set() if include_schema else {"schema"})
        payload = {key: value for key, value in payload.items() if key not in excluded}
        return len(json.dumps(payload).encode("utf-8"))

    def fingerprint(self) -> str:
        """Content hash identifying the regeneration-relevant summary state.

        The sha256 hex digest of the canonical JSON serialisation of the
        schema, every relation's summary rows and ``version`` — exactly what
        determines the regenerated tuple streams.  Descriptive
        ``build_info`` (which records wall-clock timings, so two builds of
        the same summary would differ) and vendor-side ``extension_state``
        are excluded: rebuilding an identical summary yields an identical
        fingerprint.  Exports record this value in their ``MANIFEST.json``
        so ``hydra verify --against`` can pin an export directory to the
        summary content that produced it.
        """
        payload = self.to_dict()
        payload.pop("extension_state", None)
        payload.pop("build_info", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
