"""Vectorised execution engine for SPJ plans.

The engine plays two roles in the reproduction of HYDRA:

* at the **client site** it executes the workload over the materialised
  customer database and records each operator's output cardinality — this is
  how Annotated Query Plans are produced;
* at the **vendor site** it executes the very same plans over the regenerated
  (dataless or materialised) database so that volumetric similarity can be
  verified, and it is the harness inside which the ``datagen`` dynamic
  regeneration scan operator runs.

Execution is column-vectorised: every operator consumes and produces a block
of NumPy column arrays keyed by qualified ``table.column`` names.  The engine
reads every relation through the one entry point of the
:class:`~repro.storage.database.RelationProvider` protocol,
``iter_filtered_blocks``: a
:class:`~repro.storage.database.MaterializedRelation` answers with one masked
block, the dataless :class:`~repro.executor.datagen.DataGenRelation` with its
regenerated segments — the paper's ``datagen`` swaps the scan and nothing
above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NoReturn, TYPE_CHECKING, cast

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Schema, Table
from ..plans.joingraph import classify_fk_edge
from ..plans.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    leaf_scan,
)
from ..plans.planner import compute_pushdowns, exact_predicate_box
from ..sql.predicates import BoxCondition, IntervalSet
from ..sql.query import DisjunctiveJoinCondition, JoinCondition
from ..storage.database import Database, RelationProvider
from ..telemetry.session import add_counter, is_active, span
from .datagen import DataGenRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.columns import Prefix
    from ..core.summary import RelationSummary

__all__ = ["ExecutionResult", "ExecutionEngine", "ExecutorError", "RouteEvent"]

#: Rows per block a dataless leaf streams through its filter.
BATCH_SIZE = 65536


class ExecutorError(RuntimeError):
    """Raised when a plan cannot be executed against the given database."""


@dataclass(frozen=True)
class RouteEvent:
    """One routing decision made during a plan execution.

    Pure reporting — no caller can request a route.  ``kind`` is the
    decision point (``"aggregate"`` for the summary route vs executing the
    child plan, ``"join"`` for a probe side streamed from a dataless leaf vs
    one held as a single block); ``route`` is the route taken; ``reason``
    explains *why* the faster route was not taken (``None`` when it was).
    The same names feed the
    ``engine.route.<kind>.<route>`` and ``engine.fallback.<kind>.<reason>``
    telemetry counters; docs/OBSERVABILITY.md lists every value.
    """

    kind: str
    route: str
    reason: str | None = None


@dataclass
class ExecutionResult:
    """Output block of a plan execution.

    ``route_events`` is the ordered list of routing decisions the engine
    made; :attr:`aggregate_route` and :attr:`fallback_reasons` are thin
    views over it.  ``aggregate_route`` records how a top-level aggregate
    was answered: ``"summary"`` when it was served from the relation
    summaries without generating tuples, ``"streaming"`` when the child
    plan was executed, and ``None`` when the plan has no aggregate root.
    """

    columns: dict[str, NDArray[Any]]
    row_count: int
    scanned_rows: int = 0
    route_events: list[RouteEvent] = field(default_factory=list)

    @property
    def aggregate_route(self) -> str | None:
        """How the top-level aggregate was answered (view over route events)."""
        for event in reversed(self.route_events):
            if event.kind == "aggregate":
                return event.route
        return None

    @property
    def fallback_reasons(self) -> list[str]:
        """Why fast paths were not taken, in decision order."""
        return [event.reason for event in self.route_events if event.reason is not None]

    def column(self, name: str) -> NDArray[Any]:
        if name in self.columns:
            return self.columns[name]
        matches = [key for key in self.columns if key.endswith("." + name)]
        if len(matches) == 1:
            return self.columns[matches[0]]
        if matches:
            raise KeyError(
                f"column {name!r} is ambiguous in result, "
                f"candidates: {sorted(matches)}"
            )
        raise KeyError(f"result has no column {name!r}")

    def rows(self, limit: int | None = None) -> list[tuple[Any, ...]]:
        count = self.row_count if limit is None else min(limit, self.row_count)
        names = list(self.columns)
        return [tuple(self.columns[name][i] for name in names) for i in range(count)]


@dataclass
class _Block:
    """Internal intermediate result: qualified column arrays + row count.

    Block arrays are never written after the block is returned; the
    operator that allocated them may compact them first.  A join passes a
    probe batch whose every row finds one partner through uncopied, so one
    array can be shared by several blocks.
    """

    columns: dict[str, NDArray[Any]]
    row_count: int


class _Bail(Exception):
    """A fast-path attempt was abandoned; ``reason`` is the catalogued why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Leaf:
    """A leaf access path (scan, optionally under its own filter), resolved.

    Everything the routes observe about a leaf, derived once per
    ``execute``: ``summary`` is the relation summary behind a dataless
    provider (``None`` for a materialised one), ``box`` the pushed filter as
    an *exactly equivalent* box — unconstrained without a filter, the
    filter's own box when it is exact, and over a dataless provider
    otherwise the pk ranges of the summary rows the filter passes
    (:meth:`~repro.core.summary.RelationSummary.decided_box`).  ``None``
    only when neither exists (a non-box filter over a materialised relation,
    or one reading a pk or FK column): the block stream then masks with the
    original predicate and the summary route does not apply.
    """

    scan: ScanNode
    filter: FilterNode | None
    table: Table
    provider: RelationProvider
    summary: "RelationSummary | None"
    box: BoxCondition | None

    @cached_property
    def exact_rows(self) -> int | None:
        """The rows the leaf outputs, when its summary counts them exactly.

        The relation's row count without a filter, the summary count of
        ``box`` with one
        (:meth:`~repro.core.summary.RelationSummary.count_matching`);
        ``None`` for a materialised provider or an inexact count.
        """
        if self.summary is None or self.box is None:
            return None
        if self.filter is None:
            return self.provider.row_count
        return self.summary.count_matching(self.box, pk_column=self.table.primary_key)


@dataclass
class ExecutionEngine:
    """Executes plan trees over a :class:`Database`.

    The route is a function of what the engine observes — nothing a caller
    sets.  Whether a relation is attached materialised or dataless
    (``Hydra.regenerate(materialize=...)``) is the only selector a user has:

    * every leaf (a scan, with the filter sitting directly on it fused in)
      is read as the provider's filtered block stream and produces only the
      columns referenced upstream; a dataless relation streams
      batch-by-batch through the predicate, so peak memory is bounded by the
      batch size plus the matching rows — written once, straight into
      output columns of the exact size, when the summary counts them — a
      materialised one is one block;
    * every join — equi or disjunctive — is one build/probe operator.  With
      a dataless leaf input the side with the smaller summary cardinality is
      the build table, the other side streams through it
      (``join:streaming``), and semi-join FK pushdown skips probe summary
      segments that cannot join — except when the leaf is joined on its own
      primary key above a join result with no more rows than that result:
      the leaf is then the build table and the already-executed left block
      probes it as one batch (``join:keyed``); without a dataless leaf the
      left input probes as a single block (``join:materializing`` /
      ``no-streamable-leaf``).  A single build key that is strictly
      increasing (a unique key, observed from the data) is probed by
      position instead of by sort-merge — by subtraction when it is also
      contiguous — and a probe streamed onto the unfiltered primary-key leaf
      its foreign key references writes its rows in place
      (:meth:`_execute_join`);
    * ``COUNT``, ``SUM`` and ``AVG`` over a summary-backed relation or a
      left-deep tree of key/foreign-key joins of such relations are answered
      from the relation summaries by one bottom-up fold over the FK tree
      (O(#summary rows) per table; a sum owned by any table of the tree,
      folded exactly and rounded once) whenever every pushed filter is an
      exact box the summaries can count; otherwise the child plan runs.
      A filter reading only value columns always is one: without an exact
      box of its own it is decided once per summary row into a pk-range box
      (:class:`_Leaf`), which the streaming route also uses to skip segments.

    Every executed node is annotated in place with its output cardinality
    (``PlanNode.cardinality``) — that is how the client extracts AQPs and
    how the vendor verifies them.  Every route leaves every annotation and
    every output block bit-identical; :attr:`ExecutionResult.route_events`
    reports which ran and why a faster one did not.  The differential
    fuzzer checks the summary route against the same summary regenerated
    and materialised, which shares no block stream with it.

    Parallel regeneration is transparent to the engine: a
    :class:`~repro.executor.datagen.DataGenRelation` delivers the same
    stream, yield for yield, at every worker count, so results, row order,
    ``scanned_rows`` and annotations do not depend on it.
    """

    database: Database
    _scanned_rows: int = field(default=0, init=False)
    _route_events: list[RouteEvent] = field(default_factory=list, init=False)
    _plan: PlanNode = field(init=False, repr=False)
    _outputs: dict[int, tuple[str, ...] | None] | None = field(default=None, init=False)
    _leaves: dict[int, _Leaf] = field(default_factory=dict, init=False)
    _edges: dict[int, tuple[str, str, str, str] | None] = field(default_factory=dict, init=False)

    @property
    def schema(self) -> Schema:
        return self.database.schema

    # -- public API ------------------------------------------------------

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Execute a plan, annotating node cardinalities in place."""
        self._scanned_rows = 0
        self._route_events = []
        self._plan = plan
        self._outputs = None
        self._leaves = {}
        self._edges = {}
        with span("engine.execute") as execute_span:
            block = self._execute_node(plan)
            if is_active() and self._route_events:
                execute_span.annotate(
                    routes=[f"{event.kind}:{event.route}" for event in self._route_events],
                    fallback_reasons=[
                        event.reason for event in self._route_events if event.reason
                    ],
                )
        return ExecutionResult(
            columns=block.columns,
            row_count=block.row_count,
            scanned_rows=self._scanned_rows,
            route_events=list(self._route_events),
        )

    # -- route accounting --------------------------------------------------

    def _record_route(self, kind: str, route: str, reason: str | None = None) -> None:
        """Record one routing decision (result view + telemetry counters)."""
        self._route_events.append(RouteEvent(kind=kind, route=route, reason=reason))
        add_counter(f"engine.route.{kind}.{route}")
        if reason is not None:
            add_counter(f"engine.fallback.{kind}.{reason}")

    def _fallback(self, reason: str) -> NoReturn:
        """Abandon the current fast-path attempt.

        ``reason`` travels with the :class:`_Bail` to the operator that made
        the attempt (``_execute_aggregate``), which records it on the route
        event of the route it takes instead.
        """
        raise _Bail(reason)

    # -- what the routes observe -------------------------------------------

    def _leaf(self, node: PlanNode) -> _Leaf | None:
        """The resolved leaf access path rooted at ``node``, if it is one."""
        leaf = self._leaves.get(node.node_id)
        if leaf is None:
            pair = leaf_scan(node)
            if pair is None:
                return None
            scan, filter_node = pair
            table = self.schema.table(scan.table)
            provider = self.database.provider(scan.table)
            if not hasattr(provider, "iter_filtered_blocks"):
                raise ExecutorError(
                    f"relation {table.name!r} is attached as a {type(provider).__name__}, "
                    "which has no iter_filtered_blocks block stream for the engine to read"
                )
            summary = (
                provider.source.summary if isinstance(provider, DataGenRelation) else None
            )
            box: BoxCondition | None = BoxCondition({})
            if filter_node is not None:
                box = exact_predicate_box(filter_node.predicate, table)
                if box is None and summary is not None:
                    box = summary.decided_box(filter_node.predicate, table)
                    if box is not None:
                        add_counter("engine.leaf.decided")
            leaf = self._leaves[node.node_id] = _Leaf(
                scan=scan,
                filter=filter_node,
                table=table,
                provider=provider,
                summary=summary,
                box=box,
            )
        return leaf

    def _output_columns(self, leaf: _Leaf) -> list[str]:
        """The columns that must survive past the leaf's own filter.

        The plan's pushdowns are derived on first use: a plan the summaries
        answer never asks.
        """
        if self._outputs is None:
            self._outputs = compute_pushdowns(self._plan, self.schema)
        selection = self._outputs[leaf.scan.node_id]
        return leaf.table.column_names if selection is None else list(selection)

    def _edge(self, node: JoinNode) -> tuple[str, str, str, str] | None:
        """The join's ``(fk_table, fk_column, ref_table, ref_column)``, ``None`` off an FK edge.

        :func:`~repro.plans.joingraph.classify_fk_edge`, resolved on first
        use and kept for the rest of the ``execute``: every route reads this
        one answer.
        """
        if node.node_id not in self._edges:
            self._edges[node.node_id] = classify_fk_edge(node.condition, self.schema)
        return self._edges[node.node_id]

    # -- node dispatch ---------------------------------------------------

    def _execute_node(self, node: PlanNode) -> _Block:
        leaf = self._leaf(node)
        if leaf is not None:
            block = self._execute_leaf(leaf)
        elif isinstance(node, FilterNode):
            block = self._execute_filter(node)
        elif isinstance(node, JoinNode):
            block = self._execute_join(node)
        elif isinstance(node, ProjectNode):
            block = self._execute_project(node)
        elif isinstance(node, AggregateNode):
            block = self._execute_aggregate(node)
        else:
            raise ExecutorError(f"unsupported plan node {type(node).__name__}")
        node.cardinality = block.row_count
        return block

    # -- leaves ------------------------------------------------------------

    def _stream_leaf(
        self,
        leaf: _Leaf,
        skip_box: BoxCondition | None = None,
        out: dict[str, NDArray[Any]] | None = None,
    ) -> Iterator[tuple[int, dict[str, NDArray[Any]]]]:
        """The one leaf access path: ``(rows, qualified columns)`` per block.

        Reads the provider's filtered block stream — the segments of a
        dataless relation, the single masked block of a materialised one —
        and yields the rows passing the leaf's own filter, reduced to the
        columns referenced upstream.  ``skip_box`` is a semi-join box of the
        join above: rows outside it are dropped (whole summary segments
        without generating a tuple) yet still counted for the filter.  Once
        exhausted the scan is annotated with the full relation cardinality
        and the filter with its exact match count, i.e. the annotations of
        an unfused filter over a full scan.  ``out`` (a dataless leaf's,
        :meth:`_leaf_columns`) receives the rows, each yielded block being
        the view of it just written.
        """
        matched_total = 0
        arguments: dict[str, Any] = {} if out is None else {"out": out}
        for _start, generated, matched, block in leaf.provider.iter_filtered_blocks(
            predicate=None if leaf.filter is None else leaf.filter.predicate,
            box=leaf.box,
            columns=self._output_columns(leaf),
            batch_size=BATCH_SIZE,
            skip_box=skip_box,
            **arguments,
        ):
            self._scanned_rows += generated
            matched_total += matched
            if not generated:
                # Semi-join-skipped segment: only its exact filter count
                # matters; none of its rows can produce a join partner.
                continue
            if skip_box is not None:
                mask = skip_box.evaluate(block)
                if not mask.all():
                    matched = int(mask.sum())
                    block = {name: values[mask] for name, values in block.items()}
            yield matched, _qualified(leaf.table, block)
        leaf.scan.cardinality = leaf.provider.row_count
        if leaf.filter is not None:
            leaf.filter.cardinality = matched_total

    def _leaf_columns(self, leaf: _Leaf, rows: int) -> dict[str, NDArray[Any]]:
        """Unqualified output columns of a leaf with room for ``rows``, in the schema dtypes."""
        return {
            name: np.empty(rows, dtype=leaf.table.column(name).dtype.numpy_dtype)
            for name in self._output_columns(leaf)
        }

    def _execute_leaf(self, leaf: _Leaf) -> _Block:
        """Scan, or fused filter+scan, of any provider.

        A dataless leaf whose output rows the summary counts exactly
        (:attr:`_Leaf.exact_rows`) streams straight into its output columns,
        allocated once at that size (``engine.output.in_place``); any other
        leaf gathers its stream.
        """
        rows = leaf.exact_rows
        if rows is not None:
            out = self._leaf_columns(leaf, rows)
            for _block in self._stream_leaf(leaf, out=out):
                pass
            _record_output(None)
            return _Block(_qualified(leaf.table, out), rows)
        if leaf.summary is not None:
            _record_output("count-not-exact")
        row_count = 0
        chunks = []
        for count, block in self._stream_leaf(leaf):
            row_count += count
            chunks.append(block)
        template = _qualified(leaf.table, self._leaf_columns(leaf, 0))
        return _Block(_gathered(template, chunks), row_count)

    # -- filters ----------------------------------------------------------

    def _execute_filter(self, node: FilterNode) -> _Block:
        child = self._execute_node(node.child)
        prefix = node.table + "."
        local = {
            name[len(prefix):]: values
            for name, values in child.columns.items()
            if name.startswith(prefix)
        }
        if not local:
            raise ExecutorError(
                f"filter on table {node.table!r} but its columns are absent from the input"
            )
        mask = node.predicate.evaluate(local)
        columns = {name: values[mask] for name, values in child.columns.items()}
        return _Block(columns=columns, row_count=int(mask.sum()))

    # -- joins -------------------------------------------------------------

    @staticmethod
    def _estimated_rows(leaf: _Leaf) -> int:
        """Summary-estimated output rows of a leaf (exact when computable)."""
        rows = leaf.exact_rows
        return leaf.provider.row_count if rows is None else rows

    def _choose_probe(self, node: JoinNode) -> tuple[_Leaf | None, bool, _Block | None]:
        """``(streaming probe leaf, probe is the left input, left block)`` of a join.

        An input streams when it is the leaf access path of a dataless
        relation; with two candidates the one with the larger summary
        cardinality streams and the smaller becomes the build table
        (``join:streaming``, recorded once the stream is drained).  Without a
        candidate the left input is the single-block probe
        (``join:materializing``).  A left input that is not a leaf is
        executed here, as either route needs it whole; when the right input
        is then a dataless leaf joined on its own primary key (:meth:`_edge`)
        with no more estimated rows than that block has, the leaf is the
        build side and the block probes it as one batch (``join:keyed``,
        every upper join of a left-deep FK chain) — streaming the leaf would
        argsort the block twice.  A larger leaf still streams, so peak
        memory stays O(block + batch + output).  The left block is returned whenever it
        was executed (``None`` while it streams).
        """
        left_leaf = self._leaf(node.left)
        left, right = (
            leaf if leaf is not None and leaf.summary is not None else None
            for leaf in (left_leaf, self._leaf(node.right))
        )
        if left is not None:
            if right is None or self._estimated_rows(left) >= self._estimated_rows(right):
                return left, True, None
        if right is None:
            self._record_route("join", "materializing", "no-streamable-leaf")
            return None, True, self._execute_node(node.left)
        block = self._execute_node(node.left)
        if left_leaf is None and self._estimated_rows(right) <= block.row_count:
            edge = self._edge(node)
            if edge is not None and edge[2] == right.table.name:
                self._record_route("join", "keyed")
                return None, True, block
        return right, False, block

    def _execute_join(self, node: JoinNode) -> _Block:
        """The one join: build a key table, probe it batch by batch.

        The probe batches are the block stream of a dataless leaf input
        (:meth:`_choose_probe`), so the probe relation is never held whole,
        and a probe on the foreign-key side of the join's edge skips whole
        summary segments outside the semi-join box the join builds from the
        referenced side (:meth:`_semijoin_box`) — or, when no input streams,
        the single executed block of the left input.  The other input is
        executed and each of its key columns prepared once
        (:class:`_BuildKey`: sorted, or kept as it is when strictly
        increasing).  An equi-join has one key pair, a disjunctive join one
        per alternative (:func:`_index_pairs`); output rows are ordered by
        left row, each left row's partners by right row, whichever side
        probed.  A probe batch whose every row finds exactly one partner is
        passed through uncopied.

        Peak memory is O(build + output + batch) — plus, when the probe
        writes in place, the probe leaf's matching rows: when the build is
        the unfiltered primary-key leaf the probe's foreign key references
        (:meth:`_gathered_reason`), every probe row has at most one partner,
        so the probe leaf's exact row count bounds the output and the
        stream writes into probe columns allocated once at that size; the
        join keeps a write cursor into them and moves each batch's paired
        rows down to it (nothing to move when the batch passes through at
        the cursor).  Any other streamed probe gathers its paired rows per
        batch and concatenates them once.
        """
        probe, probe_is_left, left = self._choose_probe(node)
        batches: Iterable[tuple[int, dict[str, NDArray[Any]]]]
        if probe is None:
            assert left is not None  # executed by _choose_probe unless it streams
            batches = [(left.row_count, left.columns)]
            template = {name: values[:0] for name, values in left.columns.items()}
        else:
            template = _qualified(probe.table, self._leaf_columns(probe, 0))
        if probe_is_left:
            build = self._execute_node(node.right)
        else:
            assert left is not None
            build = left
        # (probe key, build key) per alternative, resolved in left/right orientation.
        if probe_is_left:
            keys = _join_keys(node.condition, template, build.columns)
        else:
            keys = [pair[::-1] for pair in _join_keys(node.condition, build.columns, template)]
        build_keys = [
            _BuildKey.of(build.columns[build_key], template[probe_key].dtype)
            for probe_key, build_key in keys
        ]
        out: dict[str, NDArray[Any]] | None = None
        if probe is not None:
            semijoin = self._semijoin_box(node, probe, node.right if probe_is_left else node.left)
            reason = self._gathered_reason(node, probe, probe_is_left, build_keys, semijoin)
            if reason is None:
                out = self._leaf_columns(probe, cast(int, probe.exact_rows))
            _record_output(reason)
            batches = self._stream_leaf(probe, semijoin, out)

        probe_keys = [probe_key for probe_key, _build_key in keys]
        build_indices: NDArray[Any] | None
        build_side: dict[str, NDArray[Any]] | None = None
        if out is None:
            probe_chunks: list[dict[str, NDArray[Any]]] = []
            index_chunks: list[NDArray[Any]] = []
            for _rows, batch in batches:
                selector, build_idx = _index_pairs(
                    [batch[name] for name in probe_keys], build_keys, build.row_count
                )
                if len(build_idx):
                    probe_chunks.append(
                        batch
                        if selector is None
                        else {name: values[selector] for name, values in batch.items()}
                    )
                    index_chunks.append(build_idx)
            build_indices = (
                np.concatenate(index_chunks) if index_chunks else np.empty(0, dtype=np.int64)
            )
            probe_side = _gathered(template, probe_chunks)
            row_count = len(build_indices)
        else:
            probe_side, build_indices, build_side = _paired_in_place(
                batches,
                probe_keys,
                build_keys,
                build,
                _qualified(cast(_Leaf, probe).table, out),
                gather_build=probe_is_left,
            )
            row_count = len(probe_side[probe_keys[0]])
        if probe is not None:
            self._record_route("join", "streaming")

        if not probe_is_left:
            # Output is ordered by left (here: build) row, each left row's
            # matches in probe order; a stable sort on the accumulated build
            # indices restores exactly that order.
            assert build_indices is not None  # only a left probe gathers its build side
            perm = np.argsort(build_indices, kind="stable")
            build_indices = build_indices[perm]
            probe_side = {name: values[perm] for name, values in probe_side.items()}
        if build_side is None:
            build_side = {name: values[build_indices] for name, values in build.columns.items()}
        columns = {**probe_side, **build_side} if probe_is_left else {**build_side, **probe_side}
        return _Block(columns=columns, row_count=int(row_count))

    def _semijoin_box(
        self, node: JoinNode, probe: _Leaf, build_input: PlanNode
    ) -> BoxCondition | None:
        """The box a probe streamed on the FK side of the join's edge may skip outside.

        ``{fk_column: matching pk intervals}`` of the referenced table's
        leaf in the build input — its box, exact or decided (:class:`_Leaf`),
        projected onto the pk index space
        (:meth:`~repro.core.summary.RelationSummary.matching_pk_intervals`).
        Probe summary segments whose admissible FK targets all fall outside
        it are skipped without generating a tuple, and generated probe rows
        outside it are masked before the probe: either way no join partner
        exists for them, since the projection is a sound superset of the
        referenced pks reaching the build side.  Only the join directly
        above the probe leaf builds one: a box borrowed from a later join
        would change this join's output and annotation.  ``None`` off an FK
        edge, for a probe on the referenced side, without a summary-backed
        referenced leaf with a box, and when the box covers every
        referenced pk (FK targets are valid pks by construction, so it
        could skip nothing).
        """
        edge = self._edge(node)
        if edge is None or edge[0] != probe.table.name:
            return None
        _fk_table, fk_column, ref_table, ref_column = edge
        ref = next(
            (
                self._leaf(candidate)
                for candidate in build_input.iter_nodes()
                if (pair := leaf_scan(candidate)) is not None and pair[0].table == ref_table
            ),
            None,
        )
        if ref is None or ref.summary is None or ref.box is None:
            return None
        intervals = ref.summary.matching_pk_intervals(ref.box, pk_column=ref_column)
        total = ref.summary.total_rows
        if total > 0 and intervals.count_integers() == total:
            return None  # every referenced pk is reachable
        return BoxCondition({fk_column: intervals})

    def _gathered_reason(
        self,
        node: JoinNode,
        probe: _Leaf,
        probe_is_left: bool,
        build_keys: "list[_BuildKey]",
        semijoin: BoxCondition | None,
    ) -> str | None:
        """Why a streamed probe gathers its paired rows (``None``: it writes in place).

        In place needs every probe row to have at most one partner and the
        output bounded by the probe leaf's exact row count without wasting
        memory on rows that cannot pair: the build side is the primary-key
        leaf the probe's foreign key references (:meth:`_edge`), observed
        unique, unfiltered and not skipping probe segments.
        """
        build = self._leaf(node.right if probe_is_left else node.left)
        edge = self._edge(node)
        if (
            build is None
            or edge is None
            or (edge[0], edge[2]) != (probe.table.name, build.table.name)
            or build_keys[0].order is not None
        ):
            return "several-partners"
        if build.filter is not None:
            return "build-filtered"
        if semijoin is not None:
            return "semijoin-skip"
        if probe.exact_rows is None:
            return "count-not-exact"
        return None

    # -- projection / aggregation -----------------------------------------

    def _resolve_output_column(self, block: _Block, name: str) -> str:
        if name in block.columns:
            return name
        matches = [key for key in block.columns if key.endswith("." + name)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ExecutorError(f"projection column {name!r} not found")
        raise ExecutorError(f"projection column {name!r} is ambiguous: {matches}")

    def _execute_project(self, node: ProjectNode) -> _Block:
        child = self._execute_node(node.child)
        columns: dict[str, NDArray[Any]] = {}
        for name in node.columns:
            resolved = self._resolve_output_column(child, name)
            columns[resolved] = child.columns[resolved]
        return _Block(columns=columns, row_count=child.row_count)

    def _execute_aggregate(self, node: AggregateNode) -> _Block:
        """``COUNT`` / ``SUM`` / ``AVG``: from the summaries, else over the child."""
        counting = node.function == "count"
        if node.function not in ("count", "sum", "avg"):
            raise ExecutorError(f"unsupported aggregate {node.function!r}")
        if not counting and node.argument is None:
            raise ExecutorError(f"aggregate {node.function!r} requires a column argument")
        answer: tuple[int, float] | None = None
        reason: str | None = None
        try:
            answer = self._summary_aggregate(node)
        except _Bail as bail:
            reason = bail.reason
        if answer is None:
            child = self._execute_node(node.child)
            total = 0.0
            if not counting:
                resolved = self._resolve_output_column(child, cast(str, node.argument))
                values = np.asarray(child.columns[resolved], dtype=np.float64)
                total = math.fsum(values.tolist())
            answer = child.row_count, total
        self._record_route("aggregate", "summary" if reason is None else "streaming", reason)
        count, total = answer
        if counting:
            result: NDArray[Any] = np.asarray([count], dtype=np.int64)
        elif node.function == "sum":
            result = np.asarray([total], dtype=np.float64)
        else:
            result = np.asarray([total / count if count else 0.0], dtype=np.float64)
        return _Block(columns={node.function: result}, row_count=1)

    def _summary_aggregate(self, node: AggregateNode) -> tuple[int, float]:
        """``(count, sum)`` of an aggregate straight from the relation summaries.

        Applies to ``COUNT``, ``SUM`` and ``AVG`` over a left-deep FK–PK join
        tree — a single leaf is its zero-join case — of leaf access paths of
        summary-backed dataless relations, every join condition on a schema
        foreign-key edge onto the referenced primary key (:meth:`_edge`), the
        edges an out-tree from one referencing root (the one table no edge
        references, whatever its place in ``FROM``) and every pushed filter an
        exact box.  One bottom-up fold over the tree, the semi-join reduction,
        answers every node: each table's :class:`~repro.core.columns.Prefix`
        weighs its tuples matching its own box whose every FK joins a weighed
        tuple below (:meth:`~repro.core.columns.SummaryColumns.fold`), a join
        counts its FK root's weight over its prefix of the spine and a leaf's
        filter its own fold with nothing joined.  A ``SUM``/``AVG`` owned below
        the root weighs the owner's tuples by one unit vector per owner row
        (every weight is as wide as the owner's summary), owned by the root
        per run of its rows; either is folded exactly and rounded once
        (:func:`_exact_sum`) — :func:`math.fsum` over the streamed column.
        O(#summary rows) per table, times the owner's rows on the path from
        a weighed owner; no tuple generated.  Bails when a step is not
        exactly countable, else annotates every leaf and join node with the
        cardinalities execution would give.
        """
        spine: list[JoinNode] = []
        anchor = node.child
        while isinstance(anchor, JoinNode):
            spine.append(anchor)
            anchor = anchor.left
        spine.reverse()
        first = self._leaf(anchor)
        if first is None:
            self._fallback("no-leaf-scan")
        leaves = {first.scan.table: first}
        for join in spine:
            leaf = self._leaf(join.right)
            if leaf is None or leaf.scan.table in leaves:
                self._fallback("join-shape-unsupported")
            leaves[leaf.scan.table] = leaf
        edges: list[tuple[str, str, str, str]] = []
        for join in spine:
            edge = self._edge(join)
            if edge is None or not set(edge[::2]) <= set(leaves):
                self._fallback("non-fk-join")
            edges.append(edge)
        summaries: dict[str, RelationSummary] = {}
        boxes: dict[str, BoxCondition] = {}
        for name, leaf in leaves.items():
            if leaf.summary is None:
                self._fallback("not-summary-backed")
            if leaf.box is None:
                self._fallback("predicate-not-box")
            summaries[name], boxes[name] = leaf.summary, leaf.box

        counting = node.function == "count"
        weighed: str | None = None  # a SUM's owner below the root: one unit weight per row
        children: dict[str, list[tuple[str, str]]] = {}
        folds: dict[tuple[Any, ...], Prefix] = {}

        def fold(name: str, pks: IntervalSet | None) -> tuple[tuple[Any, ...], Prefix]:
            """``name``'s prefix over its subtree so far, folded once per plan and subtree."""
            leaf, box = leaves[name], boxes[name]
            if pks is not None:
                box = box.with_condition(cast(str, leaf.table.primary_key), pks)
            key: tuple[Any, ...] = (name, pks, name == weighed)
            refs: dict[str, Prefix] = {}
            for column, target in children.get(name, ()):
                below, refs[column] = fold(target, box.conditions.get(column))
                key += (below,)
            if key not in folds:
                view = summaries[name].columns
                weights = np.eye(len(view.counts), dtype=np.int64) if name == weighed else None
                folded = view.fold(box, leaf.table.primary_key, refs, weights)
                if not folded.exact:
                    self._fallback("summary-not-exact")
                folds[key] = folded
            return key, folds[key]

        # Filter annotations: each table's tuples matching its own box only.
        filter_counts = {name: int(fold(name, None)[1].total.sum()) for name in leaves}
        # Each join adds a table at one end of its edge, the other end joined
        # already and referenced by no earlier edge: the root moves up when
        # the new table references it.
        place = {name: index for index, name in enumerate(leaves)}
        roots, referenced = [first.scan.table], set[str]()
        for index, (fk_table, _fk_column, ref_table, _ref_column) in enumerate(edges):
            low, high = sorted((place[fk_table], place[ref_table]))
            if high != index + 1 or low == high or ref_table in referenced:
                self._fallback("join-not-exactly-countable")
            referenced.add(ref_table)
            roots.append(fk_table if ref_table == roots[-1] else roots[-1])

        join_counts: list[int] = []
        for index, (fk_table, fk_column, ref_table, _ref_column) in enumerate(edges):
            children.setdefault(fk_table, []).append((fk_column, ref_table))
            if counting or index + 1 < len(edges):
                join_counts.append(int(fold(roots[index + 1], None)[1].total.sum()))
        total = 0.0
        if not counting:
            prefix, _, column = (node.argument or "").rpartition(".")
            owners = [
                name
                for name, leaf in leaves.items()
                if prefix in ("", name) and leaf.table.has_column(column)
            ]
            if len(owners) != 1:
                self._fallback("argument-not-resolvable")
            (owner,) = owners
            root, view = roots[-1], summaries[owner].columns
            on_pk = column == leaves[owner].table.primary_key
            if on_pk and owner != root:
                self._fallback("fk-argument-not-summable")  # the joined pks are FK targets
            values, spread = view.value(column), view.spread(column)
            if owner == root:  # the joined tuples per run of the root's own rows
                rooted = fold(root, None)[1]
                values, spread, joined = values[rooted.row], spread[rooted.row], rooted.gained[:, 0]
            else:  # the joined tuples per owner row, carried up to the root
                weighed = owner
                joined = fold(root, None)[1].total
            hit = joined != 0
            if on_pk:
                if rooted.scattered:
                    self._fallback("pk-scattered-by-fk")
                total = _exact_sum({1.0: IntervalSet(rooted.ranges()).sum_integers()})
            elif spread[hit].any():
                self._fallback("fk-argument-not-summable")  # targets vary per tuple
            else:
                total = _exact_sum(_weights(values[hit], joined[hit]))
            join_counts.append(int(joined.sum()))
        del fold  # it calls itself: free its folds now, not at the next cycle collection

        for name, leaf in leaves.items():
            leaf.scan.cardinality = leaf.provider.row_count
            if leaf.filter is not None:
                leaf.filter.cardinality = filter_counts[name]
        for join, joined_count in zip(spine, join_counts):
            join.cardinality = joined_count
        return (join_counts[-1] if spine else filter_counts[roots[0]]), total


def _weights(values: NDArray[Any], counts: NDArray[Any]) -> dict[float, int]:
    """``{value: total count}`` over parallel per-row arrays: :func:`_exact_sum`'s terms."""
    weights: dict[float, int] = {}
    for value, count in zip(values.tolist(), counts.tolist()):
        weights[value] = weights.get(value, 0) + count
    return weights


def _exact_sum(weights: Mapping[float, int]) -> float:
    """``Σ count × value`` over ``{value: count}``, exact and rounded once.

    A finite float is an integer over a power of two
    (:meth:`float.as_integer_ratio`), so the terms add up exactly as one
    integer numerator over the largest denominator, and ``int / int`` true
    division rounds it correctly — the value :func:`math.fsum` returns over
    the same multiset of floats.  Summing rounded ``count × value`` products
    instead can differ in the last bit.
    """
    if not all(map(math.isfinite, weights)):
        return math.fsum(value * count for value, count in weights.items())
    numerator = shift = 0
    for value, count in weights.items():
        top, bottom = value.as_integer_ratio()
        scale = bottom.bit_length() - 1
        if scale > shift:
            numerator <<= scale - shift
            shift = scale
        numerator += (count * top) << (shift - scale)
    return numerator / (1 << shift)


def _record_output(reason: str | None) -> None:
    """Count how a dataless leaf or streamed probe wrote its rows: in place, or gathered and why."""
    add_counter("engine.output.in_place" if reason is None else f"engine.output.gathered.{reason}")


def _qualified(table: Table, columns: Mapping[str, NDArray[Any]]) -> dict[str, NDArray[Any]]:
    """``columns`` keyed by qualified ``table.column`` names."""
    return {f"{table.name}.{name}": values for name, values in columns.items()}


def _gathered(
    template: Mapping[str, NDArray[Any]], chunks: list[dict[str, NDArray[Any]]]
) -> dict[str, NDArray[Any]]:
    """Per-column concatenation of streamed chunks (``template``'s zero rows when none)."""
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return dict(template)
    return {name: np.concatenate([chunk[name] for chunk in chunks]) for name in template}


def _paired_in_place(
    batches: Iterable[tuple[int, dict[str, NDArray[Any]]]],
    probe_keys: list[str],
    build_keys: "list[_BuildKey]",
    build: _Block,
    target: dict[str, NDArray[Any]],
    gather_build: bool,
) -> tuple[dict[str, NDArray[Any]], NDArray[Any] | None, dict[str, NDArray[Any]] | None]:
    """``(probe side, build positions, build side)`` of a probe streamed into ``target``.

    ``batches`` are consecutive views of ``target``'s columns, and every
    probe row has at most one partner.  Each batch's paired rows are moved
    down to the join's write cursor (nothing moves when the batch passes
    through at the cursor), so the probe side is ``target`` up to the
    cursor.  With ``gather_build`` the build side's output columns are
    allocated once at ``target``'s size and written batch by batch — no
    array of build positions is held (``None`` stands for it); otherwise
    the positions are, in probe order.
    """
    capacity = len(next(iter(target.values())))
    build_side = {
        name: np.empty(capacity if gather_build else 0, dtype=values.dtype)
        for name, values in build.columns.items()
    }
    positions = np.empty(0 if gather_build else capacity, dtype=np.int64)
    cursor = written = 0  # the join's write position, the stream's
    for rows, batch in batches:
        selector, build_idx = _index_pairs(
            [batch[name] for name in probe_keys], build_keys, build.row_count
        )
        paired = len(build_idx)
        if selector is not None or written != cursor:
            for name, values in batch.items():
                target[name][cursor : cursor + paired] = (
                    values if selector is None else values[selector]
                )
        if gather_build:
            for name, values in build_side.items():
                # The positions are in range: "clip" only spares "raise"'s buffer.
                segment = values[cursor : cursor + paired]
                np.take(build.columns[name], build_idx, out=segment, mode="clip")
        else:
            positions[cursor : cursor + paired] = build_idx
        cursor += paired
        written += rows
    probe_side = {name: values[:cursor] for name, values in target.items()}
    if gather_build:
        return probe_side, None, {name: values[:cursor] for name, values in build_side.items()}
    return probe_side, positions[:cursor], None


def _join_keys(
    condition: JoinCondition | DisjunctiveJoinCondition,
    left: Mapping[str, Any],
    right: Mapping[str, Any],
) -> list[tuple[str, str]]:
    """``(left key, right key)`` column names of each equi-join alternative."""
    alternatives = (
        condition.alternatives if isinstance(condition, DisjunctiveJoinCondition) else (condition,)
    )
    pairs = []
    for alternative in alternatives:
        one = f"{alternative.left_table}.{alternative.left_column}"
        other = f"{alternative.right_table}.{alternative.right_column}"
        if one in left and other in right:
            pairs.append((one, other))
        elif other in left and one in right:
            pairs.append((other, one))
        else:
            raise ExecutorError(f"join keys {one}/{other} not available")
    return pairs


@dataclass(frozen=True)
class _BuildKey:
    """One build key column, prepared once per join for :func:`_index_pairs`.

    ``values`` are the column's values in ascending order and ``order`` the
    build rows they come from (a stable argsort) — or ``None`` when the
    column already is strictly increasing, which one O(n) pass observes: a
    unique key, its own sorted form, whose partner is found by position.  A
    unique key is held in the dtype it promotes to with the probe key's, the
    dtype the sort-merge compares in, so both paths find the same partners.
    ``first`` is the first value of a unique integer key that is also
    contiguous (last − first = n − 1, an auto-numbered primary key): a
    partner's position is then the probe key minus ``first``.
    """

    values: NDArray[Any]
    order: NDArray[Any] | None
    first: Any = None

    @classmethod
    def of(cls, values: NDArray[Any], probe_dtype: np.dtype[Any]) -> "_BuildKey":
        values = np.asarray(values)
        if values.dtype.kind in "iuf" and probe_dtype.kind in "iuf":
            common = values.astype(np.result_type(values.dtype, probe_dtype), copy=False)
            if (common[1:] > common[:-1]).all():
                contiguous = (
                    common.dtype.kind in "iu"
                    and len(common) > 0
                    and int(common[-1]) - int(common[0]) == len(common) - 1
                )
                return cls(common, None, common[0] if contiguous else None)
        order = np.argsort(values, kind="stable")
        return cls(values[order], order)


def _unique_pairs(
    keys: NDArray[Any], build: _BuildKey
) -> tuple[NDArray[Any] | None, NDArray[Any]] | None:
    """:func:`_index_pairs` of one probe key column against a unique build key.

    Each probe row has at most one partner: at the key minus ``build.first``
    when the key is contiguous, else found by one ``searchsorted`` plus an
    equality test.  ``None`` when ``keys`` would promote the build key to
    another dtype than it was prepared for.
    """
    keys = np.asarray(keys)
    values = build.values
    if np.result_type(values.dtype, keys.dtype) != values.dtype:
        return None
    keys = keys.astype(values.dtype, copy=False)
    if build.first is not None:
        # In the key dtype a difference out of range wraps, never into
        # [0, n); read as unsigned, a negative one is out of range too.
        offsets = keys - build.first
        hit = offsets.view(f"u{offsets.dtype.itemsize}") < len(values)
        if hit.all():
            return None, offsets.astype(np.int64, copy=False)
        return hit, offsets[hit].astype(np.int64, copy=False)
    if not len(values):
        return np.zeros(len(keys), dtype=bool), np.empty(0, dtype=np.int64)
    positions = np.searchsorted(values, keys).astype(np.int64, copy=False)
    np.minimum(positions, len(values) - 1, out=positions)
    hit = values[positions] == keys
    if hit.all():
        return None, positions
    return hit, positions[hit]


def _index_pairs(
    probe_keys: list[NDArray[Any]],
    build_keys: list[_BuildKey],
    build_rows: int,
) -> tuple[NDArray[Any] | None, NDArray[Any]]:
    """``(probe selector, build positions)`` of the pairs matching *any* key alternative.

    ``probe_keys[i][selector]`` are the pairs' probe rows — ``None`` when
    every probe row pairs exactly once, in order (the batch passes
    through), else a boolean mask or int64 row indices — and the int64
    build positions their partners.  A single unique build key
    (:class:`_BuildKey`) is looked up by position (:func:`_unique_pairs`);
    otherwise each alternative is a fully vectorised sort-merge equi-join
    (duplicates on either side are handled), which keeps the client-site
    AQP extraction fast even for multi-hundred-thousand-row fact tables.
    Pairs are ordered by probe row, each probe row's partners ascending by
    build row; with several alternatives (a disjunctive join) the pairs are
    unioned, a row pair satisfying two of them appearing once.
    """
    if len(build_keys) == 1 and build_keys[0].order is None:
        pairs = _unique_pairs(probe_keys[0], build_keys[0])
        if pairs is not None:
            return pairs
    found: list[tuple[NDArray[Any], NDArray[Any]]] = []
    for keys, build in zip(probe_keys, build_keys):
        keys = np.asarray(keys)
        run_start = np.searchsorted(build.values, keys, side="left")
        counts = np.searchsorted(build.values, keys, side="right") - run_start
        total = int(counts.sum())
        if total == 0:
            continue
        probe_idx = np.repeat(np.arange(len(keys), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.repeat(run_start, counts) + offsets
        found.append((probe_idx, rows if build.order is None else build.order[rows]))
    if len(found) == 1:
        return found[0]
    if not found:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    stride = np.int64(build_rows)
    encoded = np.unique(np.concatenate([probe * stride + build for probe, build in found]))
    return encoded // stride, encoded % stride
