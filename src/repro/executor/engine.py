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
knows two kinds of relation provider: a
:class:`~repro.storage.database.MaterializedRelation` (column arrays) and the
dataless :class:`~repro.executor.datagen.DataGenRelation` (one block stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, NoReturn, TYPE_CHECKING, cast

import numpy as np
from numpy.typing import NDArray

from ..catalog.schema import Schema, Table
from ..plans.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    leaf_scan,
)
from ..plans.planner import (
    ScanPushdown,
    compute_pushdowns,
    compute_semijoin_pushdowns,
    exact_predicate_box,
    fk_join_edge,
)
from ..sql.predicates import (
    BoxCondition,
    Interval,
    IntervalSet,
    Predicate,
    columns_with_dependencies,
)
from ..sql.query import DisjunctiveJoinCondition, JoinCondition
from ..storage.database import Database, MaterializedRelation, RelationProvider
from ..telemetry.session import add_counter, is_active, span
from .datagen import DataGenRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.summary import RelationSummary

__all__ = ["ExecutionResult", "ExecutionEngine", "ExecutorError", "RouteEvent"]


class ExecutorError(RuntimeError):
    """Raised when a plan cannot be executed against the given database."""


@dataclass(frozen=True)
class RouteEvent:
    """One routing decision made during a plan execution.

    Pure reporting — no caller can request a route.  ``kind`` is the
    decision point (``"aggregate"`` for the summary route vs executing the
    child plan, ``"join"`` for streaming vs materialising joins); ``route``
    is the route taken; ``reason`` explains *why* the faster route was not
    taken (``None`` when it was).  The same names feed the
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
    """Internal intermediate result: qualified column arrays + row count."""

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
    provider (``None`` for a materialised one), ``stream`` the provider's
    filtered block iterator (``None`` when it cannot stream), ``box`` the
    pushed filter as an *exactly equivalent* box — unconstrained without a
    filter, ``None`` when only an epsilon-approximation exists, in which
    case streaming masks with the original predicate and the summary route
    does not apply.
    """

    scan: ScanNode
    filter: FilterNode | None
    table: Table
    provider: RelationProvider
    summary: "RelationSummary | None"
    stream: Any
    box: BoxCondition | None


@dataclass
class ExecutionEngine:
    """Executes plan trees over a :class:`Database`.

    The route is a function of what the engine observes — nothing a caller
    sets.  Whether a relation is attached materialised or dataless
    (``Hydra.regenerate(materialize=...)``) is the only selector a user has:

    * every scan produces only the columns referenced upstream, and a filter
      sitting directly on a scan is fused into it; a dataless relation
      streams batch-by-batch through the predicate, so peak memory is
      bounded by the batch size plus the matching rows;
    * a join with a dataless leaf input runs build/probe: the side with the
      smaller summary cardinality is the build table, the other side streams
      through it, and semi-join FK pushdown skips probe summary segments
      that cannot join.  Disjunctive joins, self-joins and joins without a
      streamable leaf materialise both inputs;
    * ``COUNT`` over a summary-backed relation or a left-deep tree of
      key/foreign-key joins of such relations, and ``SUM``/``AVG`` over a
      single one, are answered from the relation summaries (count ×
      interval arithmetic, O(#summary rows)) whenever every pushed filter is
      an exact box the summaries can count; otherwise the child plan runs.

    Every route leaves every AQP annotation and every output block
    bit-identical; :attr:`ExecutionResult.route_events` reports which ran
    and why a faster one did not.  ``summary_fastpath=False`` keeps
    aggregates off the summary route — the differential fuzzer compares the
    two.

    Parallel regeneration is transparent to the engine: a
    :class:`~repro.executor.datagen.DataGenRelation` delivers the same
    stream, yield for yield, at every worker count, so results, row order,
    ``scanned_rows`` and annotations do not depend on it.
    """

    database: Database
    annotate: bool = True
    batch_size: int = 65536
    summary_fastpath: bool = True
    _scanned_rows: int = field(default=0, init=False)
    _route_events: list[RouteEvent] = field(default_factory=list, init=False)
    _plan: PlanNode = field(init=False, repr=False)
    _analysed: "tuple[dict[int, ScanPushdown], dict[int, BoxCondition]] | None" = field(
        default=None, init=False
    )
    _leaves: dict[int, _Leaf] = field(default_factory=dict, init=False)

    @property
    def schema(self) -> Schema:
        return self.database.schema

    # -- public API ------------------------------------------------------

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Execute a plan, optionally annotating node cardinalities in place."""
        self._scanned_rows = 0
        self._route_events = []
        self._plan = plan
        self._analysed = None
        self._leaves = {}
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
        the attempt (``_execute_join`` / ``_execute_aggregate``), which
        records it on the route event of the route it takes instead.
        """
        raise _Bail(reason)

    # -- what the routes observe -------------------------------------------

    def _analysis(self) -> tuple[dict[int, ScanPushdown], dict[int, BoxCondition]]:
        """Scan pushdowns and semi-join boxes of the running plan.

        Derived on first use: a plan the summaries answer never asks.
        """
        if self._analysed is None:
            plan = self._plan
            summaries = {
                node.table: datagen.source.summary
                for node in plan.iter_nodes()
                if isinstance(node, ScanNode)
                and (datagen := self._datagen(node.table)) is not None
            }
            self._analysed = (
                compute_pushdowns(plan, self.schema),
                compute_semijoin_pushdowns(plan, self.schema, summaries),
            )
        return self._analysed

    def _datagen(self, table_name: str) -> DataGenRelation | None:
        """The relation's provider when it is the dataless kind."""
        provider = self.database.provider(table_name)
        return provider if isinstance(provider, DataGenRelation) else None

    def _leaf(self, node: PlanNode) -> _Leaf | None:
        """The resolved leaf access path rooted at ``node``, if it is one."""
        leaf = self._leaves.get(node.node_id)
        if leaf is None:
            pair = leaf_scan(node)
            if pair is None:
                return None
            scan, filter_node = pair
            table = self.schema.table(scan.table)
            datagen = self._datagen(scan.table)
            leaf = self._leaves[node.node_id] = _Leaf(
                scan=scan,
                filter=filter_node,
                table=table,
                provider=self.database.provider(scan.table),
                summary=None if datagen is None else datagen.source.summary,
                stream=None if datagen is None else datagen.iter_filtered_blocks,
                box=(
                    BoxCondition({})
                    if filter_node is None
                    else exact_predicate_box(filter_node.predicate, table)
                ),
            )
        return leaf

    def _output_columns(self, leaf: _Leaf) -> list[str]:
        """The columns that must survive past the leaf's own filter."""
        selection = self._analysis()[0][leaf.scan.node_id].output_columns
        return leaf.table.column_names if selection is None else list(selection)

    # -- node dispatch ---------------------------------------------------

    def _execute_node(self, node: PlanNode) -> _Block:
        if isinstance(node, ScanNode):
            block = self._execute_scan(node)
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
        if self.annotate:
            node.cardinality = block.row_count
        return block

    # -- scans -----------------------------------------------------------

    def _provider_columns(
        self, provider: RelationProvider, table: Table, column_names: list[str]
    ) -> dict[str, NDArray[Any]]:
        """Fetch the requested columns from either kind of provider."""
        if isinstance(provider, MaterializedRelation):
            return {name: provider.column(name) for name in column_names}
        if isinstance(provider, DataGenRelation):
            return provider.fetch_columns(column_names, batch_size=self.batch_size)
        raise ExecutorError(
            f"relation {table.name!r} is attached as a {type(provider).__name__}; the "
            "engine reads MaterializedRelation and DataGenRelation providers only"
        )

    def _execute_scan(self, node: ScanNode) -> _Block:
        table = self.schema.table(node.table)
        provider = self.database.provider(node.table)
        selection = self._analysis()[0][node.node_id].generate_columns
        names = table.column_names if selection is None else list(selection)
        columns = self._provider_columns(provider, table, names) if names else {}
        self._scanned_rows += provider.row_count
        return _Block(_qualified(table, columns), provider.row_count)

    # -- filters ----------------------------------------------------------

    def _execute_filtered_scan(self, leaf: _Leaf, predicate: Predicate) -> _Block:
        """Fused filter+scan: stream batches, keep only matching rows.

        The scan is annotated with the full relation cardinality and the
        returned block carries the filtered rows, so AQP annotations are
        those of an unfused filter over a full scan while a dataless
        relation is never materialised in full.
        """
        table, provider = leaf.table, leaf.provider
        output = self._output_columns(leaf)
        if self.annotate:
            leaf.scan.cardinality = provider.row_count

        if not predicate.columns():
            # Column-free predicate (TruePredicate, empty conjunction/
            # disjunction from a deserialised AQP): its verdict is constant,
            # so decide it once instead of masking per batch — a length-0
            # column dict would otherwise produce a length-0 mask.
            if not predicate.evaluate({"_": np.zeros(1, dtype=np.float64)})[0]:
                empty = {name: _empty_column(table, name) for name in output}
                return _Block(_qualified(table, empty), 0)
            local = self._provider_columns(provider, table, output) if output else {}
            self._scanned_rows += provider.row_count
            return _Block(_qualified(table, local), provider.row_count)

        if leaf.stream is None:
            needed = columns_with_dependencies(output, predicate.columns())
            local = self._provider_columns(provider, table, needed)
            mask = predicate.evaluate(local)
            self._scanned_rows += provider.row_count
            kept = {name: local[name][mask] for name in output}
            return _Block(_qualified(table, kept), int(mask.sum()))

        pieces: dict[str, list[NDArray[Any]]] = {name: [] for name in output}
        matched = 0
        for _start, generated, batch_matched, block in leaf.stream(
            predicate=predicate, box=leaf.box, columns=output, batch_size=self.batch_size
        ):
            self._scanned_rows += generated
            if batch_matched == 0:
                continue
            matched += batch_matched
            for name in output:
                pieces[name].append(block[name])
        return _Block(_qualified(table, _concatenated(table, pieces)), matched)

    def _execute_filter(self, node: FilterNode) -> _Block:
        leaf = self._leaf(node)
        if leaf is not None:
            return self._execute_filtered_scan(leaf, node.predicate)
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

    def _execute_join(self, node: JoinNode) -> _Block:
        try:
            probe, probe_is_left = self._choose_probe(node)
        except _Bail as bail:
            self._record_route("join", "materializing", bail.reason)
        else:
            block = self._execute_streaming_join(node, probe, probe_is_left)
            self._record_route("join", "streaming")
            return block
        left = self._execute_node(node.left)
        right = self._execute_node(node.right)
        condition = node.condition

        if isinstance(condition, DisjunctiveJoinCondition):
            left_indices, right_indices = self._disjunctive_join_indices(
                left, right, condition
            )
        else:
            left_keys, right_keys = self._join_key_arrays(left, right, condition)
            left_indices, right_indices = _hash_join_indices(left_keys, right_keys)
        columns: dict[str, NDArray[Any]] = {}
        for name, values in left.columns.items():
            columns[name] = values[left_indices]
        for name, values in right.columns.items():
            columns[name] = values[right_indices]
        return _Block(columns=columns, row_count=int(len(left_indices)))

    @staticmethod
    def _join_key_arrays(
        left: _Block, right: _Block, condition: Any
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Resolve one equi-join's key arrays out of the two input blocks."""
        left_key_name = f"{condition.left_table}.{condition.left_column}"
        right_key_name = f"{condition.right_table}.{condition.right_column}"
        if left_key_name in left.columns and right_key_name in right.columns:
            return left.columns[left_key_name], right.columns[right_key_name]
        if right_key_name in left.columns and left_key_name in right.columns:
            return left.columns[right_key_name], right.columns[left_key_name]
        raise ExecutorError(f"join keys {left_key_name}/{right_key_name} not available")

    def _disjunctive_join_indices(
        self, left: _Block, right: _Block, condition: DisjunctiveJoinCondition
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Index pairs matching *any* alternative of a disjunctive join.

        Each alternative is evaluated as an ordinary vectorised equi-join;
        the per-alternative index pairs are unioned with duplicates removed
        (a row pair satisfying two alternatives appears once) and ordered
        exactly like a plain join's output: ascending by left row, each left
        row's partners ascending by right row.
        """
        empty = np.empty(0, dtype=np.int64)
        if left.row_count == 0 or right.row_count == 0:
            return empty, empty
        encoded_sets: list[NDArray[Any]] = []
        stride = np.int64(right.row_count)
        for alternative in condition.alternatives:
            left_keys, right_keys = self._join_key_arrays(left, right, alternative)
            left_idx, right_idx = _hash_join_indices(left_keys, right_keys)
            if len(left_idx):
                encoded_sets.append(left_idx * stride + right_idx)
        if not encoded_sets:
            return empty, empty
        encoded = np.unique(np.concatenate(encoded_sets))
        return encoded // stride, encoded % stride

    def _streamable_leaf(self, child: PlanNode) -> _Leaf | None:
        """The child's leaf access path, if it can be streamed as a probe side."""
        leaf = self._leaf(child)
        if leaf is None or leaf.stream is None:
            return None
        if leaf.filter is not None and not leaf.filter.predicate.columns():
            # Column-free predicates have a constant verdict; the fused
            # filtered-scan route handles them, keep joins off them.
            return None
        return leaf

    @staticmethod
    def _estimated_rows(leaf: _Leaf) -> int:
        """Summary-estimated output rows of a leaf (exact when computable)."""
        total = leaf.provider.row_count
        if leaf.filter is None or leaf.summary is None or leaf.box is None:
            return total
        count = leaf.summary.count_matching(leaf.box, pk_column=leaf.table.primary_key)
        return total if count is None else count

    def _choose_probe(self, node: JoinNode) -> tuple[_Leaf, bool]:
        """``(probe leaf, probe is the left input)`` of a build/probe join.

        The probe side must be the leaf access path of a relation that
        streams filtered blocks; with two candidates the one with the larger
        summary cardinality streams and the smaller becomes the build table.
        Bails (the caller then materialises both inputs) when the join shape
        has no single streamable probe key.
        """
        condition = node.condition
        if isinstance(condition, DisjunctiveJoinCondition):
            # No single probe key column exists; the materialising join
            # unions the alternatives instead.
            self._fallback("disjunctive-condition")
        if condition.left_table == condition.right_table:
            self._fallback("self-join")
        left = self._streamable_leaf(node.left)
        right = self._streamable_leaf(node.right)
        if left is not None and right is not None:
            probe_is_left = self._estimated_rows(left) >= self._estimated_rows(right)
        else:
            probe_is_left = left is not None
        probe = left if probe_is_left else right
        if probe is None:
            self._fallback("no-streamable-leaf")
        if not condition.involves(probe.scan.table):
            self._fallback("condition-table-mismatch")
        probe_key = condition.side_column(probe.scan.table)
        if not probe.table.has_column(probe_key):
            self._fallback("probe-key-missing")
        if probe_key not in self._output_columns(probe):
            # The join key must flow out of the probe scan.
            self._fallback("probe-key-not-in-output")
        return probe, probe_is_left

    def _execute_streaming_join(
        self, node: JoinNode, probe: _Leaf, probe_is_left: bool
    ) -> _Block:
        """Build/probe hash join with the probe side streamed batch-by-batch.

        The build side is materialised by ordinary execution; the probe leaf
        (see :meth:`_choose_probe`) streams through the build hash table so
        peak memory is O(build + batch + output) instead of O(both
        relations).  A semi-join box computed by the planner
        (:func:`~repro.plans.planner.compute_semijoin_pushdowns`) lets whole
        probe summary segments be skipped — their contribution to the probe
        filter's AQP annotation is recovered exactly from the summary — and
        masks generated probe rows that provably have no join partner.
        Output rows, column order and all annotations are bit-identical to
        the materialising join.
        """
        condition = cast(JoinCondition, node.condition)
        scan, table = probe.scan, probe.table
        probe_key = condition.side_column(scan.table)
        build_table, build_key = condition.other_side(scan.table)
        output = self._output_columns(probe)
        semijoin = self._analysis()[1].get(scan.node_id)
        if semijoin is not None and not set(semijoin.conditions) <= set(output):
            semijoin = None

        build = self._execute_node(node.right if probe_is_left else node.left)
        build_key_name = f"{build_table}.{build_key}"
        if build_key_name not in build.columns:
            raise ExecutorError(
                f"join keys {scan.table}.{probe_key}/{build_key_name} not available"
            )
        build_keys = build.columns[build_key_name]

        matched_total = 0
        probe_chunks: dict[str, list[NDArray[Any]]] = {name: [] for name in output}
        build_index_chunks: list[NDArray[Any]] = []
        for _start, generated, batch_matched, batch in probe.stream(
            predicate=None if probe.filter is None else probe.filter.predicate,
            box=probe.box,
            columns=output,
            batch_size=self.batch_size,
            skip_box=semijoin,
        ):
            self._scanned_rows += generated
            matched_total += batch_matched
            if batch_matched == 0 or not batch:
                # Semi-join-skipped segment: only its exact filter count
                # matters; none of its rows can produce a join partner.
                continue
            if semijoin is not None and generated:
                semi_mask = semijoin.evaluate(batch)
                if not semi_mask.all():
                    batch = {name: values[semi_mask] for name, values in batch.items()}
            probe_idx, build_idx = _hash_join_indices(batch[probe_key], build_keys)
            if len(probe_idx) == 0:
                continue
            for name in output:
                probe_chunks[name].append(batch[name][probe_idx])
            build_index_chunks.append(build_idx)

        if self.annotate:
            scan.cardinality = probe.provider.row_count
            if probe.filter is not None:
                probe.filter.cardinality = matched_total

        build_indices = (
            np.concatenate(build_index_chunks)
            if build_index_chunks
            else np.empty(0, dtype=np.int64)
        )
        probe_columns = _concatenated(table, probe_chunks)
        if not probe_is_left:
            # The materialising join orders output by left (here: build) row,
            # each left row's matches in probe order; a stable sort on the
            # accumulated build indices restores exactly that order.
            perm = np.argsort(build_indices, kind="stable")
            build_indices = build_indices[perm]
            probe_columns = {name: values[perm] for name, values in probe_columns.items()}

        probe_side = _qualified(table, probe_columns)
        build_side = {name: values[build_indices] for name, values in build.columns.items()}
        columns = {**probe_side, **build_side} if probe_is_left else {**build_side, **probe_side}
        return _Block(columns=columns, row_count=int(len(build_indices)))

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
            if not self.summary_fastpath:
                self._fallback("fastpath-disabled")
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

        Applies to ``COUNT`` over a left-deep FK–PK join tree — a single
        leaf is its zero-join case — and to ``SUM``/``AVG`` over a single
        leaf, when every input is the leaf access path of a summary-backed
        dataless relation, every join condition follows a schema
        foreign-key edge onto the referenced primary key
        (:func:`~repro.plans.planner.fk_join_edge`) and every pushed filter
        is an exact box.  This covers the single FK–PK join, multi-way
        chains (``A→B→C``: the middle relation's matching pks are first
        narrowed by *its own* FK condition toward ``C``) and stars (one fact
        referencing several dimensions) — any join subset whose FK edges
        form an out-tree from a single referencing root.

        Every leaf's own filter is counted with
        :meth:`~repro.core.summary.RelationSummary.count_matching`; each
        intermediate join is counted against only the tables joined so far
        (:meth:`_count_fk_prefix`).  O(#summary rows × #joins) total, zero
        tuples generated, and exact because every referencing tuple joins at
        most one (unique, auto-numbered) referenced pk.  Bails whenever a
        step is not exactly countable, so the caller executes the child
        plan instead; otherwise annotates every leaf and join node with the
        cardinalities that execution would produce.
        """
        spine: list[JoinNode] = []
        anchor = node.child
        while isinstance(anchor, JoinNode):
            spine.append(anchor)
            anchor = anchor.left
        spine.reverse()
        root = self._leaf(anchor)
        if root is None or (spine and node.function != "count"):
            self._fallback("no-leaf-scan")
        leaves = {root.scan.table: root}
        for join in spine:
            leaf = self._leaf(join.right)
            if leaf is None or leaf.scan.table in leaves:
                self._fallback("join-shape-unsupported")
            leaves[leaf.scan.table] = leaf
        edges: list[tuple[str, str, str, str]] = []
        for join in spine:
            edge = fk_join_edge(join.condition, self.schema)
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

        # Filter annotations: tuples matching each table's own box only.
        filter_counts: dict[str, int] = {}
        total = 0.0
        if node.function != "count":
            filter_counts[root.scan.table], total = self._summary_sum(
                root.table, summaries[root.scan.table], boxes[root.scan.table], node.argument
            )
        else:
            for name, leaf in leaves.items():
                count = summaries[name].count_matching(
                    boxes[name], pk_column=leaf.table.primary_key
                )
                if count is None:
                    self._fallback("summary-not-exact")
                filter_counts[name] = count
        # Each intermediate join is the join of the tables attached so far,
        # so its cardinality uses only the edges inside that prefix.
        join_counts: list[int] = []
        for index in range(len(spine)):
            joined = self._count_fk_prefix(
                list(leaves)[: index + 2], edges[: index + 1], boxes, summaries
            )
            if joined is None:
                self._fallback("join-not-exactly-countable")
            join_counts.append(joined)

        if self.annotate:
            for name, leaf in leaves.items():
                leaf.scan.cardinality = leaf.provider.row_count
                if leaf.filter is not None:
                    leaf.filter.cardinality = filter_counts[name]
            for join, joined in zip(spine, join_counts):
                join.cardinality = joined
        return (join_counts[-1] if spine else filter_counts[root.scan.table]), total

    def _count_fk_prefix(
        self,
        tables: list[str],
        edges: list[tuple[str, str, str, str]],
        boxes: Mapping[str, BoxCondition],
        summaries: "Mapping[str, RelationSummary]",
    ) -> int | None:
        """Exact row count of an FK out-tree join over ``tables``.

        ``edges`` are ``(fk_table, fk_column, ref_table, ref_column)``
        resolutions.  The join must form an out-tree from a single
        referencing root (every other table is the referenced side of
        exactly one edge); every table's exactly-matching pk intervals are
        computed bottom-up
        (:meth:`~repro.core.summary.RelationSummary.matching_pk_intervals`
        with ``exact=True``) — own box plus the FK conditions toward its
        referenced children — and the root's tuples are counted against its
        box plus its own FK conditions.  Returns ``None`` when the shape
        does not apply (two facts sharing a dimension multiply
        cardinalities, which interval arithmetic cannot express) or a step
        is not exactly countable.
        """
        ref_tables = [edge[2] for edge in edges]
        if len(set(ref_tables)) != len(ref_tables):
            return None
        roots = [table for table in tables if table not in ref_tables]
        if len(roots) != 1:
            return None
        out_edges: dict[str, list[tuple[str, str]]] = {}
        for fk_table, fk_column, ref_table, _ref_column in edges:
            out_edges.setdefault(fk_table, []).append((fk_column, ref_table))

        def conditioned_box(table_name: str) -> BoxCondition | None:
            box = boxes[table_name]
            for fk_column, ref_table in out_edges.get(table_name, ()):
                intervals = effective_intervals(ref_table)
                if intervals is None:
                    return None
                box = box.intersect(BoxCondition({fk_column: intervals}))
            return box

        def effective_intervals(table_name: str) -> IntervalSet | None:
            box = conditioned_box(table_name)
            if box is None:
                return None
            return summaries[table_name].matching_pk_intervals(
                box,
                pk_column=self.schema.table(table_name).primary_key,
                exact=True,
            )

        combined = conditioned_box(roots[0])
        if combined is None:
            return None
        return summaries[roots[0]].count_matching(
            combined, pk_column=self.schema.table(roots[0]).primary_key
        )

    def _summary_sum(
        self, table: Table, summary: "RelationSummary", box: BoxCondition, argument: str | None
    ) -> tuple[int, float]:
        """``(count, sum)`` of column ``argument`` over the tuples matching ``box``.

        Every matching region's contribution must be exactly summable:

        * a **value column** is generated as its region's constant
          representative, so the contribution is ``matched × value`` —
          exact for any countable matched subset;
        * the **primary key** is the tuple index, so a fully-matching region
          or a pk window sums as an arithmetic series
          (:meth:`~repro.sql.predicates.IntervalSet.sum_integers`); a
          partial FK match scatters the matching pks, which is not summable;
        * a **foreign-key column** varies tuple-by-tuple with the
          round-robin spread: never summable from the summary.

        Region terms are combined with :func:`math.fsum`; execution
        computes :func:`math.fsum` over the generated tuples, so the two
        routes agree exactly whenever the per-region products are exact
        (integer or dyadic representatives — every workload in this repo).
        """
        prefix, _, column = (argument or "").rpartition(".")
        if prefix not in ("", table.name) or not table.has_column(column):
            self._fallback("argument-not-resolvable")
        pk_column = table.primary_key
        count_total = 0
        terms: list[float] = []
        for position, row in enumerate(summary.rows):
            matched = summary.count_matching_row(position, box, pk_column=pk_column)
            if matched is None:
                self._fallback("summary-not-exact")
            if matched == 0:
                continue
            count_total += matched
            if column == pk_column:
                match = summary.classify_row(position, box, pk_column=pk_column)
                assert match is not None  # matched > 0
                if match.partial_fks:
                    # Matching pks scattered by the fk spread: not summable.
                    self._fallback("pk-scattered-by-fk")
                if match.pk_window is not None:
                    terms.append(match.pk_window.sum_integers())
                else:
                    start, end = summary.pk_interval_of_row(position)
                    terms.append(Interval(float(start), float(end)).sum_integers())
            elif column in row.fk_refs:
                self._fallback("fk-argument-not-summable")  # targets vary per tuple
            else:
                terms.append(matched * float(row.values.get(column, 0.0)))
        return count_total, math.fsum(terms)


def _qualified(table: Table, columns: Mapping[str, NDArray[Any]]) -> dict[str, NDArray[Any]]:
    """``columns`` keyed by qualified ``table.column`` names."""
    return {f"{table.name}.{name}": values for name, values in columns.items()}


def _empty_column(table: Table, name: str) -> NDArray[Any]:
    return np.empty(0, dtype=table.column(name).dtype.numpy_dtype)


def _concatenated(
    table: Table, pieces: Mapping[str, list[NDArray[Any]]]
) -> dict[str, NDArray[Any]]:
    """Per-column concatenation of streamed chunks (schema dtype when none)."""
    return {
        name: np.concatenate(chunks) if chunks else _empty_column(table, name)
        for name, chunks in pieces.items()
    }


def _hash_join_indices(
    left_keys: NDArray[Any], right_keys: NDArray[Any]
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Return index pairs (left_idx, right_idx) of matching key values.

    Implemented as a fully vectorised sort-merge join (duplicates on either
    side are handled), which keeps the client-site AQP extraction fast even
    for multi-hundred-thousand-row fact tables.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # Sort the build (right) side once, then locate each probe key's run.
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    run_start = np.searchsorted(sorted_right, left_keys, side="left")
    run_end = np.searchsorted(sorted_right, left_keys, side="right")
    counts = run_end - run_start
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    left_indices = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cumulative - counts, counts)
    right_positions = np.repeat(run_start, counts) + offsets
    right_indices = order[right_positions]
    return left_indices, right_indices
