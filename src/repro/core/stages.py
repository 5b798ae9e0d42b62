"""The per-relation stage sequence of the vendor pipeline (paper Figure 2).

    ground → partition → formulate → solve → align

Each stage is a plain function over explicit inputs.  :func:`ground` derives
a :class:`Grounded` record, :func:`partition` creates the relation's new
:class:`RelationBuildState` (its only construction site), :func:`formulate`
and :func:`solve` fill in that state's LP fields and :func:`align` turns the
integral counts into the relation summary.  A stage that is handed the
relation's *previous* state (``prev``) reuses its own prior output when its
own inputs are unchanged — that is the whole warm-start machinery of
incremental maintenance:

=========  ==========================================  ========================
stage      reads                                       reused when
=========  ==========================================  ========================
ground     constraints, aligned referenced relations   — (always re-derived)
partition  box sequence, domain                        a stored checkpoint is a
                                                       prefix of the boxes
formulate  regions, cardinalities, row count           partition, signature and
                                                       row count are unchanged
solve      LP problem, targets                         ``formulate`` kept the
                                                       previous problem
align      regions, integral counts, domain            — (cheap, always run)
=========  ==========================================  ========================

:class:`~repro.core.pipeline.Hydra` drives the sequence once per relation in
foreign-key topological order; ``restore_result`` feeds :func:`ground` the
persisted boxes and :func:`align` the persisted counts, skipping
:func:`formulate` and :func:`solve`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

import numpy as np
from numpy.typing import NDArray

from ..catalog.metadata import DatabaseMetadata
from ..catalog.schema import Schema, Table
from ..sql.predicates import BoxCondition, Interval, IntervalSet
from ..telemetry.session import add_counter, observe, span
from .alignment import AlignedRelation, DeterministicAligner
from .constraints import CardinalityConstraint, RelationConstraints, SymbolicPredicate
from .errors import InfeasibleConstraintsError
from .lp import LPProblem, build_lp
from .regions import PartitionCheckpoint, Region, RegionPartitioner
from .sampling import SamplingAligner
from .solver import LPSolution, LPSolver, SolveMode

__all__ = [
    "RelationBuildState",
    "align",
    "formulate",
    "ground",
    "partition",
    "relation_signatures",
    "solve",
]


@dataclass
class RelationBuildState:
    """Everything a later incremental build can warm-start from.

    Captured per relation by :meth:`Hydra.build_summary` (and refreshed by
    :meth:`Hydra.extend_summary`): the partition checkpoint and its regions,
    the domain box the partition ran under, signatures of the constraint and
    tracking-predicate sets (the inputs of constraint diffing), plus the LP
    problem/targets/solution for the provably-identical-reuse fast path.
    """

    checkpoint: PartitionCheckpoint
    regions: list[Region]
    domain: BoxCondition
    constraint_signature: tuple[Any, ...]
    tracking_signature: tuple[Any, ...]
    row_count: int
    problem: LPProblem | None = None
    targets: NDArray[Any] | None = None
    solution: LPSolution | None = None
    fallback: bool = False
    # Checkpoint taken after the grounded constraint boxes, before the
    # trailing tracking boxes.  A delta that appends a constraint inserts its
    # box *between* those groups, so the final checkpoint stops being a
    # prefix — this boundary checkpoint still is, and keeps the partition
    # warm start engaged for tracking-bearing relations.
    grounded_checkpoint: PartitionCheckpoint | None = None

    @property
    def partition_boxes(self) -> tuple[BoxCondition, ...]:
        """The full box sequence the relation's partition was built from."""
        return self.checkpoint.boxes


#: The referenced relations already aligned in this run (topological order).
Aligned = Mapping[str, AlignedRelation]


class Grounded(NamedTuple):
    """What :func:`ground` derives from a relation's constraints.

    ``boxes`` leads with one grounded box per constraint (so box indices keep
    matching LP rows) followed by the borrowed tracking boxes, which shape
    the partition but add no LP row.
    """

    row_count: int
    constraints: list[CardinalityConstraint]
    cardinalities: list[int]
    constraint_signature: tuple[Any, ...]
    tracking_signature: tuple[Any, ...]
    boxes: list[BoxCondition]
    domain: BoxCondition


class Partitioned(NamedTuple):
    """What :func:`partition` produces: the relation's new build state.

    ``state`` carries regions, checkpoints, domain and signatures; later
    stages fill in its LP fields.  ``resumed`` / ``identical`` tell how much
    of the previous partition was reused (a prefix / all of it).
    ``boxes_visited`` / ``boxes_split`` count the box x cut pairs this call
    classified and those of them a cut went through.
    """

    state: RelationBuildState
    resumed: bool
    identical: bool
    seconds: float
    boxes_visited: int
    boxes_split: int


# -- ground ------------------------------------------------------------------


def relation_signatures(
    relation_constraints: RelationConstraints, row_count: int
) -> tuple[list[CardinalityConstraint], list[int], tuple[Any, ...]]:
    """Constraint-diffing inputs of one relation built for ``row_count`` rows.

    Returns ``(constraints, scaled_cardinalities, signature)`` where
    ``signature`` is the hashable (predicate, cardinality) tuple the
    incremental pipeline compares across builds — two builds with equal
    signatures (and equal tracking predicates, domains and referenced
    alignments) derive the identical LP.  When ``row_count`` differs from the
    annotated size (metadata scaled for a scenario), the workload's absolute
    cardinalities are scaled proportionally so the constraint set stays
    consistent.
    """
    annotated_rows = relation_constraints.row_count
    scale = row_count / annotated_rows if annotated_rows > 0 else 1.0
    constraints = [
        item for item in relation_constraints.deduplicated() if not item.predicate.is_trivial
    ]
    cardinalities = [int(round(item.cardinality * scale)) for item in constraints]
    signature = tuple((item.predicate, count) for item, count in zip(constraints, cardinalities))
    return constraints, cardinalities, signature


def _ground_predicate(
    schema: Schema, predicate: SymbolicPredicate, table: Table, aligned: Aligned
) -> BoxCondition:
    """Ground a symbolic predicate into a box over the relation's columns.

    Conditions borrowed through foreign keys are translated into pk-index
    interval sets using the already-aligned referenced relations.
    """
    box = predicate.box
    for fk_column, referenced in predicate.references:
        ref_table = schema.table(referenced.table)
        ref_box = _ground_predicate(schema, referenced.predicate, ref_table, aligned)
        intervals = aligned[referenced.table].pk_intervals_matching(ref_box)
        box = box.with_condition(fk_column, intervals)
    return box


def _domain_box(metadata: DatabaseMetadata, table: Table, aligned: Aligned) -> BoxCondition:
    """Domain bounds of every column of ``table``.

    Value columns are bounded by the client statistics; foreign-key columns
    by the pk-index range of the (already aligned) referenced relation.
    """
    conditions: dict[str, IntervalSet] = {}
    statistics = metadata.statistics.get(table.name)
    for column in table.columns:
        if column.name == table.primary_key:
            continue
        fk = table.foreign_key_for(column.name)
        if fk is not None:
            upper = float(aligned[fk.ref_table].total_rows)
            conditions[column.name] = IntervalSet([Interval(0.0, max(upper, 1.0))])
            continue
        if statistics is None or column.name not in statistics.columns:
            continue
        column_stats = statistics.columns[column.name]
        if column_stats.min_value is None or column_stats.max_value is None:
            continue
        low = float(column_stats.min_value)
        high = float(column_stats.max_value)
        padding = 1.0 if column.dtype.is_discrete else max(abs(high), 1.0) * 1e-9
        conditions[column.name] = IntervalSet([Interval(low, high + padding)])
    return BoxCondition(conditions)


def ground(
    metadata: DatabaseMetadata,
    table: Table,
    relation_constraints: RelationConstraints,
    row_count: int,
    aligned: Aligned,
    boxes: list[BoxCondition] | None = None,
) -> Grounded:
    """Stage 1: signatures, grounded constraint + tracking boxes, and domain.

    ``boxes`` short-circuits the predicate grounding with an already grounded
    box sequence (``restore_result`` passes the persisted one); signatures
    and domain are derived either way.
    """
    with span("solve.ground", relation=table.name):
        tracking = relation_constraints.tracking
        constraints, cardinalities, signature = relation_signatures(relation_constraints, row_count)
        if boxes is None:
            schema = metadata.schema
            boxes = [
                _ground_predicate(schema, item.predicate, table, aligned) for item in constraints
            ]
            borrowed = [_ground_predicate(schema, item, table, aligned) for item in tracking]
            boxes = boxes + [box for box in borrowed if box not in boxes]
        return Grounded(
            row_count=row_count,
            constraints=constraints,
            cardinalities=cardinalities,
            constraint_signature=signature,
            tracking_signature=tuple(tracking),
            boxes=boxes,
            domain=_domain_box(metadata, table, aligned),
        )


# -- partition ---------------------------------------------------------------


def partition(
    table: Table, grounded: Grounded, prev: RelationBuildState | None = None
) -> Partitioned:
    """Stage 2: split the relation's value space into regions.

    Reuse: when a checkpoint of ``prev`` covers a prefix of the box sequence
    (under an unchanged domain), splitting resumes from it — bit-identical to
    partitioning from scratch, but only the boxes past the prefix are paid
    for.  Two checkpoints are candidates: the final one (a prefix when the
    delta only appends tracking boxes, or changes nothing) and the
    grounded-boundary one (a prefix when the delta appends constraint boxes,
    which land between the constraint and tracking groups).  The partition is
    always built through the boundary so both exist for the next build.
    """
    boxes = grounded.boxes
    boundary = min(len(grounded.constraints), len(boxes))  # grounded boxes lead
    with span("solve.partition", relation=table.name, boxes=len(boxes)) as handle:
        start = time.perf_counter()
        discrete = {column.name: column.dtype.is_discrete for column in table.columns}
        partitioner = RegionPartitioner(discrete, grounded.domain)
        stored: tuple[PartitionCheckpoint | None, ...] = ()
        if prev is not None and prev.domain == grounded.domain:
            stored = (prev.checkpoint, prev.grounded_checkpoint)
        prefixes = [item for item in stored if item is not None and item.is_prefix_of(boxes)]
        best = prefixes[0] if prefixes else None
        # The boundary checkpoint is a stored one while the grounded prefix is
        # unchanged; otherwise splitting passes through it on the way.
        at_boundary = next((item for item in prefixes if item.num_boxes == boundary), None)
        if best is None or (at_boundary is None and best.num_boxes < boundary):
            consumed = 0 if best is None else best.num_boxes
            reached = at_boundary = partitioner.advance(best, boxes[consumed:boundary])
        else:
            reached = best
        checkpoint = partitioner.advance(reached, boxes[reached.num_boxes:])
        regions = partitioner.resume(checkpoint, ())
        seconds = time.perf_counter() - start
        # Work this call did: the checkpoint counts from the domain box.
        visited = checkpoint.boxes_visited - (best.boxes_visited if best else 0)
        split = checkpoint.boxes_split - (best.boxes_split if best else 0)
        handle.annotate(boxes_visited=visited, boxes_split=split)
    observe("solve.partition_seconds", seconds)
    identical = best is not None and best.num_boxes == len(boxes)
    if best is not None:
        add_counter("warmstart.partition_resumed")
    if identical:
        add_counter("warmstart.partition_identical")
    state = RelationBuildState(
        checkpoint=checkpoint,
        regions=regions,
        domain=grounded.domain,
        constraint_signature=grounded.constraint_signature,
        tracking_signature=grounded.tracking_signature,
        row_count=grounded.row_count,
        grounded_checkpoint=at_boundary,
    )
    return Partitioned(state, best is not None, identical, seconds, visited, split)


# -- formulate ---------------------------------------------------------------


def _region_targets(
    metadata: DatabaseMetadata, table: Table, state: RelationBuildState, aligned: Aligned
) -> NDArray[Any]:
    """Per-region row-count estimates from the client statistics.

    Each region's expected size is the row count times the product of its
    per-column selectivities, estimated per column from the client's
    MCV/histogram statistics (value columns) or uniformly over the
    regenerated referenced relation (foreign-key columns) — the usual
    attribute-independence assumption.  The estimates are normalised to sum
    to the relation's row count.
    """
    regions, row_count = state.regions, state.row_count
    statistics = metadata.statistics.get(table.name)
    fk_totals = {fk.column: float(aligned[fk.ref_table].total_rows) for fk in table.foreign_keys}
    estimates = np.zeros(len(regions), dtype=np.float64)
    for region in regions:
        fraction = 0.0
        for box in region.boxes:
            piece = 1.0
            for column, intervals in box.conditions.items():
                if column in fk_totals and fk_totals[column] > 0:
                    bounded = intervals.intersect(IntervalSet([Interval(0.0, fk_totals[column])]))
                    piece *= min(1.0, bounded.count_integers() / fk_totals[column])
                elif statistics is not None and column in statistics.columns:
                    piece *= statistics.columns[column].estimate_intervals_fraction(intervals)
                # Columns without statistics contribute no information.
                if piece == 0.0:
                    break
            fraction += piece
        estimates[region.index] = fraction
    total = estimates.sum()
    if total <= 0:
        return np.full(len(regions), row_count / max(len(regions), 1))
    return estimates * (row_count / total)


def formulate(
    metadata: DatabaseMetadata,
    table: Table,
    grounded: Grounded,
    partitioned: Partitioned,
    guided: bool,
    aligned: Aligned,
    prev: RelationBuildState | None = None,
) -> LPProblem:
    """Stage 3: the relation's LP and (for guided solves) its region targets.

    Fills ``state.problem`` / ``state.targets`` and returns the problem.
    Reuse: an unchanged partition, constraint signature and row count derive
    exactly the problem ``prev`` holds, so that very object (and its targets)
    is kept — which in turn lets :func:`solve` skip the backend.  This is how
    a transitively-touched relation whose grounded predicates came out
    unchanged costs almost nothing.  With only the partition unchanged the
    cached targets are still reused.

    ``guided`` asks for statistics-guided solution selection; it is applied
    to *referenced* relations only: that is where an arbitrary vertex
    solution can empty out predicate overlaps and break the feasibility of
    referencing relations.  Relations nothing points at (the fact tables)
    keep the sparse vertex solution, which also keeps their summaries
    minuscule.
    """
    state = partitioned.state
    cached = prev if partitioned.identical else None
    with span("solve.formulate", relation=table.name):
        if (
            cached is not None
            and cached.problem is not None
            and state.constraint_signature == cached.constraint_signature
            and state.row_count == cached.row_count
        ):
            state.problem, state.targets = cached.problem, cached.targets
            return cached.problem
        labels = [constraint.source for constraint in grounded.constraints]
        state.problem = problem = build_lp(
            table.name, state.regions, grounded.cardinalities, labels, state.row_count
        )
        if guided and metadata.schema.referencing_tables(table.name):
            if cached is not None and cached.targets is not None:
                state.targets = cached.targets
                add_counter("warmstart.targets_reused")
            else:
                state.targets = _region_targets(metadata, table, state, aligned)
        return problem


# -- solve -------------------------------------------------------------------


def solve(
    problem: LPProblem,
    state: RelationBuildState,
    mode: SolveMode,
    prev: RelationBuildState | None = None,
) -> LPSolution:
    """Stage 4: solve the LP; fills ``state.solution`` / ``state.fallback``.

    Reuse: when the problem *is* the one ``prev`` solved, its solution is
    kept without touching the backend (a fresh deterministic solve would
    reproduce it).  An exact-mode infeasibility is retried as a soft solve
    and marked in ``state.fallback``.
    """
    with span("solve.lp", relation=problem.relation):
        if prev is not None and prev.solution is not None and problem is prev.problem:
            state.solution, state.fallback = prev.solution, prev.fallback
            add_counter("warmstart.lp_skipped")
            return state.solution
        try:
            state.solution = LPSolver(mode=mode).solve(problem, targets=state.targets)
        except InfeasibleConstraintsError:
            if mode != "exact":
                raise
            state.solution, state.fallback = LPSolver(mode="soft").solve(problem), True
        return state.solution


# -- align -------------------------------------------------------------------


def align(
    aligner: DeterministicAligner | SamplingAligner,
    table: Table,
    state: RelationBuildState,
    counts: NDArray[Any],
    aligned: Aligned,
) -> AlignedRelation:
    """Stage 5: assign pk blocks per region and emit the relation summary."""
    with span("solve.align", relation=table.name):
        ref_row_counts = {name: relation.total_rows for name, relation in aligned.items()}
        return aligner.align(table, state.regions, counts, ref_row_counts, state.domain)
