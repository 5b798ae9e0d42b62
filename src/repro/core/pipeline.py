"""The end-to-end HYDRA vendor pipeline.

``Hydra`` is the facade over the paper's vendor-side architecture
(Figure 2):

    AQPs + metadata
        → Preprocessor (per-relation constraint decomposition)
        → per relation, in foreign-key topological order, the stage sequence
          of :mod:`repro.core.stages`:
          ground → partition → formulate → solve → align
        → referential-integrity post-processing
        → database summary
        → Tuple Generator / datagen scan (dynamic regeneration)

Relations are processed in topological order of the foreign-key graph so that
borrowed predicates can be grounded against the already-aligned referenced
relations.  There is one build loop: :meth:`Hydra.build_summary` is an
:meth:`Hydra.extend_summary` from an empty base (every relation touched),
and :meth:`Hydra.restore_result` runs the same ``ground`` / ``partition`` /
``align`` stages on persisted boxes and counts.  The pipeline records per-relation
build statistics (LP size, solve time, residual errors, grid-baseline
complexity) — the numbers the demo's vendor interface tabulates and that the
benchmarks report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Literal, Mapping

import numpy as np
from numpy.typing import NDArray

from ..catalog.metadata import DatabaseMetadata
from ..catalog.schema import Schema, Table
from ..executor.datagen import DataGenRelation
from ..executor.rate import RateLimiter
from ..plans.aqp import AnnotatedQueryPlan
from ..sql.predicates import BoxCondition
from ..storage.database import Database, MaterializedRelation
from ..telemetry.session import add_counter, span
from . import stages
from .alignment import AlignedRelation, DeterministicAligner
from .errors import HydraError
from .grid import grid_variable_count
from .preprocessor import WorkloadConstraints, decompose_workload
from .refint import ReferentialReport, enforce_referential_integrity
from .sampling import SamplingAligner
from .solver import SolveMode
from .stages import RelationBuildState, relation_signatures
from .summary import DatabaseSummary, RelationSummary
from .tuplegen import TupleGenerator

__all__ = [
    "RelationBuildInfo",
    "RelationBuildState",
    "SummaryBuildReport",
    "HydraBuildResult",
    "Hydra",
    "summary_relation_providers",
]

EXTENSION_STATE_VERSION = 1

AlignmentStrategy = Literal["deterministic", "sampling"]


@dataclass
class RelationBuildInfo:
    """Build statistics of one relation (one row of the demo's LP table).

    ``reused`` marks relations an incremental :meth:`Hydra.extend_summary`
    left untouched (their statistics are carried over from the base build);
    ``warm_start`` marks re-solved relations whose partition, targets or LP
    solution were warm-started from the previous build state.
    ``boxes_visited`` / ``boxes_split`` are the partition's box x cut pairs
    classified and cut by this build (a resumed partition counts only the
    appended cuts), as on the ``solve.partition`` span.
    """

    relation: str
    row_count: int
    num_constraints: int
    num_regions: int
    grid_variables: int | None
    partition_seconds: float
    solve_seconds: float
    status: str
    max_relative_error: float
    soft_fallback: bool = False
    reused: bool = False
    warm_start: bool = False
    boxes_visited: int = 0
    boxes_split: int = 0


@dataclass
class SummaryBuildReport:
    """Aggregate statistics of one summary construction run."""

    relations: dict[str, RelationBuildInfo] = field(default_factory=dict)
    total_seconds: float = 0.0
    referential: ReferentialReport = field(default_factory=ReferentialReport)

    def total_lp_variables(self) -> int:
        """Total LP variables (= regions) across all relations."""
        return sum(info.num_regions for info in self.relations.values())

    def total_grid_variables(self) -> int:
        """Total grid-baseline variables (0 for relations without a baseline)."""
        return sum(
            info.grid_variables or 0 for info in self.relations.values()
        )

    def total_constraints(self) -> int:
        """Total cardinality constraints across all relations."""
        return sum(info.num_constraints for info in self.relations.values())

    def max_relative_error(self) -> float:
        """Worst per-relation residual error of the build (0.0 when empty)."""
        if not self.relations:
            return 0.0
        return max(info.max_relative_error for info in self.relations.values())

    def resolved_relations(self) -> list[str]:
        """Relations this run actually re-solved (all of them on a cold build)."""
        return [name for name, info in self.relations.items() if not info.reused]

    def reused_relations(self) -> list[str]:
        """Relations an incremental run carried over untouched."""
        return [name for name, info in self.relations.items() if info.reused]

    def describe(self) -> str:
        """Render the per-relation build table (the demo's LP statistics view)."""
        lines = [
            f"{'relation':<20} {'rows':>12} {'constraints':>12} {'regions':>9} "
            f"{'grid vars':>14} {'partition (s)':>13} {'split/visited':>15} "
            f"{'solve (s)':>10} {'max rel err':>12}"
        ]
        for info in self.relations.values():
            grid = "-" if info.grid_variables is None else str(info.grid_variables)
            cuts = f"{info.boxes_split}/{info.boxes_visited}"
            flag = " (reused)" if info.reused else (" (warm)" if info.warm_start else "")
            lines.append(
                f"{info.relation:<20} {info.row_count:>12} {info.num_constraints:>12} "
                f"{info.num_regions:>9} {grid:>14} {info.partition_seconds:>13.4f} "
                f"{cuts:>15} {info.solve_seconds:>10.4f} "
                f"{info.max_relative_error:>12.4%}{flag}"
            )
        lines.append(
            f"total: {self.total_lp_variables()} LP variables, "
            f"{self.total_constraints()} constraints, "
            f"{self.total_seconds:.3f}s wall clock"
        )
        return "\n".join(lines)



@dataclass
class HydraBuildResult:
    """The summary together with its build report.

    ``aqps``, ``aligned`` and ``states`` carry the extension state that
    :meth:`Hydra.extend_summary` needs to refresh the summary under a delta
    workload without rebuilding untouched relations.  They stay in vendor
    memory; :meth:`attach_extension_state` serialises the durable part into
    ``summary.extension_state`` so a later session can
    :meth:`Hydra.restore_result` from the summary JSON alone.
    """

    summary: DatabaseSummary
    report: SummaryBuildReport
    aqps: list[AnnotatedQueryPlan] = field(default_factory=list)
    aligned: dict[str, AlignedRelation] = field(default_factory=dict)
    states: dict[str, RelationBuildState] = field(default_factory=dict)

    def size_bytes(self) -> int:
        """Serialised size of the built summary (the "few KB" metric)."""
        return self.summary.size_bytes()

    @property
    def supports_extension(self) -> bool:
        """Whether this result carries the state incremental maintenance needs."""
        return bool(self.states) and bool(self.aligned)

    def extension_state(self, package_fingerprint: str | None = None) -> dict[str, Any]:
        """The JSON-serialisable extension state of this build."""
        if not self.supports_extension:
            raise HydraError(
                "build result carries no extension state; it was constructed "
                "without the per-relation build states"
            )
        state: dict[str, Any] = {
            "format_version": EXTENSION_STATE_VERSION,
            "aqps": [aqp.to_dict() for aqp in self.aqps],
            "relations": {
                name: {
                    "partition_boxes": [
                        box.to_dict() for box in relation_state.partition_boxes
                    ],
                    "counts": [int(count) for count in self.aligned[name].counts],
                    # The row count this relation was built for: restore keeps
                    # it as the diffing baseline, so metadata drift between
                    # vendor sessions marks the relation as touched instead of
                    # being silently absorbed by a recomputed signature.
                    "row_count": int(relation_state.row_count),
                }
                for name, relation_state in self.states.items()
            },
        }
        if package_fingerprint:
            state["package_fingerprint"] = package_fingerprint
        return state

    def attach_extension_state(self, package_fingerprint: str | None = None) -> None:
        """Embed the extension state into the summary (survives save/load)."""
        self.summary.extension_state = self.extension_state(package_fingerprint)



def _parse_extension_state(
    payload: Any, schema: Schema
) -> tuple[
    list[AnnotatedQueryPlan],
    dict[str, tuple[list[BoxCondition], NDArray[Any], int | None]],
]:
    """Validate a persisted extension state up front (it arrives from disk).

    Returns the base workload and, per relation of ``schema``, the persisted
    ``(partition boxes, region counts, built-for row count)``.  Anything
    malformed raises :class:`HydraError` naming the offending field instead
    of leaking a raw exception from deep inside the restore.
    """
    if not payload:
        raise HydraError(
            "summary carries no extension state; rebuild it with "
            "build_summary and attach_extension_state before saving"
        )
    where = "format_version"
    try:
        if payload.get(where) != EXTENSION_STATE_VERSION:
            raise HydraError(f"unsupported extension-state version {payload.get(where)!r}")
        where = "aqps"
        aqps = [AnnotatedQueryPlan.from_dict(item) for item in payload.get(where, [])]
        relations = {}
        for name in schema.table_names:
            where = f"relations[{name!r}]"
            entry = payload.get("relations", {})[name]
            counts, row_count = entry.get("counts", []), entry.get("row_count")
            integers = [*counts, 0 if row_count is None else row_count]
            if not all(type(value) is int for value in integers):
                raise TypeError("'counts' and 'row_count' must be integers")
            boxes = [BoxCondition.from_dict(item) for item in entry.get("partition_boxes", [])]
            relations[name] = (boxes, np.asarray(counts, dtype=np.int64), row_count)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise HydraError(f"malformed extension state at {where}: {exc!r}") from exc
    return aqps, relations


@dataclass
class Hydra:
    """The vendor-site regeneration pipeline.

    Parameters
    ----------
    metadata:
        CODD-style metadata (schema + statistics) received from the client.
    mode:
        ``"exact"`` solves each relation's LP exactly and, for relations
        referenced through foreign keys, picks the feasible solution closest
        (L1) to per-region estimates derived from the client statistics —
        this keeps predicate overlaps of referenced relations populated,
        which preserves the feasibility of the referencing relations'
        constraints.  An infeasible relation falls back to the soft solve,
        which mirrors HYDRA absorbing small inconsistencies rather than
        failing the whole build.  ``"soft"`` minimises the L1 violation
        throughout (what injected what-if scenarios need, paper §4.4).
    alignment:
        ``"deterministic"`` (the paper's strategy) or ``"sampling"`` (the
        DataSynth-style baseline used by the ablation experiment).

    Every relation is built for the row count ``metadata`` reports (a scaled
    scenario scales the metadata, :func:`~repro.core.scenario.scale_metadata`),
    partitioned within :class:`~repro.core.regions.RegionPartitioner`'s
    region budget, and its grid-baseline variable count (experiment E3) is
    recorded alongside.
    """

    metadata: DatabaseMetadata
    mode: SolveMode = "exact"
    alignment: AlignmentStrategy = "deterministic"

    # -- public API --------------------------------------------------------

    def build_summary(self, aqps: Iterable[AnnotatedQueryPlan]) -> HydraBuildResult:
        """Run the full pipeline over a workload of AQPs.

        A cold build is an extension of an empty base: no relation has a
        previous state, so every one is touched and solved from scratch, and
        the result is a fresh version-1 summary.
        """
        aqps = list(aqps)
        empty = HydraBuildResult(DatabaseSummary(schema=self.metadata.schema), SummaryBuildReport())
        with span("hydra.build_summary", queries=len(aqps)):
            return self._refresh(empty, aqps)

    def extend_summary(
        self,
        result: HydraBuildResult,
        new_aqps: Iterable[AnnotatedQueryPlan],
    ) -> HydraBuildResult:
        """Incrementally refresh a summary under a delta workload.

        The vendor keeps receiving AQPs from the client; instead of
        re-running the whole pipeline over the union workload, this method

        1. decomposes the union workload and *diffs* every relation's
           constraint and tracking-predicate signatures against the base
           build (``result``),
        2. closes the touched set transitively over foreign-key referencing
           edges (a re-solved relation realigns its pk index space, so every
           relation grounding predicates through it must re-solve too),
        3. re-solves **only** the touched relations — warm-starting the
           region partition from the base build's checkpoint when the delta
           appends predicates, reusing cached statistics targets when the
           partition is unchanged, and skipping the LP solve entirely when
           the re-derived problem is provably the one already solved — and
        4. splices the refreshed relation summaries into the base summary
           (version bumped), leaving untouched relations' summary rows — and
           therefore their regenerated tuple streams — bit-identical.

        The result is equivalent to ``build_summary`` over the union workload:
        touched relations go through the exact same computation, so the
        regenerated database matches a from-scratch union build bit-for-bit.

        ``result`` must come from :meth:`build_summary`,
        :meth:`extend_summary` or :meth:`restore_result` of a Hydra with the
        same alignment; a summary built with another one raises
        :class:`HydraError` instead of being spliced into a summary aligned
        two ways.  The mode may differ:
        :func:`~repro.core.scenario.check_delta_feasibility` extends an
        exact build in soft mode on purpose, to probe a delta.
        """
        with span("hydra.extend_summary"):
            if not result.supports_extension:
                raise HydraError(
                    "build result carries no extension state; use build_summary, "
                    "or restore_result on a summary saved with extension state"
                )
            self._check_built_with(result.summary, ("alignment",))
            # Deduplicate replayed AQPs by content: a delta batch that is
            # retried (or a full package replayed against its own summary)
            # must not grow the stored workload — otherwise the persisted
            # extension state and the union-package fingerprint drift on
            # every replay even though the summary itself is unchanged.
            union_aqps = list(result.aqps)
            seen = {_aqp_key(aqp) for aqp in union_aqps}
            for aqp in new_aqps:
                key = _aqp_key(aqp)
                if key not in seen:
                    seen.add(key)
                    union_aqps.append(aqp)
            return self._refresh(result, union_aqps)

    def touched_relations(
        self, result: HydraBuildResult, new_aqps: Iterable[AnnotatedQueryPlan]
    ) -> list[str]:
        """Relations a delta workload would force :meth:`extend_summary` to re-solve."""
        if not result.supports_extension:
            raise HydraError("build result carries no extension state")
        workload = decompose_workload([*result.aqps, *new_aqps], self.metadata)
        return sorted(self._touched_relations(result, workload))

    def restore_result(self, summary: DatabaseSummary) -> HydraBuildResult:
        """Rebuild extension state from a summary saved with it embedded.

        Reconstructs every relation's region partition from the persisted
        partition boxes (deterministic, no LP is solved) and re-derives the
        alignment bookkeeping that grounding needs, so incremental
        maintenance can resume across vendor sessions from the summary JSON
        alone: ``ground`` takes the persisted boxes instead of grounding
        predicates, ``partition`` and ``align`` run exactly as in a live
        build, and the persisted counts stand in for ``formulate`` /
        ``solve``.  A summary whose ``build_info`` records another mode or
        alignment than this Hydra's raises :class:`HydraError`.
        """
        self._check_built_with(summary, ("mode", "alignment"))
        schema = self.metadata.schema
        aqps, persisted = _parse_extension_state(summary.extension_state, schema)
        workload = decompose_workload(aqps, self.metadata)
        report = SummaryBuildReport()
        aligned: dict[str, AlignedRelation] = {}
        states: dict[str, RelationBuildState] = {}
        for table_name in schema.topological_order():
            table = schema.table(table_name)
            boxes, counts, built_rows = persisted[table_name]
            constraints = workload.for_relation(table_name)
            row_count = self.metadata.row_count(table_name)
            grounded = stages.ground(self.metadata, table, constraints, row_count, aligned, boxes)
            if built_rows is not None:
                # The diffing baseline is the row count the summary was
                # *built* for, not the one the current metadata reports: if
                # they differ (client data drifted between sessions), the
                # touched-set diff must flag the relation rather than
                # compare new-vs-new.
                grounded = grounded._replace(row_count=built_rows)
            state = stages.partition(table, grounded).state
            if counts.shape != (len(state.regions),):
                raise HydraError(
                    f"extension state of {table_name!r} is stale: "
                    f"{counts.size} counts for {len(state.regions)} regions"
                )
            aligned_relation = stages.align(self._aligner(table), table, state, counts, aligned)
            if aligned_relation.total_rows != summary.relation(table_name).total_rows:
                raise HydraError(
                    f"extension state of {table_name!r} is stale: restored "
                    f"{aligned_relation.total_rows} rows, summary has "
                    f"{summary.relation(table_name).total_rows}"
                )
            aligned[table_name] = aligned_relation
            states[table_name] = state
            report.relations[table_name] = RelationBuildInfo(
                relation=table_name,
                row_count=state.row_count,
                num_constraints=len(grounded.constraints),
                num_regions=len(state.regions),
                grid_variables=None,
                partition_seconds=0.0,
                solve_seconds=0.0,
                status="restored",
                max_relative_error=0.0,
                reused=True,
            )
        return HydraBuildResult(summary, report, aqps, aligned, states)

    def regenerate(
        self,
        summary: DatabaseSummary,
        rate_limiter: RateLimiter | None = None,
        materialize: Iterable[str] = (),
        batch_size: int = 8192,
        shared_rate_limiter: bool = False,
        workers: int = 1,
    ) -> Database:
        """Create a (mostly dataless) database from a summary.

        Relations listed in ``materialize`` are materialised eagerly through
        their tuple generator; all others are attached as ``datagen``
        relations that regenerate rows on demand during query execution.
        Names that are not relations of ``summary`` raise
        :class:`~repro.core.errors.HydraError` (listing every bad name)
        instead of being silently ignored.

        :func:`repro.sinks.export_summary` is the driver that streams the
        same providers into a deployable export instead.

        With ``workers`` > 1 every attached
        :class:`~repro.executor.datagen.DataGenRelation` regenerates its
        blocks across that many worker processes — a yield-for-yield
        identical stream.  This argument is the only way to ask for worker
        processes.

        ``rate_limiter`` provides the velocity configuration.  By default
        every relation gets its own fresh :meth:`~RateLimiter.clone` so each
        stream is paced independently (relation B is not slowed down as if
        relation A's rows counted against its budget); this holds for any
        ``workers`` value because a parallel relation throttles its *merged*
        stream in the consuming process, never inside workers.  Pass
        ``shared_rate_limiter=True`` for an explicit global-budget mode where
        all relations draw from the single caller-supplied limiter — with
        ``workers`` > 1 that budget likewise paces the merged streams, not
        each worker separately.
        """
        wanted = set(materialize)
        unknown = sorted(wanted - set(summary.relations))
        if unknown:
            raise HydraError(
                "cannot materialize unknown relation(s) "
                + ", ".join(repr(name) for name in unknown)
                + "; summary has: "
                + ", ".join(repr(name) for name in sorted(summary.relations))
            )
        with span("hydra.regenerate", materialized=len(wanted)):
            database = Database(schema=summary.schema, providers={})
            for table_name, relation in summary_relation_providers(
                summary,
                rate_limiter=rate_limiter,
                batch_size=batch_size,
                shared_rate_limiter=shared_rate_limiter,
                workers=workers,
            ):
                if table_name in wanted:
                    with span("regen.materialize", relation=table_name):
                        data = relation.materialize(summary.schema.table(table_name))
                        database.attach(table_name, MaterializedRelation(data))
                else:
                    database.attach(table_name, relation)
            return database

    def tuple_generator(self, summary: DatabaseSummary, table_name: str) -> TupleGenerator:
        """Convenience accessor for a single relation's tuple generator."""
        return TupleGenerator(
            table=summary.schema.table(table_name), summary=summary.relation(table_name)
        )

    # -- the one build / extend loop -----------------------------------------

    def _refresh(self, base: HydraBuildResult, aqps: list[AnnotatedQueryPlan]) -> HydraBuildResult:
        """Re-solve the relations ``aqps`` touches relative to ``base``.

        Untouched relations carry their state, alignment and summary rows
        over from ``base``; touched ones run the stage sequence, warm-started
        from their previous state.  A ``base`` without states is a cold
        build: everything is touched and the summary is assembled fresh
        instead of spliced.
        """
        start = time.perf_counter()
        schema = self.metadata.schema
        cold = not base.states
        workload = decompose_workload(aqps, self.metadata)
        touched = self._touched_relations(base, workload)

        report = SummaryBuildReport()
        aligned: dict[str, AlignedRelation] = {}
        states: dict[str, RelationBuildState] = {}
        replacements: dict[str, RelationSummary] = {}
        for table_name in schema.topological_order():
            if table_name not in touched:
                aligned[table_name] = base.aligned[table_name]
                states[table_name] = base.states[table_name]
                previous_info = base.report.relations.get(table_name)
                if previous_info is not None:
                    report.relations[table_name] = replace(previous_info, reused=True)
                add_counter("pipeline.relations_reused")
                continue
            table, prev = schema.table(table_name), base.states.get(table_name)
            built = self._build_relation(table, workload, aligned, prev)
            report.relations[table_name], aligned[table_name], states[table_name] = built
            replacements[table_name] = aligned[table_name].summary
            add_counter("pipeline.relations_built" if cold else "pipeline.relations_resolved")

        if cold or replacements:
            if cold:
                summary = DatabaseSummary(schema=schema, relations=replacements)
            else:
                summary = base.summary.splice(replacements)
            # Restricted to the re-solved relations: the untouched ones are
            # shared with the base summary, which already enforced them.
            with span("hydra.referential_integrity"):
                report.referential = enforce_referential_integrity(summary, only=replacements)
            summary.validate()
            report.total_seconds = time.perf_counter() - start
            summary.build_info = {
                "mode": self.mode,
                "alignment": self.alignment,
                "total_seconds": report.total_seconds,
                "lp_variables": report.total_lp_variables(),
                "constraints": report.total_constraints(),
            }
            if not cold:
                summary.build_info.update(
                    extended=True,
                    delta_queries=len(aqps) - len(base.aqps),
                    resolved_relations=sorted(replacements),
                )
        else:
            # The delta added nothing new (or was empty): the base summary is
            # reused as-is, build_info untouched.
            summary = base.summary
            report.referential = base.report.referential
            report.total_seconds = time.perf_counter() - start
        return HydraBuildResult(summary, report, aqps, aligned, states)

    def _build_relation(
        self,
        table: Table,
        workload: WorkloadConstraints,
        aligned: Mapping[str, AlignedRelation],
        prev: RelationBuildState | None,
    ) -> tuple[RelationBuildInfo, AlignedRelation, RelationBuildState]:
        """Run the stage sequence of :mod:`repro.core.stages` for one relation."""
        with span("solve.relation", relation=table.name) as relation_span:
            constraints = workload.for_relation(table.name)
            row_count = self.metadata.row_count(table.name)
            grounded = stages.ground(self.metadata, table, constraints, row_count, aligned)
            part = stages.partition(table, grounded, prev)
            guided = self.mode == "exact"
            problem = stages.formulate(self.metadata, table, grounded, part, guided, aligned, prev)
            state = part.state
            solution = stages.solve(problem, state, self.mode, prev)
            counts = solution.integral_counts
            aligned_relation = stages.align(self._aligner(table), table, state, counts, aligned)
            lp_skipped = prev is not None and solution is prev.solution
            grounded_boxes = grounded.boxes[: len(grounded.constraints)]
            info = RelationBuildInfo(
                relation=table.name,
                row_count=row_count,
                num_constraints=len(grounded.constraints),
                num_regions=len(state.regions),
                grid_variables=grid_variable_count(grounded_boxes, state.domain),
                partition_seconds=part.seconds,
                solve_seconds=0.0 if lp_skipped else solution.solve_seconds,
                status=solution.status,
                max_relative_error=solution.max_relative_error,
                soft_fallback=state.fallback,
                warm_start=part.resumed or lp_skipped,
                boxes_visited=part.boxes_visited,
                boxes_split=part.boxes_split,
            )
            relation_span.annotate(
                regions=info.num_regions, status=info.status, warm_start=info.warm_start
            )
        return info, aligned_relation, state

    def _touched_relations(self, base: HydraBuildResult, workload: WorkloadConstraints) -> set[str]:
        """Relations whose build inputs changed under the union workload.

        Directly touched: the deduplicated constraint signature or the
        tracking-predicate set differs from the base build (or no base state
        exists).  The set is then closed transitively over foreign-key
        *referencing* edges: re-solving a relation may realign its pk index
        space, which invalidates every grounded predicate other relations
        borrowed through foreign keys pointing at it.
        """
        touched: set[str] = set()
        for table in self.metadata.schema:
            state = base.states.get(table.name)
            if state is None:
                touched.add(table.name)
                continue
            constraints = workload.for_relation(table.name)
            row_count = self.metadata.row_count(table.name)
            _, _, signature = relation_signatures(constraints, row_count)
            if (signature, tuple(constraints.tracking), row_count) != (
                state.constraint_signature, state.tracking_signature, state.row_count
            ):
                touched.add(table.name)

        frontier = list(touched)
        while frontier:
            name = frontier.pop()
            for referencing_table, _fk in self.metadata.schema.referencing_tables(name):
                if referencing_table.name not in touched:
                    touched.add(referencing_table.name)
                    frontier.append(referencing_table.name)
        return touched

    def _check_built_with(self, summary: DatabaseSummary, keys: tuple[str, ...]) -> None:
        """Refuse a summary whose ``build_info`` records another configuration."""
        for key in keys:
            recorded, requested = summary.build_info.get(key), getattr(self, key)
            if recorded is not None and recorded != requested:
                raise HydraError(
                    f"summary was built with {key}={recorded!r}, "
                    f"which does not match the requested {key}={requested!r}"
                )

    def _aligner(self, table: Table) -> SamplingAligner | DeterministicAligner:
        statistics = self.metadata.statistics.get(table.name)
        if self.alignment == "sampling":
            return SamplingAligner(statistics=statistics)
        return DeterministicAligner(statistics=statistics)


def _aqp_key(aqp: AnnotatedQueryPlan) -> str:
    """Content identity of one AQP (used to drop replayed delta queries)."""
    return json.dumps(aqp.to_dict(), sort_keys=True, separators=(",", ":"))


def summary_relation_providers(
    summary: DatabaseSummary,
    rate_limiter: RateLimiter | None = None,
    batch_size: int = 8192,
    shared_rate_limiter: bool = False,
    workers: int = 1,
    relations: Iterable[str] | None = None,
) -> Iterator[tuple[str, DataGenRelation]]:
    """Yield one configured ``datagen`` provider per relation of ``summary``.

    This is the single place regeneration consumers (``Hydra.regenerate``,
    the streaming export driver :func:`repro.sinks.export_summary`, the
    server) build their relation providers, so worker, batching and
    rate-limiting semantics can never drift between the queryable database
    and an export.  Relations are yielded in summary order, restricted to
    ``relations`` when given (no provider is constructed for unselected
    ones).
    """
    selected = None if relations is None else set(relations)
    for table_name in summary.relations:
        if selected is not None and table_name not in selected:
            continue
        generator = TupleGenerator(
            table=summary.schema.table(table_name), summary=summary.relation(table_name)
        )
        if rate_limiter is None:
            limiter = RateLimiter.unlimited()
        elif shared_rate_limiter:
            limiter = rate_limiter
        else:
            limiter = rate_limiter.clone()
        yield table_name, DataGenRelation(
            source=generator,
            rate_limiter=limiter,
            batch_size=batch_size,
            workers=workers,
        )
