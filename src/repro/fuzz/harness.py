"""The differential fuzzing harness.

One scenario run is the full HYDRA round trip over one synthesized seed:

1. :func:`~repro.workload.synth.synthesize_scenario` draws schema, client
   data, workload and delta batches;
2. the client side extracts metadata + AQPs, the vendor side builds the
   summary and regenerates a (dataless) database from it;
3. the same summary is exported through the SQLite sink, and stock
   ``sqlite3`` becomes the oracle over the *same* regenerated tuples;
4. every workload query is answered on each enabled result route — the
   dataless database (its summary fast path), the same regenerated tuples
   materialised, and via the HTTP server — and checked
   against the oracle: COUNT and ``SELECT *`` row counts must agree exactly,
   and so must a ``SELECT *``'s sum of each joined table's primary key (a
   wrong join partner changes it); SUM/AVG within a float-summation
   tolerance;
5. results and plan annotations must be route-independent: the dataless
   and the materialised database must return the same value to the last bit
   and annotate every node alike, and the server must annotate exactly like
   the local fast path;
6. on delta seeds the scenario's delta batches feed
   :meth:`~repro.core.pipeline.Hydra.extend_summary`; the extended summary
   is re-exported, re-checked against the oracle for every query seen so
   far, and finally pinned byte-identical (by fingerprint) to a
   from-scratch build of the union workload.

Disagreements are shrunk by :mod:`repro.fuzz.minimize` into replayable
corpus entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Iterable, Sequence

import numpy as np

from ..catalog.metadata import DatabaseMetadata
from ..client.extractor import AQPExtractor
from ..client.package import InformationPackage
from ..core.errors import DecompositionError
from ..core.pipeline import Hydra, HydraBuildResult
from ..core.preprocessor import decompose_workload
from ..executor.engine import ExecutionEngine
from ..plans.aqp import AnnotatedQueryPlan
from ..plans.planner import build_plan
from ..plans.logical import PlanNode
from ..server import BackgroundServer, ServerClient, SummaryService
from ..storage.database import Database
from ..workload.synth import SynthConfig, SynthQuery, SynthScenario, synthesize_scenario
from .oracle import SqliteOracle

__all__ = [
    "ROUTES",
    "Disagreement",
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
    "run_scenario",
]

#: Every result route the harness can exercise.
ROUTES = ("fastpath", "materialised", "server")

#: The routes answered in this process (no server).
_LOCAL_ROUTES = ("fastpath", "materialised")

_AGGREGATE_COLUMNS = ("count", "sum", "avg")


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of one fuzzing campaign."""

    seed_count: int = 25
    base_seed: int = 0
    routes: tuple[str, ...] = ROUTES
    #: Every ``delta_every``-th seed additionally runs the delta phase.
    delta_every: int = 3
    #: Relative tolerance for SUM/AVG against the SQLite oracle (its summation order differs).
    rel_tol: float = 1e-6
    #: Template for per-seed synth configs (its ``seed`` is overridden).
    synth: SynthConfig = field(default_factory=SynthConfig)
    #: Append minimized repros of any disagreement to this JSONL file.
    corpus_path: str | None = None
    #: Shrink failures with the delta-debugging minimizer.
    minimize: bool = True

    def __post_init__(self) -> None:
        """Reject unknown routes up front."""
        unknown = set(self.routes) - set(ROUTES)
        if unknown:
            raise ValueError(f"unknown routes {sorted(unknown)}; pick from {ROUTES}")
        if not self.routes:
            raise ValueError("at least one route must be enabled")
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")


@dataclass(frozen=True)
class Disagreement:
    """One engine-vs-oracle (or route-vs-route) mismatch."""

    seed: int
    phase: str
    query_name: str
    kind: str
    route: str
    sql: str
    engine_value: Any
    oracle_value: Any
    detail: str

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"seed {self.seed} [{self.phase}] {self.query_name} ({self.kind}) "
            f"route={self.route}: engine={self.engine_value!r} "
            f"oracle={self.oracle_value!r} — {self.detail}\n    {self.sql}"
        )


@dataclass
class FuzzReport:
    """Outcome of a whole campaign."""

    seeds: list[int] = field(default_factory=list)
    queries_checked: int = 0
    delta_scenarios: int = 0
    route_counts: dict[str, int] = field(default_factory=dict)
    disagreements: list[Disagreement] = field(default_factory=list)
    corpus_entries: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the campaign finished without a single disagreement."""
        return not self.disagreements

    def merge_routes(self, counts: dict[str, int]) -> None:
        """Fold one scenario's per-route check counts into the totals."""
        for route, count in counts.items():
            self.route_counts[route] = self.route_counts.get(route, 0) + count

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CI artifact)."""
        return {
            "schema_version": 1,
            "seeds": self.seeds,
            "queries_checked": self.queries_checked,
            "delta_scenarios": self.delta_scenarios,
            "route_counts": dict(sorted(self.route_counts.items())),
            "ok": self.ok,
            "disagreements": [d.describe() for d in self.disagreements],
            "corpus_entries": self.corpus_entries,
        }

    def describe(self) -> str:
        """Human summary line for the CLI."""
        routes = ", ".join(
            f"{route}={count}" for route, count in sorted(self.route_counts.items())
        )
        status = "ok" if self.ok else f"{len(self.disagreements)} DISAGREEMENT(S)"
        return (
            f"fuzz: {len(self.seeds)} seed(s), {self.queries_checked} query "
            f"check(s) [{routes}], {self.delta_scenarios} delta scenario(s): "
            f"{status}"
        )


def _annotations(plan: PlanNode) -> list[tuple[str, int]]:
    """The executed plan's annotations as comparable tuples.

    Node ids are intentionally excluded: they come from a process-global
    counter, so two builds of the same plan number their nodes differently.
    Operator order in ``iter_nodes`` is deterministic, which is what makes
    the per-route sequences comparable.
    """
    return [
        (str(node.operator), int(node.cardinality))
        for node in plan.iter_nodes()
        if node.cardinality is not None
    ]


def _engine_value(
    kind: str, columns: dict[str, Any], row_count: int, pk_columns: Sequence[str] = ()
) -> Any:
    """Extract the checked value from an engine/server result.

    A ``SELECT *`` is checked as its row count plus the sum of each of
    ``pk_columns`` (:attr:`~repro.workload.synth.SynthQuery.pk_columns`).
    """
    if kind == "select_star":
        sums = (int(np.asarray(columns[name], dtype=np.int64).sum()) for name in pk_columns)
        return (int(row_count), *sums)
    for name in _AGGREGATE_COLUMNS:
        if name in columns:
            cell = columns[name][0]
            return cell.item() if hasattr(cell, "item") else cell
    raise KeyError(
        f"aggregate result has none of {_AGGREGATE_COLUMNS}: {sorted(columns)}"
    )


def _values_agree(kind: str, engine: Any, oracle: Any, rel_tol: float) -> bool:
    """Whether an engine value matches the oracle's under the route contract."""
    if kind == "select_star":
        # SQLite sums no rows to NULL; the engine's sum is 0.
        return tuple(engine) == tuple(0 if value is None else int(value) for value in oracle)
    if oracle is None:
        # SQLite SUM/AVG over zero rows is NULL; the engine reports 0.0.
        oracle = 0
    if isinstance(engine, int):
        return int(engine) == int(oracle)
    engine_f = float(engine)
    oracle_f = float(oracle)
    return abs(engine_f - oracle_f) <= rel_tol * max(
        1.0, abs(engine_f), abs(oracle_f)
    )


@dataclass
class _ScenarioSetup:
    """Everything one differential pass needs."""

    seed: int
    scenario: SynthScenario
    hydra: Hydra
    extractor: AQPExtractor
    result: HydraBuildResult


def _differential_pass(
    setup: _ScenarioSetup,
    queries: Sequence[SynthQuery],
    config: FuzzConfig,
    phase: str,
    client: ServerClient | None,
    routes: Sequence[str] | None = None,
) -> tuple[list[Disagreement], int, dict[str, int]]:
    """Check ``queries`` against the oracle on every enabled route.

    Regenerates fresh engine databases from the setup's current summary,
    exports the same summary for the oracle, and compares every query's
    value per route plus the cross-route annotation invariants.
    """
    active = [route for route in (routes or config.routes)]
    summary = setup.result.summary
    schema = setup.scenario.schema
    disagreements: list[Disagreement] = []
    route_counts: dict[str, int] = {route: 0 for route in active}

    engines: dict[str, ExecutionEngine] = {}
    if any(route in active for route in _LOCAL_ROUTES):
        dataless = setup.hydra.regenerate(summary)
        if "fastpath" in active:
            engines["fastpath"] = ExecutionEngine(database=dataless)
        if "materialised" in active:
            # The same tuples, scanned: no block stream, segment skipping or
            # semi-join box of the dataless route is shared.
            materialised = Database.from_table_data(
                schema,
                [dataless.provider(name).materialize(schema.table(name)) for name in dataless],
            )
            engines["materialised"] = ExecutionEngine(database=materialised)

    server_name = f"fuzz-{setup.seed}-{phase}"
    if client is not None and "server" in active:
        client.load_summary(server_name, summary=summary)

    with SqliteOracle.from_summary(summary) as oracle:
        for synth_query in queries:
            pk_columns = synth_query.pk_columns
            if synth_query.kind == "select_star":
                oracle_value: Any = oracle.rows(synth_query.oracle_sql)[0]
            else:
                oracle_value = oracle.scalar(synth_query.oracle_sql)
            annotations: dict[str, list[tuple[str, int]]] = {}
            values: dict[str, Any] = {}
            for route, engine in engines.items():
                plan = build_plan(synth_query.query, schema)
                result = engine.execute(plan)
                values[route] = _engine_value(
                    synth_query.kind, result.columns, result.row_count, pk_columns
                )
                annotations[route] = _annotations(plan)
            if client is not None and "server" in active:
                response = client.query(server_name, synth_query.sql)
                values["server"] = _engine_value(
                    synth_query.kind, response.columns, response.row_count, pk_columns
                )
                annotations["server"] = [
                    (str(item["operator"]), int(item["cardinality"]))
                    for item in response.annotations
                ]
            for route, engine_value in values.items():
                route_counts[route] += 1
                if not _values_agree(
                    synth_query.kind, engine_value, oracle_value, config.rel_tol
                ):
                    source = "served" if route == "server" else "engine"
                    disagreements.append(
                        Disagreement(
                            seed=setup.seed,
                            phase=phase,
                            query_name=synth_query.name,
                            kind=synth_query.kind,
                            route=route,
                            sql=synth_query.sql,
                            engine_value=engine_value,
                            oracle_value=oracle_value,
                            detail=f"{source} result disagrees with SQLite oracle",
                        )
                    )
            mismatch = partial(_route_mismatches, setup.seed, phase, synth_query)
            disagreements.extend(
                mismatch("materialised", values, "results are not bit-identical")
            )
            for other in ("materialised", "server"):
                disagreements.extend(
                    mismatch(other, annotations, "plan annotations are not route-independent")
                )
    if client is not None and "server" in active:
        client.evict(server_name)
    return disagreements, len(queries), route_counts


def _route_mismatches(
    seed: int,
    phase: str,
    synth_query: SynthQuery,
    other: str,
    observed: dict[str, Any],
    detail: str,
) -> list[Disagreement]:
    """Route-independence: the fast path and ``other`` must observe the same thing.

    The oracle check allows SUM/AVG a float-summation tolerance against
    SQLite; the local routes owe each other the same value to the last bit
    (both round the exact sum once), and every route annotates every node
    alike.
    """
    mine, theirs = observed.get("fastpath"), observed.get(other)
    if mine is None or theirs is None or mine == theirs:
        return []
    return [
        Disagreement(
            seed=seed,
            phase=phase,
            query_name=synth_query.name,
            kind=synth_query.kind,
            route=f"fastpath-vs-{other}",
            sql=synth_query.sql,
            engine_value=mine,
            oracle_value=theirs,
            detail=detail,
        )
    ]


def package_aqps(
    extractor: AQPExtractor,
    metadata: DatabaseMetadata,
    queries: Sequence[SynthQuery],
) -> list[AnnotatedQueryPlan]:
    """Extract the AQPs of the queries a client could actually package.

    Mirrors the real HYDRA contract: queries whose plans the LP
    decomposition cannot turn into volumetric constraints (disjunctive
    joins, multi-column disjunctive filters) are *executed* by the engine
    but never shipped in an information package.  The harness still checks
    them differentially — just over a summary built from the packageable
    remainder.
    """
    aqps: list[AnnotatedQueryPlan] = []
    for query in queries:
        aqp = extractor.extract(query.query)
        try:
            decompose_workload([aqp], metadata)
        except DecompositionError:
            continue
        aqps.append(aqp)
    return aqps


def prepare_scenario(
    seed: int, config: FuzzConfig, query_names: Iterable[str] | None = None
) -> _ScenarioSetup:
    """Synthesize seed ``seed`` and build its base summary.

    ``query_names`` restricts the base workload to the named queries (the
    minimizer's and corpus replay's hook); ``None`` uses the full workload.
    """
    synth_config = replace(config.synth, seed=seed)
    scenario = synthesize_scenario(synth_config)
    queries = list(scenario.queries)
    if query_names is not None:
        wanted = set(query_names)
        queries = [query for query in scenario.all_queries if query.name in wanted]
    extractor = AQPExtractor(database=scenario.database)
    metadata = extractor.profile_metadata()
    aqps = package_aqps(extractor, metadata, queries)
    hydra = Hydra(metadata=metadata)
    result = hydra.build_summary(aqps)
    return _ScenarioSetup(
        seed=seed,
        scenario=scenario,
        hydra=hydra,
        extractor=extractor,
        result=result,
    )


def run_scenario(
    seed: int,
    config: FuzzConfig,
    client: ServerClient | None = None,
    with_delta: bool = False,
) -> tuple[list[Disagreement], int, dict[str, int]]:
    """Run the full differential round trip for one seed.

    Returns ``(disagreements, queries_checked, route_counts)``.  With
    ``with_delta`` the scenario's delta batches are applied through
    ``extend_summary`` one by one, each followed by a re-check of every
    query seen so far (on the serial routes), and the final extended
    summary is pinned fingerprint-identical to a from-scratch union build.
    """
    setup = prepare_scenario(seed, config)
    checked_queries = list(setup.scenario.queries)
    disagreements, checked, route_counts = _differential_pass(
        setup, checked_queries, config, "static", client
    )

    if with_delta and setup.scenario.delta_batches:
        base_package = InformationPackage(
            metadata=setup.hydra.metadata,
            aqps=list(setup.result.aqps),
            client_name=f"synth-{seed}",
        )
        for index, batch in enumerate(setup.scenario.delta_batches):
            if not batch:
                continue
            delta_aqps = package_aqps(
                setup.extractor, setup.hydra.metadata, batch
            )
            # Round-trip through the delta-package envelope the way a real
            # client ships it (fingerprint pinning included).
            delta = base_package.make_delta(delta_aqps)
            setup.result = setup.hydra.extend_summary(setup.result, delta.aqps)
            base_package = base_package.apply_delta(delta)
            checked_queries.extend(batch)
            delta_routes = [
                route for route in config.routes if route in _LOCAL_ROUTES
            ] or list(config.routes[:1])
            more, extra_checked, extra_routes = _differential_pass(
                setup,
                checked_queries,
                config,
                f"delta{index}",
                client,
                routes=delta_routes,
            )
            disagreements.extend(more)
            checked += extra_checked
            for route, count in extra_routes.items():
                route_counts[route] = route_counts.get(route, 0) + count
        # The incremental contract: every relation's summary rows — and
        # therefore its regenerated tuple stream — must be bit-identical to
        # a from-scratch build of the union workload.  (The whole-summary
        # fingerprint legitimately differs: extending bumps ``version``.)
        scratch = setup.hydra.build_summary(setup.result.aqps)
        for name in scratch.summary.relations:
            if (
                scratch.summary.relations[name].to_dict()
                != setup.result.summary.relations[name].to_dict()
            ):
                disagreements.append(
                    Disagreement(
                        seed=seed,
                        phase="delta-final",
                        query_name="*",
                        kind="fingerprint",
                        route="extend-vs-rebuild",
                        sql="",
                        engine_value=f"relation {name} (extended)",
                        oracle_value=f"relation {name} (rebuilt)",
                        detail="extended summary relation is not bit-identical "
                        "to a from-scratch union build",
                    )
                )
    return disagreements, checked, route_counts


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a whole campaign: ``seed_count`` seeds starting at ``base_seed``."""
    from .minimize import append_corpus, minimize_failure

    report = FuzzReport()
    service: SummaryService | None = None
    server: BackgroundServer | None = None
    client: ServerClient | None = None
    try:
        if "server" in config.routes:
            service = SummaryService()
            server = BackgroundServer(service)
            server.__enter__()
            client = ServerClient("127.0.0.1", server.port, tenant="fuzz")
        for offset in range(config.seed_count):
            seed = config.base_seed + offset
            with_delta = config.delta_every > 0 and offset % config.delta_every == 0
            disagreements, checked, route_counts = run_scenario(
                seed, config, client=client, with_delta=with_delta
            )
            report.seeds.append(seed)
            report.queries_checked += checked
            report.merge_routes(route_counts)
            if with_delta:
                report.delta_scenarios += 1
            if disagreements:
                report.disagreements.extend(disagreements)
                if config.minimize:
                    entry = minimize_failure(seed, config, disagreements[0])
                    report.corpus_entries.append(entry.to_dict())
                    if config.corpus_path:
                        append_corpus(config.corpus_path, entry)
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.__exit__(None, None, None)
    return report
