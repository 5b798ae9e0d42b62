"""What every workload provides, and the two client environments they share."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro import (
    AQPExtractor,
    AnnotatedQueryPlan,
    DatabaseMetadata,
    Hydra,
    HydraBuildResult,
    Scenario,
    SynthConfig,
    TPCDSConfig,
    WorkloadConfig,
    generate_tpcds_database,
    generate_workload,
    synthesize_scenario,
)
from repro.core import DecompositionError, decompose_workload
from repro.telemetry import TelemetrySession

from .recorder import Recorder


@dataclass
class Slice:
    """One pass of a workload's closed loop; every slice of a run does the same work."""

    ops: list[float] = field(default_factory=list)
    work: float = 0.0
    wall: float = 0.0
    complete: bool = True


class Workload:
    """One workload: set up inputs, run the timed loop, check the outputs.

    ``setup`` may run several times (set-up time is reported as a median);
    the state of the last call is what ``measure`` uses.  ``layers`` runs
    only in the traced run and turns section timings, program counters and
    direct probes into the per-layer metrics.
    """

    name = ""
    #: Callers issuing operations at the same time.
    concurrency = 1

    def __init__(self, size: dict[str, Any], seed: int, work_dir: Path) -> None:
        self.size = size
        self.seed = seed
        self.work_dir = work_dir
        self.summary_bytes = 0
        #: Trace files other processes of the workload wrote (copied to ``--trace-dir``).
        self.extra_traces: list[Path] = []

    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        """Run slices back to back for ``seconds``; operations are timed one by one."""
        raise NotImplementedError

    def check(self, rec: Recorder) -> None:
        raise NotImplementedError

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process doing the workload's work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop whatever the workload started (nothing by default)."""


def loop_until(deadline_seconds: float, minimum: int = 1) -> Iterator[int]:
    """Yield pass numbers until ``deadline_seconds`` elapsed and ``minimum`` passes ran."""
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < deadline_seconds:
        yield count
        count += 1


def timed_cycles(
    rec: Recorder, seconds: float, what: str, cycle: Callable[[], float]
) -> list[Slice]:
    """Closed loop of slices that are one operation each; ``cycle`` returns its work."""
    slices = []
    for _ in loop_until(seconds):
        started = time.perf_counter()
        try:
            work = cycle()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            rec.operation(False, f"{what} failed: {exc!r}")
            continue
        wall = time.perf_counter() - started
        slices.append(Slice(ops=[wall], work=work, wall=wall))
        rec.operation(True)
    return slices


def tpcds_client(
    size: dict[str, Any], seed: int, rec: Recorder
) -> tuple[DatabaseMetadata, list[AnnotatedQueryPlan]]:
    """The TPC-DS-like client: data drawn from ``seed``, queries from the shape seed."""
    database = generate_tpcds_database(TPCDSConfig(scale=size["tpcds_scale"], seed=seed))
    extractor = AQPExtractor(database=database)
    metadata = extractor.profile_metadata()
    queries = generate_workload(
        metadata, WorkloadConfig(num_queries=size["queries"], seed=size["shape_seed"])
    )
    with rec.section("client.extract"):
        aqps = extractor.extract_workload(queries)
    return metadata, aqps


def scaled_build(
    metadata: DatabaseMetadata, aqps: list[AnnotatedQueryPlan], row_scale: float
) -> tuple[Hydra, HydraBuildResult, list[AnnotatedQueryPlan]]:
    """Build the summary of the client scaled to ``row_scale`` times its rows."""
    scenario = Scenario(name="bench", metadata=metadata, aqps=aqps).scaled(row_scale)
    hydra = Hydra(metadata=scenario.metadata)
    return hydra, hydra.build_summary(scenario.aqps), scenario.aqps


def synth_client(
    size: dict[str, Any],
) -> tuple[Sequence[Any], Hydra, HydraBuildResult, list[AnnotatedQueryPlan]]:
    """A synthesized snowflake client, its scaled summary and the packaged AQPs.

    Queries the LP decomposition cannot turn into constraints are still
    executed by the workload but, as at a real client, never packaged.
    """
    scenario = synthesize_scenario(
        SynthConfig(
            seed=size["shape_seed"],
            topology="snowflake",
            min_relations=size["relations"],
            max_relations=size["relations"],
            num_queries=size["queries"],
            query_weights={kind: 1.0 for kind in size["kinds"]},
            delta_batches=0,
        )
    )
    extractor = AQPExtractor(database=scenario.database)
    metadata = extractor.profile_metadata()
    aqps = []
    for query in scenario.queries:
        aqp = extractor.extract(query.query)
        try:
            decompose_workload([aqp], metadata)
        except DecompositionError:
            continue
        aqps.append(aqp)
    hydra, result, scaled_aqps = scaled_build(metadata, aqps, size["row_scale"])
    return scenario.queries, hydra, result, scaled_aqps
