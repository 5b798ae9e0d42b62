"""vendor-build: information package -> summary, then three incremental extends."""

from __future__ import annotations

import math
import time

from repro import (
    DatabaseSummary,
    Hydra,
    HydraBuildResult,
    InformationPackage,
    SummaryBuildReport,
    VolumetricComparator,
)
from repro.core import decompose_workload
from repro.telemetry import TelemetrySession

from .base import Slice, Workload, timed_cycles, tpcds_client
from .recorder import Recorder, counter, median


def _resolved_seconds(report: SummaryBuildReport) -> tuple[float, float]:
    """Partition and solve seconds of the relations a run actually re-solved."""
    resolved = [info for info in report.relations.values() if not info.reused]
    return (
        math.fsum(info.partition_seconds for info in resolved),
        math.fsum(info.solve_seconds for info in resolved),
    )


class VendorBuild(Workload):
    """One operation is the vendor's life cycle for a client.

    A: load the package file, build the summary over all its queries, save
    it.  B: from a base build over the first queries (set-up), absorb the
    rest in three ``extend_summary`` steps.  B drives the same pipeline layer
    through warm start and reuse, so a cold-path gain that breaks reuse
    shows in the same number.  No tuple is generated in the timed part.
    """

    name = "vendor-build"

    def setup(self, rec: Recorder) -> None:
        metadata, aqps = tpcds_client(self.size, self.seed, rec)
        package = InformationPackage(metadata=metadata, aqps=aqps, client_name="bench")
        self.package_path = self.work_dir / "package.json"
        self.summary_path = self.work_dir / "summary.json"
        package.save(self.package_path)
        rec.set("client.package_bytes", self.package_path.stat().st_size)
        loaded = InformationPackage.load(self.package_path)
        self.aqps = list(loaded.aqps)
        base_count = self.size["base_queries"]
        step = self.size["step_queries"]
        self.steps = [
            self.aqps[base_count + index * step : base_count + (index + 1) * step]
            for index in range(self.size["extend_steps"])
        ]
        self.hydra = Hydra(metadata=loaded.metadata)
        self.base = self.hydra.build_summary(self.aqps[:base_count])
        self.built: HydraBuildResult | None = None
        self.extended: HydraBuildResult | None = None

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        return timed_cycles(rec, seconds, "vendor cycle", lambda: self._cycle(rec))

    def _cycle(self, rec: Recorder) -> int:
        iterations = counter("solver.lp_iterations")
        build_started = time.perf_counter()
        with rec.section("client.package_load"):
            package = InformationPackage.load(self.package_path)
        hydra = Hydra(metadata=package.metadata)
        with rec.section("core.pipeline.build_summary"):
            built = hydra.build_summary(package.aqps)
        with rec.section("core.summary.save"):
            built.summary.save(self.summary_path)
        rec.samples["build"].append(time.perf_counter() - build_started)
        partition, solve = _resolved_seconds(built.report)
        rec.samples["build.partition"].append(partition)
        rec.samples["build.solve"].append(solve)
        rec.samples["build.lp_iterations"].append(counter("solver.lp_iterations") - iterations)

        resumed = counter("warmstart.partition_resumed")
        skipped = counter("warmstart.lp_skipped")
        extend_started = time.perf_counter()
        current = self.base
        partition = solve = 0.0
        resolved = reused = 0
        for step in self.steps:
            with rec.section("core.pipeline.extend_summary"):
                current = self.hydra.extend_summary(current, step)
            step_partition, step_solve = _resolved_seconds(current.report)
            partition += step_partition
            solve += step_solve
            resolved += len(current.report.resolved_relations())
            reused += len(current.report.reused_relations())
        rec.samples["extend"].append(time.perf_counter() - extend_started)
        rec.samples["extend.partition"].append(partition)
        rec.samples["extend.solve"].append(solve)
        rec.samples["extend.resolved"].append(resolved)
        rec.samples["extend.reused"].append(reused)
        rec.samples["extend.resumed"].append(counter("warmstart.partition_resumed") - resumed)
        rec.samples["extend.lp_skipped"].append(counter("warmstart.lp_skipped") - skipped)
        self.built, self.extended = built, current
        self.summary_bytes = built.summary.size_bytes()
        return len(self.aqps) + sum(len(step) for step in self.steps)

    def check(self, rec: Recorder) -> None:
        built, extended = self.built, self.extended
        if built is None or extended is None:
            rec.operation(False, "no vendor cycle completed")
            return
        # The three extends absorbed exactly the queries the cold build saw.
        for name, relation in built.summary.relations.items():
            same = relation.to_dict() == extended.summary.relations[name].to_dict()
            rec.operation(same, f"{name}: summary rows after the extends differ from the cold build")
        with rec.section("verify.volumetric"):
            database = self.hydra.regenerate(built.summary)
            fidelity = VolumetricComparator(database).verify(self.aqps)
        rec.set("verify.edges", fidelity.total_edges)
        rec.set("verify.fidelity_share", fidelity.fraction_within(0.01))
        rec.operation(
            fidelity.fraction_within(0.10) == 1.0,
            f"an AQP edge is off by {fidelity.max_relative_error():.1%} (limit 10 %)",
        )
        rec.operation(
            DatabaseSummary.load(self.summary_path).fingerprint() == built.summary.fingerprint(),
            "the saved summary does not load back to the built one",
        )

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        del seconds, session
        built = self.built
        if built is None:
            return
        with rec.section("core.preprocessor.decompose_workload"):
            decompose_workload(self.aqps, self.hydra.metadata)
        with rec.section("core.summary.load"):
            DatabaseSummary.load(self.summary_path)
        decompose = rec.total("core.preprocessor.decompose_workload")
        build = median(rec.samples["core.pipeline.build_summary"])
        partition = median(rec.samples["build.partition"])
        solve = median(rec.samples["build.solve"])
        rec.set("client.extract_s", rec.total("client.extract"))
        rec.set("client.package_load_s", median(rec.samples["client.package_load"]))
        rec.set("core.preprocessor.decompose_s", decompose)
        rec.set("core.regions.partition_s", partition)
        rec.set("core.regions.count", built.report.total_lp_variables())
        rec.set("core.lp.constraints", built.report.total_constraints())
        rec.set("core.solver.solve_s", solve)
        rec.set("core.solver.lp_iterations", median(rec.samples["build.lp_iterations"]))
        rec.set("core.pipeline.build_s", median(rec.samples["build"]))
        rec.set("core.pipeline.other_s", build - partition - solve - decompose)
        rec.set("core.pipeline.extend_s", median(rec.samples["extend"]))
        rec.set("core.pipeline.extend.partition_s", median(rec.samples["extend.partition"]))
        rec.set("core.pipeline.extend.solve_s", median(rec.samples["extend.solve"]))
        rec.set("core.pipeline.extend.relations_resolved", median(rec.samples["extend.resolved"]))
        rec.set("core.pipeline.extend.relations_reused", median(rec.samples["extend.reused"]))
        rec.set("core.pipeline.extend.partition_resumed", median(rec.samples["extend.resumed"]))
        rec.set("core.pipeline.extend.lp_skipped", median(rec.samples["extend.lp_skipped"]))
        rec.set("core.summary.rows", built.summary.total_summary_rows())
        rec.set("core.summary.save_s", median(rec.samples["core.summary.save"]))
        rec.set("core.summary.load_s", rec.total("core.summary.load"))
        rec.set("verify.volumetric_s", rec.total("verify.volumetric"))
