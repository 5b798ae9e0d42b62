"""export-sinks: write the regenerated database to CSV and SQLite, read both back."""

from __future__ import annotations

import time
from pathlib import Path

from repro import Manifest, export_summary, sink_for_format, verify_export
from repro.telemetry import TelemetrySession

from .base import Slice, Workload, loop_until, scaled_build, timed_cycles, tpcds_client
from .recorder import Recorder, median

FORMATS = ("csv", "sqlite")


def _directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class ExportSinks(Workload):
    """One operation exports to both backends, then verifies both exports.

    The sinks do nearly all of the work (tuple generation is about a hundred
    times faster than either backend).  ``verify_export`` re-reads what was
    written, so an encoding that speeds writes and slows reads shows.
    """

    name = "export-sinks"

    def setup(self, rec: Recorder) -> None:
        metadata, aqps = tpcds_client(self.size, self.seed, rec)
        self.hydra, result, _ = scaled_build(metadata, aqps, self.size["row_scale"])
        self.summary = result.summary
        self.summary_bytes = self.summary.size_bytes()
        self.rows = self.summary.total_rows()
        self.outcome: tuple[dict[str, Manifest], dict[str, bool]] | None = None

    def _directory(self, fmt: str) -> Path:
        return self.work_dir / f"export-{fmt}"

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        return timed_cycles(rec, seconds, "export cycle", lambda: self._cycle(rec))

    def _cycle(self, rec: Recorder) -> int:
        manifests, verified = {}, {}
        for fmt in FORMATS:
            with rec.section(f"sinks.{fmt}.export_summary"):
                manifests[fmt] = export_summary(
                    self.summary, sink_for_format(fmt, self._directory(fmt)), workers=1
                )
        for fmt in FORMATS:
            with rec.section(f"sinks.{fmt}.verify_export"):
                verified[fmt] = verify_export(self.summary, self._directory(fmt)).ok
        self.outcome = (manifests, verified)
        # Every row is written twice and read back twice.
        return 2 * len(FORMATS) * self.rows

    def check(self, rec: Recorder) -> None:
        if self.outcome is None:
            rec.operation(False, "no export cycle completed")
            return
        manifests, verified = self.outcome
        for fmt in FORMATS:
            rec.operation(verified[fmt], f"verify_export failed on the {fmt} export")
            rows = manifests[fmt].total_rows()
            rec.operation(rows == self.rows, f"{fmt} export holds {rows} rows, summary has {self.rows}")
        checksums = [
            {name: entry.column_checksums for name, entry in manifests[fmt].relations.items()}
            for fmt in FORMATS
        ]
        rec.operation(checksums[0] == checksums[1], "CSV and SQLite column checksums differ")

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        del session
        # Drive the sink interface by hand to split generating from writing.
        for _ in loop_until(seconds / 2.0):
            for fmt in FORMATS:
                directory = self._directory(f"{fmt}-probe")
                sink = sink_for_format(fmt, directory)
                database = self.hydra.regenerate(self.summary)
                generate = write = 0.0
                for name in self.summary.relations:
                    sink.open_relation(self.summary.schema.table(name))
                    mark = time.perf_counter()
                    for _start, _count, block in database.provider(name).iter_blocks():
                        generated = time.perf_counter()
                        with rec.section(f"sinks.{fmt}.write_block"):
                            sink.write_block(block)
                        generate += generated - mark
                        write += rec.samples[f"sinks.{fmt}.write_block"][-1]
                        mark = time.perf_counter()
                    sink.close_relation()
                with rec.section("sinks.finalize"):
                    sink.finalize(self.summary)
                rec.samples[f"{fmt}.write"].append(write)
                rec.samples["generate"].append(generate)
                rec.set(f"sinks.{fmt}.bytes_per_row", _directory_bytes(directory) / self.rows)

        export = {fmt: median(rec.samples[f"sinks.{fmt}.export_summary"]) for fmt in FORMATS}
        verify = {fmt: median(rec.samples[f"sinks.{fmt}.verify_export"]) for fmt in FORMATS}
        rec.set("client.extract_s", rec.total("client.extract"))
        rec.set("core.summary.rows", self.summary.total_summary_rows())
        for fmt in FORMATS:
            rec.set(f"sinks.{fmt}.rows_per_s", self.rows / export[fmt])
            rec.set(f"sinks.{fmt}.write_block_s", median(rec.samples[f"{fmt}.write"]))
        rec.set("sinks.generate_s", median(rec.samples["generate"]))
        rec.set("sinks.finalize_s", median(rec.samples["sinks.finalize"]))
        rec.set("sinks.export_rows_per_s", len(FORMATS) * self.rows / sum(export.values()))
        rec.set("sinks.verify_export_s", sum(verify.values()))
        rec.set("sinks.verify_rows_per_s", len(FORMATS) * self.rows / sum(verify.values()))
