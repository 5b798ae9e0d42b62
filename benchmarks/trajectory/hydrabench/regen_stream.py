"""regen-stream: the full serial tuple stream of every relation, pass after pass."""

from __future__ import annotations

import numpy as np

from repro import DataGenRelation
from repro.telemetry import TelemetrySession

from .base import Slice, Workload, loop_until, scaled_build, timed_cycles, tpcds_client
from .recorder import Recorder, median

#: Random-access probes and sampled stream rows are drawn from this fixed
#: seed: they check and time the program, they are not workload input.
PROBE_SEED = 11


class RegenStream(Workload):
    """One operation is one pass: ``regenerate`` then every block of every relation.

    Generation velocity is the paper's headline for dynamic regeneration;
    ``core.tuplegen`` and ``executor.datagen`` do all of the work here and
    the pipeline, engine and sinks none.
    """

    name = "regen-stream"

    def setup(self, rec: Recorder) -> None:
        metadata, aqps = tpcds_client(self.size, self.seed, rec)
        self.hydra, result, _ = scaled_build(metadata, aqps, self.size["row_scale"])
        self.summary = result.summary
        self.summary_bytes = self.summary.size_bytes()
        self.rows_per_relation: dict[str, int] = {}
        self.edge_blocks: dict[str, list[tuple[int, dict[str, np.ndarray]]]] = {}

    def measure(self, rec: Recorder, seconds: float, traced: bool = False) -> list[Slice]:
        return timed_cycles(rec, seconds, "stream pass", lambda: self._stream_pass(rec))

    def _stream_pass(self, rec: Recorder) -> int:
        with rec.section("core.pipeline.regenerate"):
            database = self.hydra.regenerate(self.summary)
        total = 0
        for name in self.summary.relations:
            rows = 0
            first = last = None
            with rec.section("executor.datagen.iter_blocks"):
                for start, count, block in database.provider(name).iter_blocks():
                    if first is None:
                        first = (start, block)
                    last = (start, block)
                    rows += count
            self.rows_per_relation[name] = rows
            self.edge_blocks[name] = [edge for edge in (first, last) if edge is not None]
            total += rows
        return total

    def check(self, rec: Recorder) -> None:
        rng = np.random.default_rng(PROBE_SEED)
        for name in self.summary.relations:
            expected = self.summary.row_count(name)
            streamed = self.rows_per_relation.get(name)
            rec.operation(streamed == expected, f"{name}: streamed {streamed} rows, summary has {expected}")
            generator = self.hydra.tuple_generator(self.summary, name)
            columns = generator.column_names
            agree = True
            for start, block in self.edge_blocks.get(name, []):
                size = len(block[columns[0]])
                for offset in rng.integers(0, size, size=min(8, size)):
                    streamed_row = tuple(block[column][offset] for column in columns)
                    agree = agree and streamed_row == tuple(generator.row(start + int(offset)))
            rec.operation(agree, f"{name}: streamed rows differ from TupleGenerator.row(i)")

    def layers(self, rec: Recorder, seconds: float, session: TelemetrySession) -> None:
        largest = max(self.summary.relations, key=self.summary.row_count)
        generator = self.hydra.tuple_generator(self.summary, largest)
        relation = self.summary.relation(largest)
        total = generator.row_count
        batch = DataGenRelation(source=generator).batch_size
        starts = range(0, total, batch)
        share = seconds / 4.0

        bare, wrapped = [], []
        for _ in loop_until(share):
            with rec.section("core.tuplegen.generate_block"):
                for start in starts:
                    generator.generate_block(start, min(batch, total - start))
            bare.append(total / rec.samples["core.tuplegen.generate_block"][-1])
            with rec.section("executor.datagen.probe"):
                for _block in DataGenRelation(source=generator).iter_blocks():
                    pass
            wrapped.append(total / rec.samples["executor.datagen.probe"][-1])

        indices = np.random.default_rng(PROBE_SEED).integers(0, total, size=2000)
        with rec.section("core.tuplegen.row"):
            for index in indices:
                generator.row(int(index))
        segments = sum(
            relation.locate(min(start + batch, total) - 1)[0] - relation.locate(start)[0] + 1
            for start in starts
        )

        chunk_before = _histogram(session, "pool.chunk.seconds")
        parallel_rates = []
        for _ in loop_until(share):
            database = self.hydra.regenerate(self.summary, workers=2)
            with rec.section("parallel.pool.iter_blocks"):
                rows = sum(count for _start, count, _block in database.provider(largest).iter_blocks())
            rec.operation(rows == total, f"workers=2 streamed {rows} of {total} rows")
            parallel_rates.append(total / rec.samples["parallel.pool.iter_blocks"][-1])
        chunk_after = _histogram(session, "pool.chunk.seconds")
        chunks = chunk_after[1] - chunk_before[1]

        rec.set("client.extract_s", rec.total("client.extract"))
        rec.set("core.summary.rows", self.summary.total_summary_rows())
        rec.set("core.tuplegen.rows_per_s", median(bare))
        rec.set("core.tuplegen.segments_per_block", segments / len(starts))
        rec.set("core.tuplegen.row_access_us", rec.total("core.tuplegen.row") / len(indices) * 1e6)
        rec.set("executor.datagen.rows_per_s", median(wrapped))
        rec.set("executor.datagen.overhead_share", 1.0 - median(wrapped) / median(bare))
        rec.set("parallel.pool.rows_per_s_w2", median(parallel_rates))
        rec.set("parallel.pool.speedup_w2", median(parallel_rates) / median(wrapped))
        if chunks:
            rec.set("parallel.pool.chunk_s_mean", (chunk_after[0] - chunk_before[0]) / chunks)


def _histogram(session: TelemetrySession, name: str) -> tuple[float, float]:
    """Sum and count of a program histogram (zeros when the program never emitted it)."""
    entry = session.metrics.snapshot()["histograms"].get(name)
    return (float(entry["sum"]), float(entry["count"])) if entry else (0.0, 0.0)
