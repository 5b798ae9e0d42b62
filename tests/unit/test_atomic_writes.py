"""Every whole-file writer replaces its file atomically: a failed write leaves the old one."""

from __future__ import annotations

import builtins
import errno
import io
from pathlib import Path

import pytest

from repro.catalog.metadata import collect_metadata
from repro.client.extractor import AQPExtractor
from repro.core.summary import DatabaseSummary
from repro.fuzz.cli import _emit
from repro.fuzz.harness import FuzzReport
from repro.serialization import write_atomic
from repro.sinks.manifest import Manifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.workload.toy import FIGURE1_QUERY, ToyConfig, generate_toy_database


class _HalfWriter:
    """A text stream whose first write puts half its text on disk, then fails."""

    def __init__(self, stream: io.TextIOBase) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        self._stream.write(text[: len(text) // 2])
        self._stream.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self) -> "_HalfWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self._stream.close()

    def __getattr__(self, name: str) -> object:
        return getattr(self._stream, name)


def _failing_halfway(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every file opened for writing fail halfway through its first write."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):  # type: ignore[no-untyped-def]
        stream = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(stream) if "w" in mode else stream

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)


def _toy():
    return generate_toy_database(ToyConfig(r_rows=200, s_rows=30, t_rows=4, seed=1))


def _summary(directory: Path) -> Path:
    DatabaseSummary(schema=_toy().schema).save(directory / "summary.json")
    return directory / "summary.json"


def _metadata(directory: Path) -> Path:
    collect_metadata(_toy()).save(directory / "metadata.json")
    return directory / "metadata.json"


def _aqp(directory: Path) -> Path:
    aqp = AQPExtractor(database=_toy()).extract_sql(FIGURE1_QUERY, name="figure1")
    aqp.save(directory / "aqp.json")
    return directory / "aqp.json"


def _manifest(directory: Path) -> Path:
    return Manifest(format="csv", summary_fingerprint="f" * 64, summary_version=1).save(directory)


def _trace(directory: Path) -> Path:
    tracer = Tracer()
    with tracer.span("work"):
        pass
    tracer.write_chrome_trace(directory / "trace.json")
    return directory / "trace.json"


def _metrics(directory: Path) -> Path:
    registry = MetricsRegistry()
    registry.increment("writes")
    registry.write_json(directory / "metrics.json")
    return directory / "metrics.json"


def _fuzz_artifact(directory: Path) -> Path:
    _emit(FuzzReport(seeds=[9], queries_checked=3), directory / "fuzz.json")
    return directory / "fuzz.json"


WRITERS = [_summary, _metadata, _aqp, _manifest, _trace, _metrics, _fuzz_artifact]


@pytest.mark.parametrize("write", WRITERS, ids=[writer.__name__.strip("_") for writer in WRITERS])
def test_a_write_failing_halfway_keeps_the_previous_file(tmp_path, monkeypatch, write):
    path = write(tmp_path)
    previous = path.read_bytes()
    assert previous
    _failing_halfway(monkeypatch)
    with pytest.raises(OSError, match="No space left"):
        write(tmp_path)
    monkeypatch.undo()
    assert path.read_bytes() == previous
    assert sorted(tmp_path.iterdir()) == [path]


def test_write_atomic_replaces_the_whole_file(tmp_path):
    path = tmp_path / "note.txt"
    write_atomic(path, "a much longer first version\n")
    write_atomic(path, "short\n")
    assert path.read_text() == "short\n"
    assert sorted(tmp_path.iterdir()) == [path]
