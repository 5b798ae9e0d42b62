"""Spawn-safe worker pool streaming regenerated blocks with backpressure.

Each worker lane of a :class:`~repro.parallel.sharding.ShardPlan` regenerates
its round-robin share of the plan's chunks in its own process.  The design
keeps three promises:

* **spawn-safe** — the worker entry point is a module-level function and all
  worker state travels through its arguments: one pickled payload (table +
  relation summary + pushdown boxes, serialised once and shipped to every
  worker at process creation) plus the worker's offset windows and a result
  queue.  Nothing relies on fork-inherited globals, so the pool runs under
  any multiprocessing start method (``fork`` is preferred when available
  because process creation is ~two orders of magnitude cheaper).
* **backpressure** — every worker streams its blocks through its own
  *bounded* queue.  A worker that runs ahead of the consumer blocks on
  ``put``, so peak parent+workers memory is O(workers × queue_blocks ×
  batch), never O(relation).
* **bit-identical ordered merge with pipeline overlap** — the parent walks
  the plan's chunks in global offset order and drains each chunk from its
  worker's queue (a per-chunk end marker separates them).  Because
  ``iter_filtered_blocks(offsets=...)`` assigns every serial yield to
  exactly one chunk by start offset and the chunks are contiguous, the
  merged stream is yield-for-yield identical to the serial iterator: same
  ``(start, generated, matched)`` accounting, same block boundaries, same
  row order, same dtypes.  The round-robin deal is what keeps all workers
  busy: while chunk ``i`` drains, the workers owning chunks ``i+1 ..
  i+workers-1`` are regenerating them into their queues, so the drain order
  never serialises the lanes the way K monolithic shards would.

Rate limiting deliberately does **not** happen here: the consumer (a
:class:`~repro.executor.datagen.DataGenRelation`) paces the *merged* stream,
so a shared limiter budgets the relation as one stream rather than K
independent ones.  Nor does the serial-or-pool choice: :func:`pool_plan`
makes it, once per stream, before any process exists.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_module
import time
import traceback
from contextlib import nullcontext
from typing import Any, Iterator, Sequence

from numpy.typing import NDArray

from ..catalog.schema import Table
from ..core.errors import ParallelGenerationError
from ..core.summary import RelationSummary
from ..core.tuplegen import TupleGenerator
from ..sql.predicates import BoxCondition
from ..telemetry.session import TelemetrySession, active_session, telemetry_session
from .sharding import Shard, ShardPlan

__all__ = ["iter_parallel_blocks", "pool_plan"]

_BLOCK = 0
_CHUNK_END = 1
_ERROR = 2
#: Worker span buffer + metrics delta, shipped just before each _CHUNK_END so
#: the parent merges telemetry in chunk drain order (causal order).
_TELEMETRY = 3

#: Seconds between liveness checks while waiting on a worker's queue.
_POLL_SECONDS = 1.0

#: Shared inert context manager (nullcontext is stateless and reusable).
_NULL_CONTEXT = nullcontext()


def _preferred_context() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _spawn_only_threshold(batch_size: int, workers: int) -> int:
    """Smallest relation worth fanning out on this platform.

    Under ``fork`` process creation costs ~1ms, so parallelism pays off for
    any relation big enough to shard at all (threshold 0).  Where only
    ``spawn`` is available each worker pays a full interpreter start
    (~100ms), so tiny relations must stay on the serial in-process path: the
    threshold asks for at least a few batches of work per worker before
    spinning up the pool.
    """
    if "fork" in mp.get_all_start_methods():
        return 0
    return 4 * batch_size * workers


def pool_plan(
    generator: TupleGenerator,
    workers: int,
    batch_size: int,
    box: BoxCondition,
    skip_box: BoxCondition | None,
) -> ShardPlan | None:
    """The one serial-or-pool decision of a block stream.

    Returns the plan to hand to :func:`iter_parallel_blocks`, or ``None``
    when the stream should stay in-process: one worker, a relation below
    the platform's fan-out threshold, or a plan (balanced by what
    ``box``/``skip_box`` leave to generate) with fewer than two lanes of
    work — process overhead would buy nothing.
    """
    if workers <= 1 or generator.row_count < _spawn_only_threshold(batch_size, workers):
        return None
    plan = ShardPlan.build(
        generator.summary,
        workers=workers,
        batch_size=batch_size,
        box=box,
        skip_box=skip_box,
        pk_column=generator.table.primary_key,
    )
    return plan if sum(map(bool, plan.worker_windows())) > 1 else None


def _lane_worker(
    payload: bytes,
    lane: int,
    windows: list[tuple[int, int]],
    results: "mp.queues.Queue[tuple[int, Any]]",
) -> None:
    """Worker entry point: regenerate a lane's chunks, in order, streaming back.

    Emits a ``_CHUNK_END`` marker after each window so the parent can drain
    chunk-by-chunk in global order.  Module-level (and fed purely by its
    arguments) so it is importable and picklable under ``spawn``.

    When the parent had telemetry active, the worker runs a local
    :class:`~repro.telemetry.session.TelemetrySession` and ships its span
    buffer and metric deltas back as a ``_TELEMETRY`` message just before
    every ``_CHUNK_END``, so the parent merges them in chunk drain order.
    """
    try:
        table, summary, box, skip_box, columns, batch_size, traced = pickle.loads(payload)
        generator = TupleGenerator(table=table, summary=summary)
        session = TelemetrySession() if traced else None
        with telemetry_session(session) if session is not None else _NULL_CONTEXT:
            for chunk, window in enumerate(windows):
                chunk_started = time.perf_counter()
                if session is not None:
                    chunk_span = session.tracer.span(
                        "pool.chunk", lane=lane, chunk=chunk, offset=window[0]
                    )
                else:
                    chunk_span = None
                with chunk_span if chunk_span is not None else _NULL_CONTEXT:
                    for item in generator.iter_filtered_blocks(
                        box,
                        batch_size=batch_size,
                        columns=columns,
                        skip_box=skip_box,
                        offsets=window,
                    ):
                        results.put((_BLOCK, item))
                if session is not None:
                    session.metrics.observe(
                        "pool.chunk.seconds", time.perf_counter() - chunk_started
                    )
                    session.metrics.increment(f"pool.lane.{lane}.chunks_completed")
                    results.put(
                        (
                            _TELEMETRY,
                            (lane, session.tracer.export_buffer(), session.metrics.drain()),
                        )
                    )
                results.put((_CHUNK_END, None))
    except BaseException as exc:  # noqa: BLE001 - ship the failure to the parent
        try:
            results.put((_ERROR, (type(exc).__name__, str(exc), traceback.format_exc())))
        # hydralint: disable=HYD502 -- documented worker-death path: if even
        # the error report cannot be queued, the parent detects the dead
        # worker through liveness polling in _next_item and raises there.
        except Exception:
            pass


def _next_item(
    results: "mp.queues.Queue[tuple[int, Any]]",
    process: mp.process.BaseProcess,
    shard: Shard,
    table: str,
    last_completed_chunk: int | None,
) -> tuple[int, Any]:
    """Blocking queue read that survives a worker dying without a sentinel."""
    while True:
        try:
            return results.get(timeout=_POLL_SECONDS)
        except queue_module.Empty:
            if process.is_alive():
                continue
            try:  # drain race: the worker may have finished between checks
                return results.get_nowait()
            except queue_module.Empty:
                raise ParallelGenerationError(
                    f"worker lane {shard.worker} for shard {shard.index} "
                    f"[{shard.start}, {shard.end}) of relation {table!r} exited "
                    f"with code {process.exitcode} without completing its stream "
                    f"(last completed chunk: {last_completed_chunk})",
                    lane=shard.worker,
                    last_completed_chunk=last_completed_chunk,
                ) from None


def iter_parallel_blocks(
    table: Table,
    summary: RelationSummary,
    plan: ShardPlan,
    box: BoxCondition,
    columns: Sequence[str] | None = None,
    skip_box: BoxCondition | None = None,
    queue_blocks: int = 8,
    mp_context: str | None = None,
) -> Iterator[tuple[int, int, int, dict[str, NDArray[Any]]]]:
    """Regenerate ``plan``'s chunks in parallel, merged back in serial order.

    Yields the exact ``(start, generated, matched, block)`` stream of
    ``TupleGenerator(table, summary).iter_filtered_blocks(box, ...)`` — see
    the module docstring for the three guarantees.  Worker failures surface
    as :class:`~repro.core.errors.ParallelGenerationError` carrying the
    remote traceback; closing the iterator early terminates the workers.
    """
    windows = plan.worker_windows()
    active_lanes = [lane for lane, lane_windows in enumerate(windows) if lane_windows]
    session = active_session()
    context = mp.get_context(mp_context or _preferred_context())
    payload = pickle.dumps(
        (
            table,
            summary,
            box,
            skip_box,
            list(columns) if columns is not None else None,
            plan.batch_size,
            session is not None,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    queues = {
        lane: context.Queue(maxsize=max(2, queue_blocks)) for lane in active_lanes
    }
    processes = {
        lane: context.Process(
            target=_lane_worker,
            args=(payload, lane, windows[lane], queues[lane]),
            daemon=True,
            name=f"repro-shard-{plan.table}-{lane}",
        )
        for lane in active_lanes
    }
    # Parent-side per-lane accounting: the global index of the last chunk each
    # lane fully streamed back.  Feeds ParallelGenerationError on failure.
    last_completed: dict[int, int | None] = {lane: None for lane in active_lanes}
    if session is not None:
        pool_span = session.tracer.span(
            "pool.generate", table=plan.table, workers=len(active_lanes)
        )
    else:
        pool_span = None
    for process in processes.values():
        process.start()
    try:
        with pool_span if pool_span is not None else _NULL_CONTEXT as span_record:
            # Worker buffers carry times relative to the worker's own epoch
            # (its process start); anchoring them at the parent-side span
            # start keeps the merge causally ordered, with residual clock
            # skew documented rather than corrected.
            merge_parent: int | None = None
            merge_offset = 0.0
            if session is not None and span_record is not None:
                merge_parent = span_record.span_id
                merge_offset = span_record.start
            for shard in plan.non_empty_shards():
                results = queues[shard.worker]
                process = processes[shard.worker]
                if session is not None:
                    try:
                        depth = results.qsize()
                    except NotImplementedError:  # qsize is unavailable on macOS
                        depth = -1
                    session.metrics.set_gauge(
                        f"pool.lane.{shard.worker}.queue_depth", float(depth)
                    )
                while True:
                    kind, data = _next_item(
                        results, process, shard, plan.table, last_completed[shard.worker]
                    )
                    if kind == _CHUNK_END:
                        last_completed[shard.worker] = shard.index
                        break
                    if kind == _TELEMETRY:
                        if session is not None:
                            _lane, span_buffer, metrics_delta = data
                            session.tracer.merge_remote(
                                span_buffer,
                                parent_id=merge_parent,
                                time_offset=merge_offset,
                            )
                            session.metrics.merge(metrics_delta)
                        continue
                    if kind == _ERROR:
                        name, message, remote_traceback = data
                        raise ParallelGenerationError(
                            f"worker lane {shard.worker} for shard {shard.index} of "
                            f"relation {plan.table!r} raised {name}: {message}\n"
                            f"(last completed chunk: {last_completed[shard.worker]})\n"
                            f"--- remote traceback ---\n{remote_traceback}",
                            lane=shard.worker,
                            last_completed_chunk=last_completed[shard.worker],
                        )
                    yield data
            for process in processes.values():
                process.join()
    finally:
        for process in processes.values():
            if process.is_alive():
                process.terminate()
        for process in processes.values():
            process.join(timeout=5)
        for results in queues.values():
            results.close()
