"""Sharded parallel regeneration.

HYDRA's block generation is pure deterministic interval arithmetic over
summary rows, so the pk offset space of a relation shards perfectly:
``repro.parallel`` partitions it into contiguous, work-balanced shards
(:mod:`~repro.parallel.sharding`), regenerates each shard in its own worker
process, and merges the block streams back in order with bounded-queue
backpressure (:mod:`~repro.parallel.pool`) — bit-identical to the serial
tuple generator, only faster.

The subsystem plugs in one level up behind
:class:`~repro.executor.datagen.DataGenRelation`, whose one stream hands over
to the pool when :func:`~repro.parallel.pool.pool_plan` says it pays; the
worker count comes from ``Hydra.regenerate(..., workers=N)``, the CLI
``--workers`` flag, or the ``REPRO_WORKERS`` environment variable.
"""

from .pool import default_workers, iter_parallel_blocks, pool_plan
from .sharding import Shard, ShardPlan

__all__ = [
    "Shard",
    "ShardPlan",
    "default_workers",
    "iter_parallel_blocks",
    "pool_plan",
]
