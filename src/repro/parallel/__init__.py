"""Sharded parallel regeneration.

HYDRA's block generation is pure deterministic interval arithmetic over
summary rows, so the pk offset space of a relation shards perfectly:
``repro.parallel`` partitions it into contiguous, work-balanced shards
(:mod:`~repro.parallel.sharding`), regenerates each shard in its own worker
process, and merges the block streams back in order with bounded-queue
backpressure (:mod:`~repro.parallel.pool`) — bit-identical to the serial
tuple generator.

The subsystem plugs in one level up behind
:class:`~repro.executor.datagen.DataGenRelation`, whose one stream hands over
to the pool when :func:`~repro.parallel.pool.pool_plan` says it pays; the
worker count comes only from the ``workers`` argument of a Python call
(``Hydra.regenerate``, ``export_summary``, ``summary_relation_providers``).
"""

from .pool import iter_parallel_blocks, pool_plan
from .sharding import Shard, ShardPlan

__all__ = [
    "Shard",
    "ShardPlan",
    "iter_parallel_blocks",
    "pool_plan",
]
