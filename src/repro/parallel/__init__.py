"""Sharded parallel workload execution.

The sequential :class:`~repro.service.QueryService` shares one cross-query
cache across a whole batch; this package shares the *machine* across the
batch instead.  :func:`~repro.parallel.routing.plan_shards` partitions a
request trace into shards (round-robin, or locality-aware so network-close
queries keep warming the same worker's cache), and
:class:`ShardedQueryService` executes the shards on a process or thread pool
in which every worker owns an independent data layer — a read-only snapshot
view of the shared built network — plus its own cross-query cache.  Merged
reports preserve sequential result ordering and sum the per-shard counters.
"""

from repro.parallel.routing import ROUTINGS, Shard, ShardPlan, plan_shards
from repro.parallel.service import (
    EXECUTORS,
    ShardReport,
    ShardedBatchReport,
    ShardedQueryService,
    merge_shard_reports,
)

__all__ = [
    "EXECUTORS",
    "ROUTINGS",
    "Shard",
    "ShardPlan",
    "ShardReport",
    "ShardedBatchReport",
    "ShardedQueryService",
    "merge_shard_reports",
    "plan_shards",
]
