"""repro: preference queries in large multi-cost transportation networks.

A from-scratch reproduction of Mouratidis, Lin & Yiu, "Preference Queries in
Large Multi-Cost Transportation Networks" (ICDE 2010): skyline and top-k
queries over facilities located on a road network whose edges carry multiple
cost types, processed with the Local Search Algorithm (LSA) and the Combined
Expansion Algorithm (CEA) over a disk-resident storage scheme — grown into a
query-serving system with batched, sharded-parallel and continuously
monitored execution.  It runs on the Python standard library alone.

The public entry point is the :mod:`repro.api` facade: one
:class:`~repro.api.Session` owns the dataset, one declarative
:class:`~repro.api.ExecutionPolicy` (frozen, JSON-serialisable) says how to
execute — a call may override only how it runs (algorithm, workers,
routing, executor, temporal source) — and every call returns a uniform
response envelope::

    from repro import SkylineRequest, TopKRequest
    from repro.api import ExecutionPolicy, Session
    from repro.datagen import WorkloadSpec, make_workload

    workload = make_workload(WorkloadSpec(num_nodes=900, num_facilities=300))
    session = Session(workload.graph, workload.facilities,
                      policy=ExecutionPolicy(residency="disk"))
    query = workload.queries[0]

    # One-shot: a Response with the answer, I/O counters and the policy.
    response = session.skyline(query)
    best = session.top_k(query, k=4, weights=[0.4, 0.3, 0.2, 0.1])

    # Batch: one shared cross-query expansion cache; page reads are far
    # fewer than the sum of one-shot queries.
    batch = session.run_batch([SkylineRequest(q) for q in workload.queries])

    # Parallel: the same batch sharded across workers (identical results,
    # merged counters) — just a policy override.
    sharded = session.run_batch(
        [SkylineRequest(q) for q in workload.queries],
        policy=session.policy.replace(workers=4, routing="locality"),
    )

    # Continuous: long-lived subscriptions maintained incrementally while
    # facilities are inserted and deleted (see repro.monitor).
    from repro.monitor import FacilityInsert, UpdateTick

    handle = session.monitor([SkylineRequest(query)])
    tick = handle.tick(UpdateTick((FacilityInsert(9000, edge_id=5, offset=1.0),)))
    tick.deltas[0].entered  # facilities that joined the skyline

The data layer picks the expansion: the compiled kernel wherever a
:class:`CompiledGraph` can be built (memory, disk, the monitor, temporal
snapshots), the record-walking expansion on a standalone dataset pack.
Both give bit-identical answers and I/O accounting.

Datasets can also live on disk as single checksummed *pack* files
(:mod:`repro.storage.persist` / :mod:`repro.storage.catalog`): build once
with ``repro-mcn build-dataset`` (streamed, bounded RSS even at millions of
nodes), then query straight off an ``mmap`` through
``Session.from_dataset(path)``: answers and I/O counters are
bit-identical to the in-RAM simulated disk.

The :mod:`repro.serve` tier puts the session behind a wire: a
dependency-free asyncio serving layer (pure HTTP/1.1 + SSE transport and
an in-process test transport) with admission control, per-request
deadlines, rolling latency percentiles and streamed per-subscription
deltas — every concurrent workload provably bit-identical
to sequential library calls (``repro-mcn serve --replay``).

The stacks under the facade stay available for low-level work:
:class:`MCNQueryEngine` (one-shot calls and search objects),
:class:`QueryService` (batch + submit/drain streaming),
:class:`ShardedQueryService` and :class:`MonitoringService`.  The three
services take their configuration as one ``policy=``
:class:`ExecutionPolicy`, exactly as the session builds them.
"""

from repro.api import (
    BatchResponse,
    ExecutionPolicy,
    MonitorHandle,
    Response,
    Session,
    TickResponse,
)
from repro.core.aggregates import MaxCost, WeightedLpNorm, WeightedSum
from repro.core.engine import MCNQueryEngine
from repro.core.incremental import IncrementalTopK
from repro.core.kernel import ExpansionKernel
from repro.core.maintenance import SkylineMaintainer, TopKMaintainer
from repro.core.results import (
    QueryStatistics,
    RankedFacility,
    SkylineFacility,
    SkylineResult,
    TopKResult,
)
from repro.core.skyline import ProbingPolicy
from repro.errors import (
    DataGenerationError,
    FacilityError,
    GraphError,
    LocationError,
    PolicyError,
    QueryError,
    ReproError,
    StorageError,
)
from repro.monitor import (
    DeltaReport,
    EdgeCostUpdate,
    FacilityDelete,
    FacilityInsert,
    MonitoringService,
    QueryRelocation,
    TickReport,
    UpdateStream,
    UpdateTick,
)
from repro.network.compiled import CompiledGraph
from repro.network.costs import CostVector
from repro.network.facilities import Facility, FacilitySet
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation
from repro.parallel import ShardedBatchReport, ShardedQueryService
from repro.service import (
    BatchReport,
    CrossQueryExpansionCache,
    QueryOutcome,
    QueryService,
    SkylineRequest,
    TopKRequest,
)
from repro.storage.scheme import NetworkStorage
from repro.temporal import (
    SkylineSweepRequest,
    SweepResponse,
    TemporalExecutor,
    TopKSweepRequest,
)
from repro.timedep import TimeVaryingMCN, peak_profile, stable_intervals

__version__ = "1.9.0"

__all__ = [
    "BatchReport",
    "BatchResponse",
    "CompiledGraph",
    "CostVector",
    "CrossQueryExpansionCache",
    "DataGenerationError",
    "DeltaReport",
    "EdgeCostUpdate",
    "ExecutionPolicy",
    "ExpansionKernel",
    "Facility",
    "FacilityDelete",
    "FacilityError",
    "FacilityInsert",
    "FacilitySet",
    "GraphError",
    "IncrementalTopK",
    "LocationError",
    "MaxCost",
    "MCNQueryEngine",
    "MonitorHandle",
    "MonitoringService",
    "MultiCostGraph",
    "NetworkLocation",
    "NetworkStorage",
    "PolicyError",
    "ProbingPolicy",
    "QueryError",
    "QueryOutcome",
    "QueryRelocation",
    "QueryService",
    "QueryStatistics",
    "RankedFacility",
    "ReproError",
    "Response",
    "Session",
    "SkylineFacility",
    "ShardedBatchReport",
    "ShardedQueryService",
    "SkylineMaintainer",
    "SkylineRequest",
    "SkylineResult",
    "SkylineSweepRequest",
    "StorageError",
    "SweepResponse",
    "TemporalExecutor",
    "TickReport",
    "TickResponse",
    "TimeVaryingMCN",
    "TopKRequest",
    "TopKMaintainer",
    "TopKResult",
    "TopKSweepRequest",
    "UpdateStream",
    "UpdateTick",
    "peak_profile",
    "stable_intervals",
    "WeightedLpNorm",
    "WeightedSum",
    "__version__",
]
