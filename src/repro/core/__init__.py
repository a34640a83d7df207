"""Core MCN preference-query algorithms: LSA, CEA, top-k, incremental top-k."""

from repro.core.aggregates import (
    AggregateFunction,
    MaxCost,
    WeightedLpNorm,
    WeightedSum,
    check_monotone,
)
from repro.core.baseline import baseline_cost_vectors, baseline_skyline, baseline_top_k
from repro.core.candidates import CandidateEntry, CandidatePool
from repro.core.engine import MCNQueryEngine
from repro.core.expansion import ExpansionSeeds, FacilityHit, NearestFacilityExpansion
from repro.core.incremental import IncrementalTopK
from repro.core.kernel import (
    DirectChargeLayer,
    ExpansionKernel,
    FetchOnceChargeLayer,
    ForwardingLayer,
    KernelDataLayer,
    make_kernel_data_layer,
)
from repro.core.maintenance import MaintenanceStatistics, SkylineMaintainer, TopKMaintainer
from repro.core.results import (
    QueryStatistics,
    RankedFacility,
    SkylineFacility,
    SkylineResult,
    TopKResult,
)
from repro.core.skyline import MCNSkylineSearch, ProbingPolicy, cea_skyline, lsa_skyline
from repro.core.topk import MCNTopKSearch, cea_top_k, lsa_top_k

__all__ = [
    "AggregateFunction",
    "CandidateEntry",
    "CandidatePool",
    "DirectChargeLayer",
    "ExpansionKernel",
    "ExpansionSeeds",
    "FacilityHit",
    "FetchOnceChargeLayer",
    "ForwardingLayer",
    "IncrementalTopK",
    "KernelDataLayer",
    "make_kernel_data_layer",
    "MaintenanceStatistics",
    "MaxCost",
    "MCNQueryEngine",
    "SkylineMaintainer",
    "TopKMaintainer",
    "MCNSkylineSearch",
    "MCNTopKSearch",
    "NearestFacilityExpansion",
    "ProbingPolicy",
    "QueryStatistics",
    "RankedFacility",
    "SkylineFacility",
    "SkylineResult",
    "TopKResult",
    "WeightedLpNorm",
    "WeightedSum",
    "baseline_cost_vectors",
    "baseline_skyline",
    "baseline_top_k",
    "cea_skyline",
    "cea_top_k",
    "check_monotone",
    "lsa_skyline",
    "lsa_top_k",
]
