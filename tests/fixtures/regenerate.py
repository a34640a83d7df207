"""Regenerate the golden workload and delta-stream fixtures.

Run from the repo root after an *intentional* change to query results or I/O
accounting::

    PYTHONPATH=src python tests/fixtures/regenerate.py

Each ``golden_*`` fixture pins one small workload — the deterministic
generation spec, the serialized request trace, every query's exact answer
and the sequential batch's page-read/buffer-hit totals — so any future
change that silently alters answers or regresses I/O accounting fails
``tests/test_golden_regression.py`` and has to be acknowledged by re-running
this script and committing the diff.

Each ``delta_stream_*`` fixture pins one monitoring run — the workload and
update-stream specs, the subscription trace, the generated stream itself and
every tick's :class:`~repro.monitor.DeltaReport`\\ s *plus* the
incremental-vs-fallback maintenance-path counters — so a change that routes
updates down a different maintenance path is caught by
``tests/test_golden_deltas.py`` even when the final answers stay correct.

Each ``temporal_*`` fixture pins one temporal run twice over: the
departure-time answers and sweep stable intervals a profile-registered
:class:`~repro.api.Session` produces (on a pristine workload), and the
per-tick delta reports of replaying the matching rush-hour edge-cost stream
through a :class:`~repro.monitor.MonitoringService` — so both halves of the
temporal subsystem (snapshot execution and edge-cost maintenance) are
pinned by ``tests/test_golden_temporal.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import MCNQueryEngine
from repro.datagen import (
    EdgeCostStreamSpec,
    UpdateStreamSpec,
    WorkloadSpec,
    edge_cost_stream_spec_to_payload,
    make_edge_cost_stream,
    make_profile_network,
    make_update_stream,
    make_workload,
    update_stream_spec_to_payload,
    workload_spec_to_payload,
)
from repro.monitor import MonitoringService, stream_to_payload, tick_report_to_payload
from repro.network.facilities import FacilitySet
from repro.service import QueryService, SkylineRequest, TopKRequest
from repro.service.requests import encode_requests
from repro.storage.scheme import NetworkStorage

FIXTURES_DIR = Path(__file__).resolve().parent

#: name -> (workload spec, storage knobs, trace builder)
CASES = {
    "golden_mixed_d2": dict(
        spec=WorkloadSpec(
            num_nodes=150,
            num_facilities=60,
            num_cost_types=2,
            clustered=True,
            num_queries=10,
            seed=21,
        ),
        page_size=1024,
        buffer_fraction=0.01,
        mix="mixed",
        k=3,
    ),
    "golden_topk_d3": dict(
        spec=WorkloadSpec(
            num_nodes=180,
            num_facilities=70,
            num_cost_types=3,
            clustered=False,
            num_queries=8,
            seed=35,
        ),
        page_size=2048,
        buffer_fraction=0.0,
        mix="topk",
        k=4,
    ),
}


def build_trace(workload, mix: str, k: int):
    requests = []
    for index, query in enumerate(workload.queries):
        as_skyline = mix == "skyline" or (mix == "mixed" and index % 2 == 0)
        if as_skyline:
            requests.append(SkylineRequest(query))
        else:
            dims = workload.graph.num_cost_types
            weights = tuple(round((i + index % 3 + 1.0) / (dims + 2), 6) for i in range(dims))
            requests.append(TopKRequest(query, k, weights=weights))
    return requests


def result_payload(request, result):
    if isinstance(request, SkylineRequest):
        return {
            "type": "skyline",
            "facilities": [[f.facility_id, list(f.costs)] for f in result],
        }
    return {
        "type": "topk",
        "facilities": [[f.facility_id, f.score] for f in result],
    }


def regenerate_case(name: str, case: dict) -> Path:
    workload = make_workload(case["spec"])
    storage = NetworkStorage.build(
        workload.graph,
        workload.facilities,
        page_size=case["page_size"],
        buffer_fraction=case["buffer_fraction"],
    )
    engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)
    requests = build_trace(workload, case["mix"], case["k"])
    report = QueryService(engine).run_batch(requests)
    fixture = {
        "name": name,
        "page_size": case["page_size"],
        "buffer_fraction": case["buffer_fraction"],
        "workload": workload_spec_to_payload(case["spec"]),
        "requests": encode_requests(requests),
        "expected": {
            "page_reads": report.io.page_reads,
            "buffer_hits": report.io.buffer_hits,
            "results": [
                result_payload(outcome.request, outcome.result) for outcome in report.outcomes
            ],
        },
    }
    path = FIXTURES_DIR / f"{name}.json"
    path.write_text(json.dumps(fixture, indent=1) + "\n")
    return path


#: name -> (workload spec, stream spec, subscription shape) for delta fixtures
MONITOR_CASES = {
    "delta_stream_d2": dict(
        spec=WorkloadSpec(
            num_nodes=150,
            num_facilities=60,
            num_cost_types=2,
            clustered=True,
            num_queries=6,
            seed=51,
        ),
        stream=UpdateStreamSpec(num_ticks=12, updates_per_tick=4, seed=52),
        mix="mixed",
        k=3,
    ),
    "delta_stream_d3": dict(
        spec=WorkloadSpec(
            num_nodes=180,
            num_facilities=70,
            num_cost_types=3,
            clustered=False,
            num_queries=5,
            seed=53,
        ),
        stream=UpdateStreamSpec(
            num_ticks=10,
            updates_per_tick=5,
            insert_fraction=0.4,
            delete_fraction=0.4,
            relocate_fraction=0.2,
            seed=54,
        ),
        mix="topk",
        k=4,
    ),
}


def regenerate_monitor_case(name: str, case: dict) -> Path:
    workload = make_workload(case["spec"])
    facilities = FacilitySet(workload.graph, iter(workload.facilities))
    service = MonitoringService(workload.graph, facilities)
    requests = build_trace(workload, case["mix"], case["k"])
    sids = [service.subscribe(request) for request in requests]
    stream = make_update_stream(
        workload.graph, workload.facilities, case["stream"], subscription_ids=sids
    )
    reports = service.run(stream)
    counters = service.statistics
    fixture = {
        "name": name,
        "workload": workload_spec_to_payload(case["spec"]),
        "stream_spec": update_stream_spec_to_payload(case["stream"]),
        "requests": encode_requests(requests),
        "stream": stream_to_payload(stream),
        "expected": {
            "ticks": [tick_report_to_payload(report) for report in reports],
            "final_counters": {
                "insertions": counters.insertions,
                "deletions": counters.deletions,
                "incremental_updates": counters.incremental_updates,
                "recomputations": counters.recomputations,
                "query_moves": counters.query_moves,
            },
        },
    }
    path = FIXTURES_DIR / f"{name}.json"
    path.write_text(json.dumps(fixture, indent=1) + "\n")
    return path


#: name -> (workload spec, edge-cost stream spec, probe times) for the
#: temporal fixtures
TEMPORAL_CASES = {
    "temporal_rush_d2": dict(
        spec=WorkloadSpec(
            num_nodes=150,
            num_facilities=60,
            num_cost_types=2,
            clustered=True,
            num_queries=4,
            seed=61,
        ),
        stream=EdgeCostStreamSpec(
            num_ticks=8, start_time=6.0, time_step=0.5, affected_fraction=0.2, seed=62
        ),
        departure_times=(6.0, 7.0, 8.0, 9.5),
        sweep_times=(6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0),
        mix="mixed",
        k=3,
    ),
    "temporal_rush_d3": dict(
        spec=WorkloadSpec(
            num_nodes=120,
            num_facilities=45,
            num_cost_types=3,
            clustered=False,
            num_queries=3,
            seed=63,
        ),
        stream=EdgeCostStreamSpec(
            num_ticks=6,
            start_time=7.0,
            time_step=0.5,
            affected_fraction=0.3,
            peak_multiplier=2.5,
            seed=64,
        ),
        departure_times=(7.0, 8.0, 9.0),
        sweep_times=(7.0, 7.5, 8.0, 8.5, 9.5),
        mix="topk",
        k=4,
    ),
}


def regenerate_temporal_case(name: str, case: dict) -> Path:
    from dataclasses import replace

    from repro.api import ExecutionPolicy, Session
    from repro.datagen.updates import make_profile_network
    from repro.serve.payloads import io_to_payload
    from repro.temporal import (
        SkylineSweepRequest,
        TopKSweepRequest,
        stable_interval_to_payload,
        timed_result_to_payload,
    )

    # --- Half one: departure-time answers on a pristine workload. --------- #
    workload = make_workload(case["spec"])
    network = make_profile_network(workload.graph, case["stream"])
    policy = ExecutionPolicy(temporal="profiles", profile_source="rush")
    base_requests = build_trace(workload, case["mix"], case["k"])
    answers = []
    sweeps = []
    with Session(
        workload.graph, workload.facilities, profiles={"rush": network}
    ) as session:
        for request in base_requests:
            for departure_time in case["departure_times"]:
                timed = replace(request, departure_time=departure_time)
                response = session.query(timed, policy=policy)
                answers.append(
                    {
                        "departure_time": departure_time,
                        "result": result_payload(request, response.result),
                        "io": io_to_payload(response.io),
                    }
                )
        for request in base_requests:
            if isinstance(request, SkylineRequest):
                sweep_request = SkylineSweepRequest(
                    request.location, case["sweep_times"]
                )
            else:
                sweep_request = TopKSweepRequest(
                    request.location,
                    request.k,
                    case["sweep_times"],
                    weights=request.weights,
                    aggregate=request.aggregate,
                )
            response = session.sweep(sweep_request, policy=policy)
            sweeps.append(
                {
                    "results": [
                        timed_result_to_payload(result) for result in response.results
                    ],
                    "intervals": [
                        stable_interval_to_payload(interval)
                        for interval in response.intervals
                    ],
                }
            )

    # --- Half two: the matching edge-cost stream through the monitor. ----- #
    workload = make_workload(case["spec"])  # fresh: half one must not leak state
    facilities = FacilitySet(workload.graph, iter(workload.facilities))
    service = MonitoringService(workload.graph, facilities)
    for request in build_trace(workload, case["mix"], case["k"]):
        service.subscribe(request)
    stream = make_edge_cost_stream(workload.graph, case["stream"])
    reports = service.run(stream)
    counters = service.statistics

    fixture = {
        "name": name,
        "workload": workload_spec_to_payload(case["spec"]),
        "stream_spec": edge_cost_stream_spec_to_payload(case["stream"]),
        "departure_times": list(case["departure_times"]),
        "sweep_times": list(case["sweep_times"]),
        "requests": encode_requests(base_requests),
        "stream": stream_to_payload(stream),
        "expected": {
            "answers": answers,
            "sweeps": sweeps,
            "ticks": [tick_report_to_payload(report) for report in reports],
            "final_counters": {
                "recomputations": counters.recomputations,
                "edge_cost_refreshes": counters.edge_cost_refreshes,
            },
        },
    }
    path = FIXTURES_DIR / f"{name}.json"
    path.write_text(json.dumps(fixture, indent=1) + "\n")
    return path


def regenerate_serve_surface() -> Path:
    """Pin the serving tier's wire surface (routes, schemas, error shape).

    The fixture is transport-independent data from
    :meth:`repro.serve.ServeApp.describe_surface`; a route/schema change
    must regenerate it in the same commit, so the diff is reviewable.
    """
    from repro.api import Session
    from repro.serve import ServeApp

    workload = make_workload(
        WorkloadSpec(
            num_nodes=20, num_facilities=5, num_cost_types=2, num_queries=1, seed=1
        )
    )
    with Session(workload.graph, workload.facilities) as session:
        surface = ServeApp(session).describe_surface()
    path = FIXTURES_DIR / "serve_surface.json"
    path.write_text(json.dumps(surface, indent=1, sort_keys=True) + "\n")
    return path


def main() -> None:
    for name, case in CASES.items():
        path = regenerate_case(name, case)
        print(f"wrote {path}")
    for name, case in MONITOR_CASES.items():
        path = regenerate_monitor_case(name, case)
        print(f"wrote {path}")
    for name, case in TEMPORAL_CASES.items():
        path = regenerate_temporal_case(name, case)
        print(f"wrote {path}")
    print(f"wrote {regenerate_serve_surface()}")


if __name__ == "__main__":
    main()
