"""Command-line interface: ``repro-mcn``.

Sub-commands:

* ``demo`` — generate a small workload, run a skyline and a top-k query with
  both algorithms and print the results with their I/O statistics.
* ``experiment <name>`` — run one of the Section-VI experiments (``fig8a`` ...
  ``fig12`` plus the two ablations) and print its table.
* ``serve`` — the asyncio serving tier: listen on HTTP/1.1 over a generated
  workload, or (``--replay``) fire a concurrent trace through the in-process
  transport and verify it bit-identical against a sequential
  :class:`~repro.api.Session` replay.
* ``serve-batch`` — replay a workload trace through the batch
  :class:`~repro.service.QueryService` and compare it against one-shot
  engine calls (identical answers, page-read savings).
* ``monitor`` — replay a facility-update stream through the continuous
  :class:`~repro.monitor.MonitoringService` and compare incremental
  maintenance against recompute-every-tick.
* ``bench cold-cache`` — stream a dataset pack to disk, query it cold and
  check answers and page reads against the in-RAM simulated disk.
* ``bench timedep`` — replay a rush-hour edge-cost stream incrementally and
  by rebuilding every tick, and check both end with the same answers.
* ``build-dataset`` — stream a grid/small-world workload straight into an
  on-disk dataset pack (never materialising the graph in RAM), ready for
  ``Session(dataset_path=...)``.
* ``inspect-dataset`` — print a pack's catalog and verify its SHA-256.
* ``list`` — list the available experiments.

``serve --replay``, ``serve-batch``, ``monitor`` and the two ``bench``
commands are parity checks: each prints counts and a verdict and exits 1
when the verdict fails.  None of them times anything; the repository
benchmark (``perfbench/run.py``) does.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import signal
import sys
from collections.abc import Sequence

from repro.api import ExecutionPolicy, Session
from repro.bench.config import DEFAULT_SCALE, SMALL_SCALE, ExperimentScale
from repro.bench.driver import (
    MonitorReplaySpec,
    ReplaySpec,
    ServeReplaySpec,
    format_monitor_report,
    format_replay_report,
    format_serve_report,
    replay_serve_workload,
    replay_update_stream,
    replay_workload,
)
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import format_series_table, series_to_csv, summarize_speedups
from repro.datagen.road_network import PackedDatasetSpec, build_packed_dataset
from repro.datagen.updates import UpdateStreamSpec
from repro.datagen.workload import WorkloadSpec, make_workload
from repro.errors import ReproError
from repro.serve import HttpServer, JobJournal, ServeApp, ServeConfig
from repro.storage import DEFAULT_PAGE_SIZE, open_dataset

__all__ = ["main", "build_parser"]

_SCALES: dict[str, ExperimentScale] = {"small": SMALL_SCALE, "default": DEFAULT_SCALE}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-mcn`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-mcn",
        description="Skyline and top-k preference queries in multi-cost transportation networks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run a small end-to-end demonstration")
    demo.add_argument("--nodes", type=int, default=900, help="approximate number of network nodes")
    demo.add_argument("--facilities", type=int, default=300, help="number of facilities")
    demo.add_argument("--cost-types", type=int, default=3, help="number of cost types d")
    demo.add_argument("--k", type=int, default=4, help="k of the top-k query")
    demo.add_argument("--seed", type=int, default=7, help="random seed")

    experiment = commands.add_parser("experiment", help="run one Section-VI experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment / figure name")
    experiment.add_argument("--scale", choices=sorted(_SCALES), default="small", help="population scale")
    experiment.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    serve = commands.add_parser(
        "serve-batch",
        help="replay a workload through the batch query service and report savings",
    )
    serve.add_argument("--nodes", type=int, default=900, help="approximate number of network nodes")
    serve.add_argument("--facilities", type=int, default=300, help="number of facilities")
    serve.add_argument("--cost-types", type=int, default=3, help="number of cost types d")
    serve.add_argument("--queries", type=int, default=100, help="number of queries in the trace")
    serve.add_argument("--k", type=int, default=4, help="k of the top-k requests")
    serve.add_argument(
        "--mix",
        choices=("skyline", "topk", "mixed"),
        default="mixed",
        help="query mix of the trace",
    )
    serve.add_argument("--seed", type=int, default=7, help="random seed")
    serve.add_argument("--page-size", type=int, default=2048, help="storage page size in bytes")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the batch across N parallel workers (1 = sequential only)",
    )
    serve.add_argument(
        "--routing",
        choices=("round-robin", "locality"),
        default="round-robin",
        help="how requests are routed to shards (locality groups network-close queries)",
    )
    serve.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default="process",
        help="pool kind backing the sharded run",
    )

    serve_tier = commands.add_parser(
        "serve",
        help="the async serving tier: listen over HTTP, or run the load-replay check",
    )
    serve_tier.add_argument("--nodes", type=int, default=300, help="approximate number of network nodes")
    serve_tier.add_argument("--facilities", type=int, default=80, help="number of facilities")
    serve_tier.add_argument("--cost-types", type=int, default=3, help="number of cost types d")
    serve_tier.add_argument("--queries", type=int, default=16, help="query locations in the workload")
    serve_tier.add_argument(
        "--mix",
        choices=("skyline", "topk", "mixed"),
        default="mixed",
        help="query mix of the replay trace",
    )
    serve_tier.add_argument("--k", type=int, default=4, help="k of the top-k requests")
    serve_tier.add_argument("--seed", type=int, default=7, help="random seed")
    serve_tier.add_argument(
        "--replay",
        action="store_true",
        help="run the async load-replay differential check instead of listening",
    )
    serve_tier.add_argument(
        "--clients", type=int, default=8, help="concurrent clients of the replay"
    )
    serve_tier.add_argument(
        "--ticks", type=int, default=4, help="facility-update ticks in the replay"
    )
    serve_tier.add_argument(
        "--updates-per-tick", type=int, default=3, help="facility updates per tick"
    )
    serve_tier.add_argument(
        "--max-in-flight", type=int, default=8, help="admission-control capacity"
    )
    serve_tier.add_argument(
        "--timeout", type=float, default=60.0, help="per-request timeout in seconds"
    )
    serve_tier.add_argument("--host", default="127.0.0.1", help="listen address (listen mode)")
    serve_tier.add_argument(
        "--port", type=int, default=8737, help="listen port (listen mode; 0 = ephemeral)"
    )
    serve_tier.add_argument(
        "--drain-deadline",
        type=float,
        default=5.0,
        help="seconds a SIGTERM/SIGINT drain waits for in-flight work",
    )
    serve_tier.add_argument(
        "--drain-after",
        type=int,
        default=None,
        help="replay mode: start draining after this many acknowledged ops",
    )
    serve_tier.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal batch acknowledgements and ticks to this JSONL file "
        "(recovered on restart)",
    )

    monitor = commands.add_parser(
        "monitor",
        help="replay a facility-update stream through the monitoring service",
    )
    monitor.add_argument("--nodes", type=int, default=900, help="approximate number of network nodes")
    monitor.add_argument("--facilities", type=int, default=300, help="number of facilities")
    monitor.add_argument("--cost-types", type=int, default=3, help="number of cost types d")
    monitor.add_argument(
        "--subscriptions", type=int, default=8, help="number of long-lived subscriptions"
    )
    monitor.add_argument("--ticks", type=int, default=25, help="number of update ticks")
    monitor.add_argument(
        "--updates-per-tick", type=int, default=5, help="facility updates per tick"
    )
    monitor.add_argument(
        "--mix",
        choices=("skyline", "topk", "mixed"),
        default="mixed",
        help="query mix of the subscriptions",
    )
    monitor.add_argument("--k", type=int, default=4, help="k of the top-k subscriptions")
    monitor.add_argument(
        "--locality",
        type=float,
        default=0.5,
        help="fraction of inserts placed next to existing facilities",
    )
    monitor.add_argument("--seed", type=int, default=7, help="random seed")
    monitor.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the fallback recompute passes across N workers (1 = sequential)",
    )
    monitor.add_argument(
        "--routing",
        choices=("round-robin", "locality"),
        default="round-robin",
        help="how fallback requests are routed to shards",
    )
    monitor.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default="thread",
        help="pool kind backing the sharded fallback passes",
    )

    bench = commands.add_parser(
        "bench", help="parity checks of dataset packs and the time-dependent path"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    cold = bench_commands.add_parser(
        "cold-cache",
        help="stream a pack to disk, re-open it cold, and check its answers "
        "and page reads against SimulatedDisk",
    )
    cold.add_argument("--rows", type=int, default=64, help="grid rows")
    cold.add_argument("--cols", type=int, default=64, help="grid columns")
    cold.add_argument("--cost-types", type=int, default=2, help="number of cost types d")
    cold.add_argument("--facilities", type=int, default=256, help="number of facilities")
    cold.add_argument("--seed", type=int, default=7, help="random seed")
    cold.add_argument(
        "--page-size", type=int, default=DEFAULT_PAGE_SIZE, help="disk page size in bytes"
    )
    cold.add_argument(
        "--buffer-fraction",
        type=float,
        default=0.01,
        help="LRU buffer capacity as a fraction of the MCN page count",
    )
    cold.add_argument("--queries", type=int, default=16, help="cold skyline queries to run")
    cold.add_argument(
        "--pack",
        default=None,
        metavar="PATH",
        help="write (and keep) the pack here instead of a deleted temp file",
    )
    cold.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the report payload as JSON",
    )
    timedep = bench_commands.add_parser(
        "timedep",
        help="replay a rush-hour edge-cost stream: incremental re-profiling "
        "vs rebuild-every-tick",
    )
    timedep.add_argument("--nodes", type=int, default=300, help="graph nodes")
    timedep.add_argument("--facilities", type=int, default=60, help="number of facilities")
    timedep.add_argument("--cost-types", type=int, default=2, help="number of cost types d")
    timedep.add_argument(
        "--subscriptions", type=int, default=6,
        help="live subscriptions (alternating skyline / top-k)",
    )
    timedep.add_argument("--seed", type=int, default=7, help="random seed")
    timedep.add_argument("--ticks", type=int, default=24, help="stream ticks to replay")
    timedep.add_argument(
        "--start-time", type=float, default=6.0, help="first tick instant"
    )
    timedep.add_argument(
        "--time-step", type=float, default=0.5, help="time between ticks"
    )
    timedep.add_argument(
        "--affected-fraction",
        type=float,
        default=0.25,
        help="fraction of edges with a rush-hour profile",
    )
    timedep.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the report payload as JSON",
    )

    build_ds = commands.add_parser(
        "build-dataset",
        help="stream a grid/small-world dataset straight into an on-disk pack",
    )
    build_ds.add_argument("output", help="path of the pack file to write")
    build_ds.add_argument("--rows", type=int, default=64, help="grid rows")
    build_ds.add_argument("--cols", type=int, default=64, help="grid columns")
    build_ds.add_argument("--cost-types", type=int, default=2, help="number of cost types d")
    build_ds.add_argument("--facilities", type=int, default=256, help="number of facilities")
    build_ds.add_argument(
        "--street-density",
        type=float,
        default=0.3,
        help="probability a horizontal street exists (row 0 is always complete)",
    )
    build_ds.add_argument(
        "--shortcut-fraction",
        type=float,
        default=0.005,
        help="long-range shortcut edges as a fraction of the node count",
    )
    build_ds.add_argument("--seed", type=int, default=7, help="random seed")
    build_ds.add_argument(
        "--page-size", type=int, default=DEFAULT_PAGE_SIZE, help="disk page size in bytes"
    )

    inspect_ds = commands.add_parser(
        "inspect-dataset", help="print a dataset pack's catalog and verify its checksum"
    )
    inspect_ds.add_argument("path", help="path of the pack file to read")
    inspect_ds.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the SHA-256 content verification (headers are still validated)",
    )

    commands.add_parser("list", help="list the available experiments")
    return parser


def _run_demo(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        num_nodes=args.nodes,
        num_facilities=args.facilities,
        num_cost_types=args.cost_types,
        num_queries=1,
        seed=args.seed,
    )
    workload = make_workload(spec)
    # One Session owns the dataset; the demo pulls the engine + storage out
    # of it because it deliberately compares *cold* per-algorithm runs (the
    # facade's cached batch service would share expansions between them).
    session = Session(
        workload.graph,
        workload.facilities,
        policy=ExecutionPolicy(residency="disk", page_size=1024),
    )
    engine = session.engine_for()
    storage = session.storage_for()
    query = workload.queries[0]
    print("workload:", workload.describe())
    print("storage:", storage.describe() if storage else {})
    print("query at", query.describe(workload.graph))
    for algorithm in ("lsa", "cea"):
        storage.reset_statistics(clear_buffer=True)  # type: ignore[union-attr]
        result = engine.skyline(query, algorithm=algorithm)
        io = result.statistics.io
        print(
            f"[skyline/{algorithm}] {len(result)} facilities, "
            f"{io.page_reads} page reads, {io.buffer_hits} buffer hits, "
            f"{result.statistics.elapsed_seconds * 1000:.1f} ms"
        )
    weights = engine.random_weights(random.Random(args.seed))
    for algorithm in ("lsa", "cea"):
        storage.reset_statistics(clear_buffer=True)  # type: ignore[union-attr]
        result = engine.top_k(query, args.k, aggregate=weights, algorithm=algorithm)
        io = result.statistics.io
        ranking = ", ".join(f"p{item.facility_id} ({item.score:.1f})" for item in result)
        print(
            f"[top-{args.k}/{algorithm}] {ranking} | {io.page_reads} page reads, "
            f"{result.statistics.elapsed_seconds * 1000:.1f} ms"
        )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    series = run_experiment(args.name, _SCALES[args.scale])
    if args.csv:
        print(series_to_csv(series), end="")
    else:
        print(format_series_table(series), end="")
        speedups = summarize_speedups(series)
        if speedups:
            print()
            print(speedups)
    return 0


def _run_serve_batch(args: argparse.Namespace) -> int:
    try:
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=args.nodes,
                num_facilities=args.facilities,
                num_cost_types=args.cost_types,
                num_queries=args.queries,
                seed=args.seed,
            ),
            mix=args.mix,
            k=args.k,
            page_size=args.page_size,
            workers=args.workers,
            routing=args.routing.replace("-", "_"),
            executor=args.executor,
        )
        report = replay_workload(spec)
    except ReproError as error:
        print(f"serve-batch: {error}", file=sys.stderr)
        return 2
    print(format_replay_report(report), end="")
    return 0 if report.identical_results and report.counters_consistent else 1


def _run_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "cold-cache":
        return _run_bench_cold_cache(args)
    return _run_bench_timedep(args)


def _run_bench_cold_cache(args: argparse.Namespace) -> int:
    from repro.bench.coldcache import (
        ColdCacheSpec,
        format_cold_cache_report,
        run_cold_cache_bench,
    )

    try:
        spec = ColdCacheSpec(
            dataset=PackedDatasetSpec(
                rows=args.rows,
                cols=args.cols,
                num_cost_types=args.cost_types,
                num_facilities=args.facilities,
                seed=args.seed,
                page_size=args.page_size,
            ),
            buffer_fraction=args.buffer_fraction,
            num_queries=args.queries,
        )
        report = run_cold_cache_bench(
            spec, pack_path=args.pack, keep_pack=args.pack is not None
        )
    except (ReproError, OSError) as error:
        print(f"bench cold-cache: {error}", file=sys.stderr)
        return 2
    print(format_cold_cache_report(report), end="")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.io_identical and report.results_identical else 1


def _run_bench_timedep(args: argparse.Namespace) -> int:
    from repro.bench.timedep import (
        TimedepBenchSpec,
        format_timedep_report,
        run_timedep_bench,
    )
    from repro.datagen.updates import EdgeCostStreamSpec

    try:
        spec = TimedepBenchSpec(
            workload=WorkloadSpec(
                num_nodes=args.nodes,
                num_facilities=args.facilities,
                num_cost_types=args.cost_types,
                num_queries=args.subscriptions,
                seed=args.seed,
            ),
            stream=EdgeCostStreamSpec(
                num_ticks=args.ticks,
                start_time=args.start_time,
                time_step=args.time_step,
                affected_fraction=args.affected_fraction,
                seed=args.seed,
            ),
        )
        report = run_timedep_bench(spec)
    except ReproError as error:
        print(f"bench timedep: {error}", file=sys.stderr)
        return 2
    print(format_timedep_report(report), end="")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.results_identical else 1


def _run_serve(args: argparse.Namespace) -> int:
    workload_spec = WorkloadSpec(
        num_nodes=args.nodes,
        num_facilities=args.facilities,
        num_cost_types=args.cost_types,
        num_queries=args.queries,
        seed=args.seed,
    )
    if args.replay:
        try:
            spec = ServeReplaySpec(
                workload=workload_spec,
                mix=args.mix,
                k=args.k,
                clients=args.clients,
                ticks=args.ticks,
                updates_per_tick=args.updates_per_tick,
                max_in_flight=args.max_in_flight,
                timeout_seconds=args.timeout,
                drain_after=args.drain_after,
                journal_path=args.journal,
            )
            report = replay_serve_workload(spec)
        except ReproError as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        print(format_serve_report(report), end="")
        return 0 if report.clean else 1

    async def listen() -> int:
        workload = make_workload(workload_spec)
        session = Session(workload.graph, workload.facilities)
        journal = (
            None
            if args.journal is None
            else JobJournal(args.journal, fingerprint=session.dataset_fingerprint())
        )
        app = ServeApp(
            session,
            config=ServeConfig(
                max_in_flight=args.max_in_flight,
                request_timeout_seconds=args.timeout,
                drain_deadline_seconds=args.drain_deadline,
            ),
            journal=journal,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        async with app, HttpServer(app, host=args.host, port=args.port) as server:
            recovered = app.last_recovery
            if recovered and (recovered["jobs"] or recovered["ticks_reapplied"]):
                print(
                    f"recovered journal: {recovered['jobs']} jobs "
                    f"({recovered['reexecuted_jobs']} re-executed), "
                    f"{recovered['ticks_reapplied']} ticks re-applied"
                )
            print(f"serving {workload.describe()}")
            print(
                f"listening on http://{args.host}:{server.port} "
                "(SIGTERM/Ctrl-C drains, then stops)"
            )
            for route in app.describe_surface()["routes"]:
                print(f"  {route['method']:<6} {route['path']}")
            await stop.wait()
            # Stop accepting sockets, then drain the app: in-flight requests
            # and queued jobs finish (or the deadline forces the close).
            report = await app.drain()
        verdict = "drained clean" if report.clean else "drain deadline forced the close"
        print(f"stopped: {verdict} ({report.waited_seconds * 1000:.1f} ms)")
        return 0 if report.clean else 3

    try:
        return asyncio.run(listen())
    except KeyboardInterrupt:  # pragma: no cover - signal handler beats this
        print("stopped")
        return 0


def _run_monitor(args: argparse.Namespace) -> int:
    try:
        spec = MonitorReplaySpec(
            workload=WorkloadSpec(
                num_nodes=args.nodes,
                num_facilities=args.facilities,
                num_cost_types=args.cost_types,
                num_queries=args.subscriptions,
                seed=args.seed,
            ),
            stream=UpdateStreamSpec(
                num_ticks=args.ticks,
                updates_per_tick=args.updates_per_tick,
                locality=args.locality,
                seed=args.seed + 1,
            ),
            subscriptions=args.subscriptions,
            mix=args.mix,
            k=args.k,
            workers=args.workers,
            routing=args.routing.replace("-", "_"),
            executor=args.executor,
        )
        report = replay_update_stream(spec)
    except ReproError as error:
        print(f"monitor: {error}", file=sys.stderr)
        return 2
    print(format_monitor_report(report), end="")
    return 0 if report.identical_results else 1


def _run_build_dataset(args: argparse.Namespace) -> int:
    try:
        spec = PackedDatasetSpec(
            rows=args.rows,
            cols=args.cols,
            num_cost_types=args.cost_types,
            num_facilities=args.facilities,
            street_density=args.street_density,
            shortcut_fraction=args.shortcut_fraction,
            seed=args.seed,
            page_size=args.page_size,
        )
        catalog = build_packed_dataset(spec, args.output)
    except (ReproError, OSError) as error:
        print(f"build-dataset: {error}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    for key, value in catalog.describe().items():
        print(f"  {key}: {value}")
    return 0


def _run_inspect_dataset(args: argparse.Namespace) -> int:
    try:
        with open_dataset(args.path, verify_checksum=not args.no_verify) as dataset:
            description = dataset.catalog.describe()
    except (ReproError, OSError) as error:
        print(f"inspect-dataset: {error}", file=sys.stderr)
        return 2
    print(args.path)
    for key, value in description.items():
        print(f"  {key}: {value}")
    verified = "skipped" if args.no_verify else "verified"
    print(f"  sha256: {verified}")
    return 0


def _run_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        description, _factory = EXPERIMENTS[name]
        print(f"{name.ljust(width)}  {description}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-mcn`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "serve-batch":
        return _run_serve_batch(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "monitor":
        return _run_monitor(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "build-dataset":
        return _run_build_dataset(args)
    if args.command == "inspect-dataset":
        return _run_inspect_dataset(args)
    return _run_list()


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
