"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload served_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pack_reads --seed 1 --seconds 10 --repeat 5

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (reporting the
median set-up time), then drives the workload's operation stream as a
closed loop and prints the end-to-end metrics.  With ``--trace 1`` it runs
the same stream twice -- untraced, then with the span recorder installed --
and prints the per-layer metrics.  Every answer is checked against the
method's properties, and a deterministic sample against the independent
oracle; the run exits 1 on any wrong answer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--repeat N`` runs the workload N times in child processes and prints each
metric's median, quartiles and max/min; it fails when an exact count
differs between runs of one seed.  See README.md for the clock, the
workloads and the recorded figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from clock import ReferenceClock  # noqa: E402
from oracle import (  # noqa: E402
    check_skyline,
    check_topk,
    facility_costs,
    skyline_properties,
    topk_properties,
)

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END = {
    "throughput_ops": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "accessor_requests_per_op": "1",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "serve.transport_ms": "ms",
    "serve.dispatch_ms": "ms",
    "api.session_ms": "ms",
    "service.execute_ms": "ms",
    "service.memo_hit_ratio": "1",
    "service.record_hit_ratio": "1",
    "core.search_ms": "ms",
    "core.heap_pops_per_op": "1",
    "core.dominance_checks_per_op": "1",
    "core.maintenance_ms": "ms",
    "network.accessor_ms": "ms",
    "network.adjacency_requests_per_op": "1",
    "network.facility_requests_per_op": "1",
    "storage.page_fetch_ms": "ms",
    "storage.buffer_hit_ratio": "1",
    "page_reads_per_op": "1",
    "monitor.tick_ms": "ms",
    "monitor.incremental_ratio": "1",
    "temporal.snapshot_build_ms": "ms",
    "temporal.snapshot_hit_ratio": "1",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "trace.overhead": "1",
}

#: Metrics computed from exact counts: identical across runs of one seed.
EXACT = {
    "accessor_requests_per_op",
    "service.memo_hit_ratio",
    "service.record_hit_ratio",
    "core.heap_pops_per_op",
    "core.dominance_checks_per_op",
    "network.adjacency_requests_per_op",
    "network.facility_requests_per_op",
    "storage.buffer_hit_ratio",
    "page_reads_per_op",
    "monitor.incremental_ratio",
    "temporal.snapshot_hit_ratio",
}


@dataclass
class Pass:
    """What one drive of the operation stream measured."""

    answers: list = field(default_factory=list)
    raw_latency: list = field(default_factory=list)  # seconds, per op
    factor: list = field(default_factory=list)  # clock factor, per op
    wall_raw: float = 0.0
    wall_norm: float = 0.0
    cpu_raw: float = 0.0
    cpu_norm: float = 0.0

    def latency(self, index: int) -> float:
        return self.raw_latency[index] * self.factor[index]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_setup(workload, clock: ReferenceClock, trace_out=None) -> tuple[float, float]:
    """One set-up, each step its own clock interval; (normalised, raw) seconds."""
    normalised = raw = 0.0
    for step in workload.setup_steps(trace_out):
        begin = time.perf_counter()
        step()
        elapsed = time.perf_counter() - begin
        raw += elapsed
        normalised += elapsed * clock.close_interval()
    return normalised, raw


def drive(workload, clock: ReferenceClock, recorder=None) -> Pass:
    """Run the whole operation stream in blocks, a reference run after each."""
    result = Pass()
    ops = workload.ops
    size = workload.block_ops
    for start in range(0, len(ops), size):
        cpu_before = workload.cpu_seconds()
        block_begin = time.perf_counter()
        for index in range(start, min(start + size, len(ops))):
            op_id = str(index)
            if recorder is not None:
                recorder.request_id = op_id
            begin = time.perf_counter()
            answer = workload.execute(ops[index], op_id)
            result.raw_latency.append(time.perf_counter() - begin)
            if recorder is not None:
                recorder.request_id = None
            result.answers.append(answer)
        block = time.perf_counter() - block_begin
        cpu = workload.cpu_seconds() - cpu_before
        factor = clock.close_interval()
        result.factor.extend([factor] * (len(result.answers) - len(result.factor)))
        result.wall_raw += block
        result.wall_norm += block * factor
        result.cpu_raw += cpu
        result.cpu_norm += cpu * factor
    return result


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def check_answers(workload, answers) -> tuple[dict, dict, list[str]]:
    """Per-kind attempted/failed counts and the wrong answers found."""
    attempted: dict[str, int] = {}
    failed: dict[str, int] = {}
    wrong: list[str] = []
    for index, (op, answer) in enumerate(zip(workload.ops, answers)):
        attempted[op.kind] = attempted.get(op.kind, 0) + 1
        failed.setdefault(op.kind, 0)
        if not answer.ok:
            failed[op.kind] += 1
            print(f"  op {index} ({op.kind}) failed: {answer.error}", file=sys.stderr)
            continue
        if not op.is_read:
            continue
        if op.kind == "skyline":
            if answer.members is None:
                problems = ["a skyline request was answered with a top-k result"]
            else:
                problems = skyline_properties(answer.members, op.reachable)
        else:
            if answer.ranking is None:
                problems = ["a top-k request was answered with a skyline result"]
            else:
                problems = topk_properties(answer.ranking, op.k, op.reachable)
        if not problems and op.oracle_state is not None:
            vectors = facility_costs(workload.oracle_network(op.oracle_state), op.location)
            if op.kind == "skyline":
                problems = check_skyline(answer.members, vectors)
            else:
                problems = check_topk(answer.ranking, vectors, op.weights, op.k)
        if problems:
            failed[op.kind] += 1
            wrong.extend(f"op {index} ({op.kind}): {problem}" for problem in problems[:3])
    return attempted, failed, wrong


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _io_total(answers, *names) -> int:
    return sum(answer.io.get(name, 0) for answer in answers for name in names)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload, run: Pass, setup_s: float, rss: float) -> dict[str, float]:
    ops = workload.ops
    reads = [run.latency(i) for i, op in enumerate(ops) if op.is_read]
    return {
        "throughput_ops": len(ops) / run.wall_norm,
        "read_p50_ms": percentile(reads, 0.50) * 1e3,
        "read_p95_ms": percentile(reads, 0.95) * 1e3,
        "cpu_ms_per_op": run.cpu_norm / len(ops) * 1e3,
        "accessor_requests_per_op": _io_total(
            run.answers, "adjacency_requests", "facility_requests", "facility_tree_requests"
        ) / len(ops),
        "peak_rss_mib": rss,
        "setup_s": setup_s,
    }


def per_layer(workload, untraced: Pass, traced: Pass, trace: dict) -> dict[str, float]:
    ops = workload.ops
    n = len(ops)
    self_ns, total_ns, counts = trace["self_ns"], trace["total_ns"], trace["counts"]

    def layer_ms(name: str, table=self_ns) -> float:
        return sum(
            traced.factor[i] * table.get(str(i), {}).get(name, 0) for i in range(n)
        ) / 1e6 / n

    def count(name: str) -> int:
        return sum(per.get(name, 0) for key, per in counts.items() if key.isdigit())

    transport = 0.0
    if any("serve.dispatch" in per for per in total_ns.values()):
        transport = sum(
            traced.factor[i]
            * (traced.raw_latency[i] - total_ns.get(str(i), {}).get("serve.dispatch", 0) / 1e9)
            for i in range(n)
        ) * 1e3 / n
    writes = [untraced.latency(i) * 1e3 for i, op in enumerate(ops) if not op.is_read]
    ticks = [a.counters for a, op in zip(untraced.answers, ops) if not op.is_read]
    updates = sum(c.get("insertions", 0) + c.get("deletions", 0) for c in ticks)
    answers = untraced.answers
    return {
        "serve.transport_ms": transport,
        "serve.dispatch_ms": layer_ms("serve.dispatch"),
        "api.session_ms": layer_ms("api.session"),
        "service.execute_ms": layer_ms("service.execute"),
        "service.memo_hit_ratio": _ratio(
            count("result_hits"), count("result_hits") + count("result_misses")
        ),
        "service.record_hit_ratio": _ratio(
            count("record_hits"), count("record_hits") + count("record_misses")
        ),
        "core.search_ms": layer_ms("core.search"),
        "core.heap_pops_per_op": count("heap_pops") / n,
        "core.dominance_checks_per_op": count("dominance_checks") / n,
        "core.maintenance_ms": layer_ms("core.maintenance"),
        "network.accessor_ms": layer_ms("network.accessor"),
        "network.adjacency_requests_per_op": _io_total(answers, "adjacency_requests") / n,
        "network.facility_requests_per_op": _io_total(
            answers, "facility_requests", "facility_tree_requests"
        ) / n,
        "storage.page_fetch_ms": layer_ms("storage.page_fetch"),
        "storage.buffer_hit_ratio": _ratio(
            _io_total(answers, "buffer_hits"), _io_total(answers, "buffer_hits", "page_reads")
        ),
        "page_reads_per_op": _io_total(answers, "page_reads") / n,
        "monitor.tick_ms": layer_ms("monitor.tick", total_ns),
        "monitor.incremental_ratio": _ratio(
            sum(c.get("incremental_updates", 0) for c in ticks), updates
        ),
        "temporal.snapshot_build_ms": layer_ms("temporal.snapshot_build", total_ns),
        "temporal.snapshot_hit_ratio": _ratio(
            count("snapshot_hits"), count("snapshot_hits") + count("snapshot_builds")
        ),
        "write_p50_ms": percentile(writes, 0.50) if writes else 0.0,
        "write_p90_ms": percentile(writes, 0.90) if writes else 0.0,
        "trace.overhead": traced.wall_norm / untraced.wall_norm,
    }


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def pin_to_one_cpu() -> None:
    """Run this process -- and the server it starts -- on one CPU.

    The reference clock only corrects for slowdowns it shares with the
    work it scales.  On a shared machine each CPU is slowed at different
    times, so the client, the reference and the server (which inherits the
    affinity) all stay on one CPU.  With one operation in flight they never
    need two at once.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: measure unpinned
        pass


def run_once(args) -> int:
    from workloads import WORK, WORKLOADS

    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    clock = ReferenceClock()
    clock.start()
    setups: list[tuple[float, float]] = []
    trace: dict | None = None
    try:
        if not args.trace:
            for repeat in range(SETUP_REPEATS):
                if repeat:
                    workload.teardown()
                setups.append(run_setup(workload, clock))
            run = drive(workload, clock)
            rss = workload.peak_rss_mib()
            end_problems = workload.end_state_problems()
        else:
            run_setup(workload, clock)
            untraced = drive(workload, clock)
            end_problems = workload.end_state_problems()
            workload.teardown()
            from tracer import SpanRecorder, install

            if workload.served:
                # The recorder runs in the server; it writes its spans on exit.
                trace_out = WORK / f"trace-{workload.name}-{os.getpid()}.json"
                run_setup(workload, clock, trace_out)
                run = drive(workload, clock)
                end_problems += workload.end_state_problems()
                workload.teardown()
                trace = json.loads(trace_out.read_text(encoding="utf-8"))
                trace_out.unlink()
            else:
                recorder = SpanRecorder()
                install(recorder)
                run_setup(workload, clock)
                run = drive(workload, clock, recorder)
                trace = recorder.to_payload()
    finally:
        workload.teardown()

    attempted, failed, wrong = check_answers(workload, run.answers)
    if args.trace:
        _attempted, more_failed, more_wrong = check_answers(workload, untraced.answers)
        wrong += more_wrong
        for kind, value in more_failed.items():
            failed[kind] = max(failed[kind], value)
        same = all(
            (a.members, a.ranking) == (b.members, b.ranking)
            for a, b in zip(untraced.answers, run.answers)
        )
        if not same:
            wrong.append("the traced and untraced passes answered differently")
    wrong += end_problems
    n = len(workload.ops)
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} inputs={workload.fingerprint} ops={n} "
        f"({workload.rounds} rounds of {workload.round_ops})"
    )
    for kind in sorted(attempted):
        print(f"  {kind}: attempted {attempted[kind]} failed {failed[kind]}")
    for problem in wrong[:20]:
        print(f"  WRONG {problem}")

    if args.trace:
        metrics = per_layer(workload, untraced, run, trace)
        units = PER_LAYER
    else:
        setup_norm = statistics.median(s for s, _raw in setups)
        metrics = end_to_end(workload, run, setup_norm, rss)
        units = END_TO_END
        reads = [run.raw_latency[i] for i, op in enumerate(workload.ops) if op.is_read]
        raw = {
            "throughput_ops": n / run.wall_raw,
            "read_p50_ms": percentile(reads, 0.50) * 1e3,
            "read_p95_ms": percentile(reads, 0.95) * 1e3,
            "cpu_ms_per_op": run.cpu_raw / n * 1e3,
            "setup_s": statistics.median(r for _norm, r in setups),
            "reference_median_ms": clock.median_ms(),
            "reference_min_ms": min(clock.samples) * 1e3,
            "reference_max_ms": max(clock.samples) * 1e3,
            "reference_runs": len(clock.samples),
        }
        print("raw: " + json.dumps(raw, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": n,
        "failed": sum(failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


# ---------------------------------------------------------------------- #
# Repeat mode
# ---------------------------------------------------------------------- #
def repeat(args) -> int:
    runs, raws = [], []
    for index in range(args.repeat):
        seed = args.seed + index if args.vary_seed else args.seed
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT))
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout + completed.stderr)
            print(f"run {index + 1} (seed {seed}) exited {completed.returncode}")
            return 1
        runs.append(json.loads(lines[-1]))
        raws.extend(json.loads(line[5:]) for line in lines if line.startswith("raw: "))
        print(f"run {index + 1}/{args.repeat} seed {seed}: " + lines[0])
    names = list(runs[0]["metrics"])
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'max/min':>8} {'iqr/med':>8}")
    table = [(name, [run["metrics"][name]["value"] for run in runs]) for name in names]
    table += [(f"raw.{name}", [raw[name] for raw in raws]) for name in (raws[0] if raws else {})]
    status = 0
    for name, values in table:
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = max(values) / min(values) if min(values) > 0 else float("nan")
        iqr = (q3 - q1) / median if median else 0.0
        print(f"{name:34} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {iqr:8.3f}")
        if name in EXACT and not args.vary_seed and len(set(values)) > 1:
            print(f"  {name} differs between runs of one seed: {values}")
            status = 1
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share per run: {sorted(shares)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("served_reads", "served_updates", "pack_reads", "departures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times and summarise")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: use seed, seed+1, ... (skips the exact-count check)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
