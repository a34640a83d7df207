"""The four workloads: inputs from a seed, set-up steps, one operation, end state.

Every workload is a closed loop with one client, one operation in flight
and no think time.  The client builds its own copy of the inputs from the
seed (network, facilities and the whole operation stream, ticks included)
before any clock starts, so it knows the exact state the program should be
in at every operation -- which is what the oracle checks answers against.

Sizes are fixed per workload (the README records why), the dataset is
drawn from ``DATA_SEED``, the run's seed orders the reads, and
``--seconds`` scales the number of whole rounds.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Location, Network

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Seed of every workload's dataset: network, facilities, profile set, tick
#: sequence and the population of distinct reads.  The run's ``--seed``
#: shuffles the reads over it: a seed that also redrew the network moved
#: the work per operation by up to a third from seed to seed, far more than
#: the gains the benchmark must see.
DATA_SEED = 2010

#: Reads per run checked against the oracle (a deterministic, evenly spread
#: sample); every read is checked against the method's properties.
ORACLE_SAMPLES = 24

__all__ = ["WORKLOADS", "Answer", "Op"]


@dataclass
class Op:
    """One operation of the stream, plus what the client knows about it."""

    kind: str  # "skyline" | "topk" | "facility_tick" | "edge_tick"
    payload: dict
    location: Location | None = None
    k: int = 0
    weights: tuple[float, ...] = ()
    departure_time: float | None = None
    #: Live facilities reachable from the location when the read runs.
    reachable: int = 0
    #: For reads sampled for the oracle: the state the read must be judged on.
    oracle_state: dict | None = None
    body: bytes = b""
    request: object = None

    @property
    def is_read(self) -> bool:
        return self.kind in ("skyline", "topk")


@dataclass
class Answer:
    ok: bool
    error: str = ""
    members: dict | None = None  # skyline: facility -> reported costs
    ranking: list | None = None  # top-k: [(facility, score)]
    io: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def network_from_program(graph, facilities) -> Network:
    """The oracle's plain-data copy of a program graph and facility set."""
    edges = {
        edge.edge_id: (edge.u, edge.v, tuple(edge.costs.values), edge.length)
        for edge in graph.edges()
    }
    placed = {f.facility_id: (f.edge_id, f.offset) for f in facilities}
    return Network(graph.num_cost_types, edges, placed)


def _io_dict(io) -> dict:
    return {
        "adjacency_requests": io.adjacency_requests,
        "facility_requests": io.facility_requests,
        "facility_tree_requests": io.facility_tree_requests,
        "page_reads": io.page_reads,
        "buffer_hits": io.buffer_hits,
    }


def _answer_from_response(response) -> Answer:
    """An in-process ``Response`` as an :class:`Answer`."""
    result = response.result
    if hasattr(result, "scores"):
        ranking = [(item.facility_id, item.score) for item in result]
        return Answer(True, ranking=ranking, io=_io_dict(response.io))
    members = {item.facility_id: tuple(item.costs) for item in result}
    return Answer(True, members=members, io=_io_dict(response.io))


def _answer_from_wire(status: int, raw: bytes, op: Op) -> Answer:
    if not 200 <= status < 300:
        return Answer(False, f"HTTP {status}: {raw[:300]!r}")
    document = json.loads(raw)
    if not op.is_read:
        return Answer(True, io=document["io"], counters=document["counters"])
    result = document["result"]
    if result["type"] == "skyline":
        members = {
            entry["facility"]: tuple(entry["costs"]) for entry in result["facilities"]
        }
        return Answer(True, members=members, io=document["io"])
    ranking = [(entry["facility"], entry["score"]) for entry in result["ranking"]]
    return Answer(True, ranking=ranking, io=document["io"])


# ---------------------------------------------------------------------- #
# Operation streams
# ---------------------------------------------------------------------- #
def draw_read(rng: random.Random, network: Network, departure=None) -> Op:
    """One skyline or top-k read at a random location (k and weights drawn too)."""
    if rng.random() < 0.15:
        node = rng.choice(network.node_ids)
        location = Location(node=node)
        wire_location: dict = {"node": node}
    else:
        edge = rng.choice(network.edge_ids)
        offset = network.edges[edge][3] * rng.uniform(0.05, 0.95)
        location = Location(edge=edge, offset=offset)
        wire_location = {"edge": edge, "offset": offset}
    if rng.random() < 0.5:
        op = Op("skyline", {"type": "skyline", "location": wire_location}, location)
    else:
        k = rng.randint(1, 8)
        weights = tuple(round(rng.uniform(0.1, 1.0), 3) for _ in range(network.num_costs))
        payload = {"type": "topk", "location": wire_location, "k": k, "weights": list(weights)}
        op = Op("topk", payload, location, k, weights)
    if departure is not None:
        op.departure_time = departure(rng)
        op.payload["departure_time"] = op.departure_time
    return op


def read_stream(
    name: str,
    rng: random.Random,
    network: Network,
    count: int,
    *,
    repeat_every: int = 0,
) -> list[Op]:
    """``count`` reads: a fixed population of requests in a seeded order.

    The distinct requests are drawn from the dataset seed, so every run
    seed asks the same questions; the run's ``rng`` shuffles their order.
    Every ``repeat_every``-th read repeats the previous distinct request,
    so how many repeats a tick separates from their original -- and with
    it the memo-hit share -- is the same for every seed.  Drawing the
    requests from the run seed as well moved the mean work per read by a
    tenth from seed to seed.
    """
    repeats = count // repeat_every if repeat_every else 0
    population = random.Random(f"{name}:reads:{DATA_SEED}")
    distinct = [draw_read(population, network) for _ in range(count - repeats)]
    rng.shuffle(distinct)
    pending = iter(distinct)
    ops: list[Op] = []
    for index in range(count):
        if repeat_every and index % repeat_every == repeat_every - 1:
            prior = ops[-1]
            ops.append(Op(prior.kind, prior.payload, prior.location, prior.k, prior.weights))
        else:
            ops.append(next(pending))
    return ops


def _fingerprint(network: Network, ops: list[Op], extra: object = None) -> str:
    digest = hashlib.sha256()
    for edge_id in sorted(network.edges):
        digest.update(repr((edge_id, network.edges[edge_id])).encode())
    for facility_id in sorted(network.facilities):
        digest.update(repr((facility_id, network.facilities[facility_id])).encode())
    for op in ops:
        digest.update(json.dumps(op.payload, sort_keys=True).encode())
    digest.update(repr(extra).encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------- #
# The server process of the served workloads
# ---------------------------------------------------------------------- #
def _proc_stat_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mib(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServerProcess:
    """``repro-mcn serve`` in a child process, listening on an ephemeral port."""

    _serial = 0

    def __init__(self, cli_args: list[str], trace_out: Path | None = None):
        ServerProcess._serial += 1
        WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = WORK / f"server-{os.getpid()}-{ServerProcess._serial}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(trace_out), *cli_args]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + 120
        while True:
            text = self.log_path.read_text(encoding="utf-8")
            match = re.search(r"listening on http://([0-9.]+):(\d+)", text)
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro-mcn serve did not start:\n{text[-3000:]}")
            time.sleep(0.001)

    def request(self, method: str, path: str, body: bytes | None, op_id: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"X-Bench-Op": op_id}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def first_event(self, path: str) -> dict:
        """Open an SSE stream, return its first event's data, then hang up."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", path, headers={"X-Bench-Op": "check"})
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            while True:
                line = response.fp.readline()
                if not line:
                    raise RuntimeError(f"GET {path}: stream ended before an event")
                if line.startswith(b"data: "):
                    return json.loads(line[6:])
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        return _proc_stat_cpu(self.process.pid)

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Shared shape: ``prepare`` once, then set-up / operate / tear down."""

    name = ""
    #: Operations per round: every run attempts whole rounds.
    round_ops = 1
    #: Rounds per ``--seconds``: sizes a run to take about that long.
    rounds_per_second = 1.0
    #: Operations between two reference runs of the clock.
    block_ops = 4
    #: Reads per round (the rest are ticks).
    reads_per_round = 1
    #: Whether the operations run in a ``repro-mcn serve`` child process.
    served = False

    def __init__(self, seed: int, seconds: int):
        self.rounds = max(1, round(seconds * self.rounds_per_second))
        #: Every n-th read is checked against the oracle.
        self.sample_every = max(1, self.rounds * self.reads_per_round // ORACLE_SAMPLES)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.network: Network | None = None
        self.ops: list[Op] = []
        self.fingerprint = ""
        self.data_seed = DATA_SEED

    # inputs ------------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def _sample_static(self, ops: list[Op]) -> None:
        """Mark the oracle sample of a stream that never changes the state."""
        reads = [op for op in ops if op.is_read]
        for op in reads[:: self.sample_every]:
            op.oracle_state = {}

    def _make_program_workload(self):
        """The program's generated workload for this dataset (a fresh copy)."""
        from repro.datagen.workload import WorkloadSpec, make_workload

        return make_workload(
            WorkloadSpec(
                num_nodes=self.nodes,
                num_facilities=self.facilities,
                num_cost_types=self.cost_types,
                seed=self.data_seed,
            )
        )

    # running -----------------------------------------------------------
    def setup_steps(self, trace_out: Path | None) -> list:
        """The timed set-up steps, in order (callables)."""
        raise NotImplementedError

    def execute(self, op: Op, op_id: str) -> Answer:
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib("self")

    def end_state_problems(self) -> list[str]:
        return []

    def teardown(self) -> None:
        pass

    def oracle_network(self, state: dict) -> Network:
        return self.network


class _Served(Workload):
    nodes = 5000
    facilities = 400
    cost_types = 3
    block_ops = 8
    served = True

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        self.server: ServerProcess | None = None

    def cli_args(self) -> list[str]:
        return [
            "serve",
            "--nodes", str(self.nodes),
            "--facilities", str(self.facilities),
            "--cost-types", str(self.cost_types),
            "--seed", str(self.data_seed),
            "--port", "0",
        ]

    def _start(self, trace_out: Path | None) -> None:
        self.server = ServerProcess(self.cli_args(), trace_out)

    def _warm_up(self) -> None:
        for op in self.warmup_ops:
            status, raw = self.server.request("POST", "/v1/query", op.body, "warmup")
            if status != 200:
                raise RuntimeError(f"warm-up read failed: HTTP {status} {raw[:300]!r}")

    def setup_steps(self, trace_out: Path | None) -> list:
        return [lambda: self._start(trace_out), self._warm_up]

    def execute(self, op: Op, op_id: str) -> Answer:
        if op.is_read:
            status, raw = self.server.request("POST", "/v1/query", op.body, op_id)
        else:
            status, raw = self.server.request("PATCH", "/v1/facilities", op.body, op_id)
        return _answer_from_wire(status, raw, op)

    def cpu_seconds(self) -> float:
        return self.server.cpu_seconds()

    def peak_rss_mib(self) -> float:
        return self.server.peak_rss_mib()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _finish_reads(self, ops: list[Op]) -> None:
        for op in ops:
            op.body = json.dumps(
                {"request": op.payload} if op.is_read else op.payload
            ).encode()


class ServedReads(_Served):
    """Reads only, over loopback HTTP; a fifth repeat a recent request."""

    name = "served_reads"
    round_ops = reads_per_round = 20
    rounds_per_second = 10.0

    def prepare(self) -> None:
        program = self._make_program_workload()
        self.network = network_from_program(program.graph, program.facilities)
        components = self.network.component_of()
        fixed = random.Random(f"{self.name}:setup:{DATA_SEED}")
        self.warmup_ops = [draw_read(fixed, self.network) for _ in range(4)]
        self.ops = read_stream(
            self.name, self.rng, self.network, self.rounds * self.round_ops, repeat_every=5
        )
        for op in self.ops:
            op.reachable = self.network.reachable_facilities(op.location, components)
        self._sample_static(self.ops)
        self._finish_reads(self.warmup_ops + self.ops)
        self.fingerprint = _fingerprint(self.network, self.ops)


class ServedUpdates(_Served):
    """Reads interleaved with facility insert/delete ticks; live subscriptions."""

    name = "served_updates"
    #: One round: three reads, a tick, three reads, a tick.
    pattern = "RRRTRRRT"
    round_ops = len(pattern)
    reads_per_round = pattern.count("R")
    rounds_per_second = 32.0
    subscriptions = 8

    def prepare(self) -> None:
        program = self._make_program_workload()
        self.network = network_from_program(program.graph, program.facilities)
        components = self.network.component_of()
        fixed = random.Random(f"{self.name}:setup:{DATA_SEED}")
        self.subscription_ops = [draw_read(fixed, self.network) for _ in range(self.subscriptions)]
        self.warmup_ops = [draw_read(fixed, self.network) for _ in range(4)]
        stream = iter(read_stream(
            self.name, self.rng, self.network, self.rounds * self.reads_per_round, repeat_every=5
        ))
        # The tick sequence is part of the dataset, like the read population:
        # the run seed orders the reads between the ticks.
        ticks = random.Random(f"{self.name}:ticks:{DATA_SEED}")
        live = dict(self.network.facilities)
        next_id = max(live) + 1
        edges = sorted(self.network.edges)

        def tick() -> Op:
            nonlocal next_id
            victim = ticks.choice(sorted(live))
            edge = ticks.choice(edges)
            offset = self.network.edges[edge][3] * ticks.uniform(0.05, 0.95)
            updates = [
                {"type": "delete", "facility": victim},
                {"type": "insert", "facility": next_id, "edge": edge, "offset": offset},
            ]
            del live[victim]
            live[next_id] = (edge, offset)
            next_id += 1
            return Op("facility_tick", {"updates": updates})

        self.warmup_tick = tick()
        ops: list[Op] = []
        reads = 0
        for _round in range(self.rounds):
            for slot in self.pattern:
                if slot == "T":
                    ops.append(tick())
                    continue
                op = next(stream)
                op.reachable = self.network.reachable_facilities(op.location, components, live)
                if reads % self.sample_every == 0:
                    op.oracle_state = {"facilities": dict(live)}
                reads += 1
                ops.append(op)
        self.ops = ops
        self.final_facilities = dict(live)
        self._finish_reads(self.subscription_ops + self.warmup_ops + [self.warmup_tick] + ops)
        self.fingerprint = _fingerprint(self.network, self.subscription_ops + self.ops)

    def _subscribe(self) -> None:
        self.subscription_ids = []
        for op in self.subscription_ops:
            status, raw = self.server.request("POST", "/v1/subscriptions", op.body, "setup")
            if status != 201:
                raise RuntimeError(f"subscription failed: HTTP {status} {raw[:300]!r}")
            self.subscription_ids.append(json.loads(raw)["subscription"])

    def _warm_up(self) -> None:
        super()._warm_up()
        status, raw = self.server.request("PATCH", "/v1/facilities", self.warmup_tick.body, "warmup")
        if status != 200:
            raise RuntimeError(f"warm-up tick failed: HTTP {status} {raw[:300]!r}")

    def setup_steps(self, trace_out: Path | None) -> list:
        return [lambda: self._start(trace_out), self._subscribe, self._warm_up]

    def oracle_network(self, state: dict) -> Network:
        return self.network.with_state(facilities=state["facilities"])

    def end_state_problems(self) -> list[str]:
        """Every live subscription after the last tick, against the oracle."""
        from oracle import check_skyline, check_topk, facility_costs

        network = self.network.with_state(facilities=self.final_facilities)
        problems = []
        for sid, op in zip(self.subscription_ids, self.subscription_ops):
            event = self.server.first_event(f"/v1/subscriptions/{sid}/stream")
            vectors = facility_costs(network, op.location)
            if op.kind == "skyline":
                members = {fid: tuple(costs) for fid, costs in event["facilities"]}
                found = check_skyline(members, vectors)
            else:
                ranking = sorted(
                    ((fid, score) for fid, score in event["facilities"]),
                    key=lambda entry: entry[1],
                )
                found = check_topk(ranking, vectors, op.weights, op.k)
            problems.extend(f"subscription {sid}: {problem}" for problem in found)
        return problems


class PackReads(Workload):
    """Skyline/top-k reads on a session opened straight over a dataset pack."""

    name = "pack_reads"
    rows = 100
    facilities = 2000
    cost_types = 3
    round_ops = reads_per_round = 10
    rounds_per_second = 6.0
    block_ops = 2
    #: Bound of the session's cross-query record cache (a fifth of the
    #: nodes).  A pack holds a dataset meant to outgrow memory, and with the
    #: default unbounded cache a run drifts from page-bound reads to
    #: all-cached ones (median 13 ms in the first half of a run, 3.8 ms in
    #: the second), so the median depended on which reads came first.
    max_cached_entries = 2000

    def _spec(self):
        from repro.datagen.road_network import PackedDatasetSpec

        return PackedDatasetSpec(
            rows=self.rows,
            cols=self.rows,
            num_cost_types=self.cost_types,
            num_facilities=self.facilities,
            seed=self.data_seed,
        )

    def prepare(self) -> None:
        from repro.datagen.road_network import materialize_packed_dataset
        from repro.service.requests import request_from_payload

        graph, facilities = materialize_packed_dataset(self._spec())
        self.network = network_from_program(graph, facilities)
        components = self.network.component_of()
        fixed = random.Random(f"{self.name}:setup:{DATA_SEED}")
        self.warmup_ops = [draw_read(fixed, self.network) for _ in range(2)]
        self.ops = read_stream(self.name, self.rng, self.network, self.rounds * self.round_ops)
        for op in self.warmup_ops + self.ops:
            op.reachable = self.network.reachable_facilities(op.location, components)
            op.request = request_from_payload(op.payload)
        self._sample_static(self.ops)
        self.fingerprint = _fingerprint(self.network, self.ops)
        self.pack_path = WORK / f"pack-{os.getpid()}.mcnpack"
        self.session = None

    def _build_pack(self) -> None:
        from repro.datagen.road_network import build_packed_dataset

        WORK.mkdir(parents=True, exist_ok=True)
        build_packed_dataset(self._spec(), str(self.pack_path))

    def _open(self) -> None:
        from repro.api import ExecutionPolicy, Session

        self.session = Session.from_dataset(
            str(self.pack_path),
            policy=ExecutionPolicy(max_cached_entries=self.max_cached_entries),
        )

    def _warm_up(self) -> None:
        for op in self.warmup_ops:
            self.session.query(op.request)

    def setup_steps(self, trace_out: Path | None) -> list:
        return [self._build_pack, self._open, self._warm_up]

    def execute(self, op: Op, op_id: str) -> Answer:
        from repro.errors import ReproError

        try:
            return _answer_from_response(self.session.query(op.request))
        except ReproError as error:
            return Answer(False, f"{type(error).__name__}: {error}")

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.pack_path.exists():
            self.pack_path.unlink()


class Departures(Workload):
    """Departure-time reads over a rush-hour profile set, with edge incidents."""

    name = "departures"
    nodes = 3000
    facilities = 300
    cost_types = 3
    #: Reads between two edge-incident ticks.
    reads_per_tick = 60
    round_ops = reads_per_tick + 1
    reads_per_round = reads_per_tick
    rounds_per_second = 0.9
    block_ops = 2
    quantum = 0.25  # the policy default, mirrored for the oracle
    window = (6.5, 9.5)
    peak = 8.0

    def prepare(self) -> None:
        from repro.service.requests import request_from_payload

        program = self._make_program_workload()
        self.network = network_from_program(program.graph, program.facilities)
        components = self.network.component_of()
        # The rush-hour profile set (part of the dataset): a quarter of the
        # edges peak around 8.00.
        shape = random.Random(self.data_seed)
        self.profiles: dict[int, tuple[float, float, float]] = {}
        for edge_id in sorted(self.network.edges):
            if shape.random() < 0.25:
                self.profiles[edge_id] = (
                    self.peak + shape.uniform(-0.5, 0.5),  # peak time
                    round(shape.uniform(1.5, 3.0), 3),  # peak multiplier
                    1.5,  # half width
                )
        ticks = random.Random(f"{self.name}:ticks:{DATA_SEED}")
        base = {edge_id: costs for edge_id, (_u, _v, costs, _l) in self.network.edges.items()}
        live = dict(base)
        incidents: list[list[int]] = []
        edges = sorted(self.network.edges)

        def departure(draw: random.Random) -> float:
            return round(draw.triangular(self.window[0], self.window[1], self.peak), 2)

        def tick() -> Op:
            updates = []
            if len(incidents) >= 2:
                for edge_id in incidents.pop(0):
                    live[edge_id] = base[edge_id]
                    updates.append({"type": "edge-cost", "edge": edge_id, "costs": list(base[edge_id])})
            struck = sorted(set(ticks.sample(edges, 3)) - {e for group in incidents for e in group})
            factor = round(ticks.uniform(2.0, 4.0), 3)
            for edge_id in struck:
                live[edge_id] = tuple(cost * factor for cost in base[edge_id])
                updates.append({"type": "edge-cost", "edge": edge_id, "costs": list(live[edge_id])})
            incidents.append(struck)
            return Op("edge_tick", {"updates": updates})

        fixed = random.Random(f"{self.name}:setup:{DATA_SEED}")
        self.warmup_ops = [draw_read(fixed, self.network, departure) for _ in range(2)]
        stream = iter(
            read_stream(self.name, self.rng, self.network, self.rounds * self.reads_per_tick)
        )
        # The sequence of departure times is part of the dataset: shuffled
        # with the reads, it moved the snapshot builds -- and the throughput
        # -- by a tenth from seed to seed.
        times = random.Random(f"{self.name}:times:{DATA_SEED}")
        ops: list[Op] = []
        reads = 0
        for _round in range(self.rounds):
            for _read in range(self.reads_per_tick):
                op = next(stream)
                op.departure_time = op.payload["departure_time"] = departure(times)
                op.reachable = self.network.reachable_facilities(op.location, components)
                if reads % self.sample_every == 0:
                    op.oracle_state = {"edge_costs": dict(live), "time": op.departure_time}
                reads += 1
                ops.append(op)
            ops.append(tick())
        from repro.monitor.stream import tick_from_payload

        for op in self.warmup_ops + ops:
            if op.is_read:
                op.request = request_from_payload(op.payload)
            else:
                op.request = tick_from_payload(op.payload["updates"])
        self.ops = ops
        self.fingerprint = _fingerprint(self.network, ops, sorted(self.profiles.items()))
        self.session = None

    def _open(self) -> None:
        from repro.api import ExecutionPolicy, Session
        from repro.timedep.network import TimeVaryingMCN
        from repro.timedep.profiles import peak_profile

        # A fresh copy: edge ticks mutate the graph in place.
        program = self._make_program_workload()
        profiles = {}
        for edge_id, (peak_time, multiplier, width) in self.profiles.items():
            profile = peak_profile(peak_time=peak_time, peak_multiplier=multiplier, width=width)
            profiles[edge_id] = [profile] * self.cost_types
        network = TimeVaryingMCN(program.graph, profiles)
        self.session = Session(
            program.graph,
            program.facilities,
            policy=ExecutionPolicy(temporal="profiles", profile_source="rush"),
            profiles={"rush": network},
        )
        self.handle = self.session.monitor(())

    def _warm_up(self) -> None:
        for op in self.warmup_ops:
            self.session.query(op.request)

    def setup_steps(self, trace_out: Path | None) -> list:
        return [self._open, self._warm_up]

    def execute(self, op: Op, op_id: str) -> Answer:
        from repro.errors import ReproError

        try:
            if op.is_read:
                return _answer_from_response(self.session.query(op.request))
            # What PATCH /v1/edges does: apply the tick, then drop result caches.
            response = self.handle.tick(op.request)
            self.session.invalidate_result_caches()
            return Answer(True, io=_io_dict(response.io), counters=vars(response.counters))
        except ReproError as error:
            return Answer(False, f"{type(error).__name__}: {error}")

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def multiplier(self, edge_id: int, time_: float) -> float:
        """A triangular peak profile's value, evaluated independently."""
        shape = self.profiles.get(edge_id)
        if shape is None:
            return 1.0
        peak_time, peak, width = shape
        times = (peak_time - width, peak_time, peak_time + width)
        values = (1.0, peak, 1.0)
        if time_ <= times[0] or time_ >= times[2]:
            return 1.0
        index = 1 if time_ < times[1] else 2
        left_t, right_t = times[index - 1], times[index]
        left_v, right_v = values[index - 1], values[index]
        fraction = (time_ - left_t) / (right_t - left_t)
        return left_v + fraction * (right_v - left_v)

    def oracle_network(self, state: dict) -> Network:
        snapshot_time = self.quantum * math.floor(state["time"] / self.quantum + 0.5)
        costs = {
            edge_id: tuple(
                base * self.multiplier(edge_id, snapshot_time) for base in live_costs
            )
            for edge_id, live_costs in state["edge_costs"].items()
        }
        return self.network.with_state(edge_costs=costs)


WORKLOADS = {
    cls.name: cls for cls in (ServedReads, ServedUpdates, PackReads, Departures)
}
