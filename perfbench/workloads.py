"""The benchmark's workloads: one iteration each, a function of the seed.

An iteration boots its simulated machines, runs them, checks their
outputs and returns what it measured.  Simulated results depend on the
seed alone; host times are measured around the runs, each machine's
set-up (boot until its first request) split off by one-shot hooks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import time
from dataclasses import dataclass, field, replace
import statistics
from typing import Callable, Dict, List, Optional, Tuple

import rules
from patching import Patches
from repro import testbed
from repro.apps.kv import KVClient
from repro.bench import headline_scalars
from repro.bench.libraries import (nx_pingpong, socket_pingpong,
                                   srpc_inout_rtt, vrpc_pingpong)
from repro.bench.pingpong import STRATEGIES, vmmc_pingpong
from repro.hardware.nic.dma import DeliberateUpdateEngine
from repro.hardware.nic.packetizer import Packetizer
from repro.kernel.system import ShrimpSystem
from repro.workload.engine import run_workload
from repro.workload.spec import WorkloadSpec


class GateError(Exception):
    """A correctness check failed: the run's numbers must not be used."""


#: Hardware counters summed over an iteration's machines.
COUNTERS = ("events", "node_us", "eisa_busy_us", "bus_wait_us", "du_busy_us",
            "cpu_busy_us", "cpu_node_us", "packets_routed", "bytes_routed",
            "nic_packets", "combined_writes", "au_writes", "du_bytes",
            "admitted", "shed", "repl_msgs", "reads_served",
            "reads_shadowed")
#: Counters the KV clients keep (``KVClient.stats()``), summed over an
#: iteration's clients; zero where no client runs.
CLIENT_COUNTERS = ("onesided_hits", "onesided_fallbacks", "retries")


def machine_counters(system: ShrimpSystem) -> Dict[str, float]:
    """The counters of one finished machine (simulated, so exact)."""
    machine = system.machine
    now = system.sim.now
    nodes = len(machine.nodes)
    out = dict.fromkeys(COUNTERS + CLIENT_COUNTERS, 0.0)
    out["events"] = system.sim.events_executed
    out["node_us"] = nodes * now
    link_max = 0.0
    machine.utilization_report()  # registers the lazily created links
    for snap in machine.metrics.snapshot():
        name, kind = snap.get("name", ""), snap.get("kind")
        if kind == "channel":
            out["bus_wait_us"] += snap.get("wait_time", 0.0)
            if name.startswith("eisa"):
                out["eisa_busy_us"] += snap["busy_time"]
        elif kind == "engine" and name.startswith("du-engine"):
            out["du_busy_us"] += snap["busy_time"]
        elif kind == "resource" and name.endswith(".cpu"):
            out["cpu_busy_us"] += snap["busy_time"]
            out["cpu_node_us"] += now
        elif kind == "admission":
            out["admitted"] += snap["count"]
            out["shed"] += (snap["rejected_full"] + snap["rejected_brownout"]
                            + snap["shed_deadline"])
        elif kind == "store" and name.startswith("kv-repl-q"):
            out["repl_msgs"] += snap["count"]
        elif kind == "link" and now > 0:
            link_max = max(link_max, snap["busy_time"] / now)
    stats = machine.stats()
    out["packets_routed"] = stats["packets_routed"]
    out["bytes_routed"] = stats["bytes_routed"]
    for nic in stats["nodes"].values():
        out["nic_packets"] += nic["packets_formed"]
        out["combined_writes"] += nic["combined_writes"]
        out["au_writes"] += nic["au_writes_matched"]
        out["du_bytes"] += nic["du_bytes"]
        out["reads_served"] += nic["read_requests_served"]
        out["reads_shadowed"] += nic["read_requests_shadowed"]
    out["link_busy_frac_max"] = link_max
    return out


class Machines:
    """Watches every machine booted inside the ``with`` block.

    Set-up of a machine is the host time from the start of its boot to
    the first call of one of ``first_calls`` — the first request a
    client makes, or the first data a NIC sends.  The hooks are
    one-shot: after firing they restore the original attributes, so
    the measured run pays nothing for them.  A machine whose hooks
    never fired — superseded by the next boot or still pending when
    the block ends — counts in ``unhooked``.
    """

    def __init__(self, first_calls: List[Tuple[type, str]]):
        self._first_calls = first_calls
        self._boot_hook = Patches()
        self._armed = Patches()
        self._boot_at: Optional[float] = None
        self.booted: List[ShrimpSystem] = []
        self.setup_s = 0.0
        self.unhooked = 0           # machines that never made a request

    def __enter__(self) -> "Machines":
        watch = self

        def init(system, *args, **kwargs):
            watch._boot(system)
            original(system, *args, **kwargs)

        original = self._boot_hook.replace(ShrimpSystem, "__init__", init)
        return self

    def __exit__(self, *exc) -> None:
        self._settle()
        self._boot_hook.restore()

    def _settle(self) -> None:
        """Count a machine whose first call is still pending as unhooked."""
        if self._boot_at is not None:
            self.unhooked += 1
            self._boot_at = None
        self._armed.restore()

    def _boot(self, system: ShrimpSystem) -> None:
        self._settle()
        self.booted.append(system)
        watch = self
        for owner, attr in self._first_calls:
            def hooked(*args, _original=owner.__dict__[attr], **kwargs):
                watch._fire()
                return _original(*args, **kwargs)

            self._armed.replace(owner, attr, hooked)
        self._boot_at = time.perf_counter()

    def _fire(self) -> None:
        if self._boot_at is not None:
            self.setup_s += time.perf_counter() - self._boot_at
            self._boot_at = None
        self._armed.restore()

    def audit(self, counters: Dict[str, float]) -> None:
        """Audit the machines booted so far, add their counters to
        ``counters`` and let them go."""
        for system in self.booted:
            problems = testbed.audit_invariants(system)
            if problems:
                raise GateError("invariant audit: " + "; ".join(problems))
            for key, value in machine_counters(system).items():
                if key == "link_busy_frac_max":
                    counters[key] = max(counters.get(key, 0.0), value)
                else:
                    counters[key] = counters.get(key, 0.0) + value
        self.booted.clear()
        # Every run starts from an emptied heap, so when the cyclic
        # collector runs inside the next one does not depend on what
        # the previous runs left behind (peak RSS was bimodal without).
        gc.collect()


class HostReference:
    """Times a fixed pure-Python loop that uses no simulator code.

    The loop runs between simulated runs and, with ``every``, inside
    them on every ``every``-th KV request; the time it takes inside a
    run is added to ``inside_s`` for the run to subtract.  On a shared
    host the speed drifts by tens of percent over minutes, and the
    loop's times follow it: host times divided by the loop's median
    track the code, not the drift.
    """

    STEPS = 20_000
    #: The unit of normalised host times: seconds on a host that runs
    #: the loop in this time.
    NOMINAL_S = 0.0025

    def __init__(self, every: int = 0):
        self.every = every
        self.times: List[float] = []
        self.inside_s = 0.0

    def __call__(self) -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(self.STEPS):
            acc = (acc + i * i) % 1_000_003
        elapsed = time.perf_counter() - started
        self.times.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def sampling(self, owner: type, attrs: Tuple[str, ...]):
        """Run the loop on every ``every``-th call of ``owner.attrs``."""
        if not self.every:
            yield
            return
        calls = [0]

        def sampled(original):
            def call(*args, **kwargs):
                calls[0] += 1
                if calls[0] % self.every == 0:
                    self.inside_s += self()
                return original(*args, **kwargs)
            return call

        with Patches() as patches:
            for attr in attrs:
                patches.replace(owner, attr, sampled(owner.__dict__[attr]))
            yield

    def normalise(self, seconds: float) -> float:
        """``seconds`` measured on this host, in reference seconds."""
        return seconds * self.NOMINAL_S / statistics.median(self.times)


KV_FIRST_CALLS = [(KVClient, "get"), (KVClient, "put"), (KVClient, "scan")]
NIC_FIRST_CALLS = [(Packetizer, "au_write"),
                   (DeliberateUpdateEngine, "submit")]


@dataclass
class Iteration:
    """What one iteration measured."""

    wall_s: float                 # host time of the runs, set-up excluded
    setup_s: float                # boot-to-first-request, summed
    sim: Dict[str, float]         # the simulated end-to-end metrics
    ops: int                      # requests (KV) or round trips (ladder)
    failed: int                   # requests that errored or corrupted
    counters: Dict[str, float]    # hardware counters (see COUNTERS)
    puts: int = 0
    fingerprint: str = ""         # digest of every simulated output
    lines: List[str] = field(default_factory=list)


def paper_accuracy() -> Tuple[float, Dict[str, float]]:
    """Run the paper's headline scalars and gate them like
    benchmarks/test_headline_scalars.py; returns (max rel. error,
    measured scalars)."""
    measured = headline_scalars()
    worst, problems = rules.paper_check(measured, rules.paper_table())
    if problems:
        raise GateError("headline scalars: " + "; ".join(problems))
    return worst, measured


# -- KV workloads -------------------------------------------------------------

@dataclass(frozen=True)
class KvWorkload:
    """Runs of one KV spec at several (offered load, requests) points.

    The first point gives the latency and goodput metrics; all points
    feed the capacity rule.  A closed loop has one point, offered None.
    ``side_runs`` are runs of other specs that are timed, gated and
    traced like the points but kept out of the simulated metrics:
    they put layers to work that the scored runs leave idle.
    """

    name: str
    why: str
    spec: WorkloadSpec
    points: Tuple[Tuple[Optional[float], int], ...]
    side_runs: Tuple[Tuple[WorkloadSpec, Optional[float], int], ...] = ()

    def runs(self, seed: int, scale: float):
        """(spec, requests, scored) of every run of an iteration."""
        for spec, load, count, scored in (
                [(self.spec, load, count, True) for load, count in self.points]
                + [(spec, load, count, False)
                   for spec, load, count in self.side_runs]):
            count = max(50, int(count * scale))
            spec = replace(spec, seed=seed, requests=count)
            if load is not None:
                spec = spec.with_load(load)
            yield spec, count, scored

    def iteration(self, seed: int, scale: float = 1.0,
                  reference: Optional[HostReference] = None) -> Iteration:
        """One sweep, sampling ``reference`` through it.  ``scale``
        shrinks every run (the tests' smoke runs); below 1 the first
        point's p99 is not checked for tail support."""
        reference = reference or HostReference()
        counters: Dict[str, float] = {}
        digest = hashlib.sha256()
        host = 0.0
        load_points = []
        completed = scored_requests = requests = failed = puts = 0
        lines = []
        first = None
        clients: List[KVClient] = []
        with reference.sampling(KVClient, ("get", "put", "scan")), \
                Patches() as patches, \
                Machines(KV_FIRST_CALLS) as machines:
            def track(client, *args, **kwargs):
                client_init(client, *args, **kwargs)
                clients.append(client)

            client_init = patches.replace(KVClient, "__init__", track)
            for spec, count, scored in self.runs(seed, scale):
                inside = reference.inside_s
                started = time.perf_counter()
                report = run_workload(spec)
                host += (time.perf_counter() - started
                         - (reference.inside_s - inside))
                machines.audit(counters)
                reference()
                _gate_kv(report, count, tail=first is None and scale >= 1.0)
                digest.update(report.report().encode())
                failed += report.errors + report.corruptions
                requests += count
                puts += report.per_op["put"].count
                if scored:
                    completed += report.completed
                    scored_requests += count
                    load_points.append(rules.LoadPoint(
                        spec.load if spec.arrival == "open" else None,
                        report.throughput_ops_s, report.percentile(99.0)))
                    if first is None:
                        first = report
                lines.append(
                    "  %-8s %5d req  achieved %8.0f ops/s  p50 %7.1f us  "
                    "p99 %7.1f us  goodput %8.0f  rejected %d%s"
                    % ("%.0fk" % (spec.load / 1e3)
                       if spec.arrival == "open" else "closed", count,
                       report.throughput_ops_s, report.percentile(50.0),
                       report.percentile(99.0), report.goodput_ops_s,
                       report.rejected, "" if scored else "  (side run)"))
        if machines.unhooked:
            raise GateError("%d machine(s) never received a request"
                            % machines.unhooked)
        for client in clients:
            stats = client.stats()
            for key in CLIENT_COUNTERS:
                counters[key] += stats[key]
        sim = {
            "sim_p50_us": first.percentile(50.0),
            "sim_p99_us": first.percentile(99.0),
            "sim_goodput_ops_s": first.goodput_ops_s,
            "sim_capacity_ops_s": rules.capacity(load_points),
            "ok_frac": completed / scored_requests,
        }
        digest.update(repr(sorted(counters.items())).encode())
        return Iteration(wall_s=host - machines.setup_s,
                         setup_s=machines.setup_s, sim=sim,
                         ops=requests, failed=failed, counters=counters,
                         puts=puts, fingerprint=digest.hexdigest(),
                         lines=lines)


def _gate_kv(report, requests: int, tail: bool) -> None:
    if report.corruptions:
        raise GateError("%d corrupted values read" % report.corruptions)
    accounted = report.completed + report.errors + report.rejected
    if accounted != requests:
        raise GateError("completed+errors+rejected = %d of %d requests"
                        % (accounted, requests))
    if tail and not rules.supports_percentile(report.overall.count, 99.0):
        raise GateError("p99 of %d samples has fewer than %d beyond it"
                        % (report.overall.count, rules.TAIL_SUPPORT))


_SLO = dict(slo_latency_us=rules.SLO_US)

KV_GET_KNEE = KvWorkload(
    name="kv_get_knee",
    why="open-loop Zipf GETs over SHRIMP RPC on the 4-node prototype, "
        "swept 100k-300k ops/s: the serving path and its capacity knee",
    spec=WorkloadSpec(transport="srpc", arrival="open", concurrency=16,
                      read_fraction=0.9, keys=200, key_distribution="zipf",
                      zipf_s=1.1, nodes=4, **_SLO),
    # Latency is read at 100k: at 200k and above the p99 of one seed's
    # run spreads 25-50% across seeds, too wide to gate.  The service
    # saturates at 215-227k ops/s depending on the seed, so a 250k
    # point (0.9 x 250k = 225k) passed the capacity rule on some seeds
    # only.  260k needs 3000 requests to fail it on every seed: in a
    # shorter window the queues absorb the excess.
    points=((100e3, 4000), (150e3, 1500), (200e3, 1500), (260e3, 3000),
            (300e3, 1500)),
)

KV_PUT_SOCKETS_16N = KvWorkload(
    name="kv_put_sockets_16n",
    why="closed loop, 8 callers, 50% PUT over stream sockets on the 4x4 "
        "mesh: replication fan-out, big DMA payloads, multi-hop routes",
    spec=WorkloadSpec(transport="sockets", arrival="closed", concurrency=8,
                      read_fraction=0.5, keys=2000,
                      key_distribution="uniform",
                      value_sizes=((512, 0.5), (1024, 0.5)), nodes=16,
                      **_SLO),
    points=((None, 1200),),
)

_OVERLOAD = WorkloadSpec(transport="srpc", arrival="open", concurrency=64,
                         cpu_slots=1, cpu_op_us=50.0, admission=True,
                         admit_queue=8, admit_deadline_us=400.0,
                         backpressure=True, **_SLO)

KV_OVERLOAD = KvWorkload(
    name="kv_overload",
    why="open loop at 80k ops/s, about twice the CPU-bound knee, contended "
        "node CPUs with admission control and backpressure, plus a side "
        "run with one-sided GETs and retries: the only run that sheds load",
    # The scored runs have no retries and no one-sided reads: with
    # either, the p99 of one seed's run spread 25-50% across seeds
    # (retried requests form a second latency mode the p99 falls into
    # or not; the one-sided hint cache warms up differently per seed).
    # 64 workers keep the backlog at the servers' admission queues,
    # where it is bounded.
    spec=_OVERLOAD,
    # The 30k point is below the knee, so the capacity rule has a
    # qualifying load.
    points=((80e3, 6000), (30e3, 1000)),
    # The same overload with one-sided GETs and a retry budget of 1:
    # the only run where libs.onesided, the NIC region shadow,
    # VmmcEndpoint.read_remote and client retry/backoff do work.
    side_runs=((replace(_OVERLOAD, onesided_reads=True, retry_budget=1),
                80e3, 1000),),
)


# -- the paper's ladder -------------------------------------------------------

class PaperLadder:
    """The paper's two-node ping-pong ladder, raw VMMC to the libraries.

    The headline scalars run unchanged; the other rungs use sizes drawn
    from the seed: one small size (496-508 B) for the five VMMC
    strategies and the four libraries, and two large DU-0copy/AU-1copy
    payloads (32768-32892 B).  The bands are narrow, so the metrics
    vary with the seed without spreading wider than their bounds.
    Round trips of a rung are identical in the steady-state ping-pong,
    so the latency percentiles are exact over the rungs' timed round
    trips and need no tail-support rule.
    """

    name = "paper_ladder"
    why = ("the paper's ping-pong ladder: VMMC strategies, NX, sockets, "
           "VRPC and SHRIMP RPC, no KV code; accuracy against the paper")
    ROUND_TRIPS = 20
    LARGE_ROUND_TRIPS = 4

    def rungs(self, seed: int, scale: float = 1.0):
        """(label, round trips, measure() -> round-trip µs) per rung."""
        rng = random.Random(seed)
        small = 4 * (124 + int(rng.random() * 4))
        large = [4 * (8192 + int(rng.random() * 32)) for _ in range(2)]
        n = max(2, int(self.ROUND_TRIPS * scale))
        n_large = max(1, int(self.LARGE_ROUND_TRIPS * scale))
        rungs: List[Tuple[str, int, Callable[[], float]]] = []
        for name, strategy in sorted(STRATEGIES.items()):
            rungs.append(("vmmc %s %dB" % (name, small), n,
                          lambda s=strategy: 2 * vmmc_pingpong(
                              s, small, iterations=n).one_way_latency_us))
        for name, size in zip(("DU-0copy", "AU-1copy"), large):
            rungs.append(("vmmc %s %dB" % (name, size), n_large,
                          lambda s=STRATEGIES[name], size=size:
                          2 * vmmc_pingpong(s, size, iterations=n_large)
                          .one_way_latency_us))
        rungs += [
            ("nx AU-1copy %dB" % small, n,
             lambda: 2 * nx_pingpong("AU-1copy", small, iterations=n)),
            ("sockets AU-2copy %dB" % small, n,
             lambda: 2 * socket_pingpong("AU-2copy", small, iterations=n)),
            ("vrpc %dB" % small, n,
             lambda: vrpc_pingpong(small, iterations=n)),
            ("srpc %dB" % small, n,
             lambda: srpc_inout_rtt(small, iterations=n)),
        ]
        return rungs

    def iteration(self, seed: int, scale: float = 1.0,
                  reference: Optional[HostReference] = None) -> Iteration:
        """Every rung once, then one untimed ``reference`` sample."""
        reference = reference or HostReference()
        counters: Dict[str, float] = {}
        samples = []
        lines = []
        with Machines(NIC_FIRST_CALLS) as machines:
            started = time.perf_counter()
            error, measured = paper_accuracy()
            for label, trips, measure in self.rungs(seed, scale):
                rtt = measure()
                samples.append((rtt, trips))
                lines.append("  %-28s %3d round trips  %9.2f us"
                             % (label, trips, rtt))
            host = time.perf_counter() - started
            machines.audit(counters)
            reference()
        if machines.unhooked:
            raise GateError("%d ladder machine(s) sent no data"
                            % machines.unhooked)
        setup = machines.setup_s
        trips = sum(count for _, count in samples)
        busy_us = sum(rtt * count for rtt, count in samples)
        in_slo = sum(count for rtt, count in samples if rtt <= rules.SLO_US)
        sim = {
            "sim_p50_us": rules.weighted_percentile(samples, 50.0),
            "sim_p99_us": rules.weighted_percentile(samples, 99.0),
            "sim_goodput_ops_s": in_slo / busy_us * 1e6,
            "sim_capacity_ops_s": rules.capacity(
                rules.LoadPoint(None, 1e6 / rtt, rtt) for rtt, _ in samples),
            "ok_frac": 1.0,
            "paper_max_rel_err": error,
        }
        fingerprint = hashlib.sha256(repr(
            (samples, sorted(measured.items()),
             sorted(counters.items()))).encode()).hexdigest()
        return Iteration(wall_s=host - setup, setup_s=setup, sim=sim,
                         ops=trips, failed=0, counters=counters,
                         fingerprint=fingerprint, lines=lines)


PAPER_LADDER = PaperLadder()

WORKLOADS = {w.name: w for w in (KV_GET_KNEE, PAPER_LADDER,
                                 KV_PUT_SOCKETS_16N, KV_OVERLOAD)}
