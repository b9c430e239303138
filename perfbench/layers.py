"""Per-layer metrics of a traced iteration.

Counts come from the machines' own counters (simulated, exact);
host times from the tracer.  "per op" divides by the iteration's
requests (KV workloads) or timed round trips (the ladder).
"""

from __future__ import annotations

from typing import Dict, Tuple

import rules
from tracer import Tracer
from workloads import Iteration

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "sim.entries_per_op": "count",
    "sim.host_ns_per_entry": "ns",
    "sim.dispatch_host_frac": "frac",
    "bus.busy_frac": "frac",
    "bus.wait_us_per_op": "us",
    "mesh.packets_per_op": "count",
    "mesh.bytes_per_op": "B",
    "mesh.link_busy_frac_max": "frac",
    "mesh.inject.host_us": "us",
    "mesh.host_frac": "frac",
    "nic.packets_per_op": "count",
    "nic.combine_ratio": "frac",
    "nic.du_bytes_per_op": "B",
    "nic.du_busy_frac": "frac",
    "nic.shadow_hit_frac": "frac",
    "nic.host_frac": "frac",
    "hardware.host_frac": "frac",
    "kernel.host_frac": "frac",
    "vmmc.send.calls_per_op": "count",
    "vmmc.send.host_us": "us",
    "vmmc.send.sim_us": "us",
    "vmmc.read_remote.calls_per_op": "count",
    "vmmc.setup.host_s": "s",
    "vmmc.host_frac": "frac",
    "srpc.call.host_us": "us",
    "srpc.call.sim_us": "us",
    "srpc.server.host_frac": "frac",
    "srpc.host_frac": "frac",
    "sockets.send.host_us": "us",
    "sockets.recv.host_us": "us",
    "sockets.send.sim_us": "us",
    "sockets.host_frac": "frac",
    "nx.csend.host_us": "us",
    "nx.crecv.host_us": "us",
    "nx.host_frac": "frac",
    "vrpc.call.host_us": "us",
    "vrpc.call.sim_us": "us",
    "vrpc.host_frac": "frac",
    "onesided.hit_frac": "frac",
    "libs.host_frac": "frac",
    "kv.client.get.host_us": "us",
    "kv.client.put.host_us": "us",
    "kv.client.get.sim_us": "us",
    "kv.client.put.sim_us": "us",
    "kv.client.retries_per_op": "count",
    "kv.server.host_frac": "frac",
    "kv.host_frac": "frac",
    "kv.admission.shed_frac": "frac",
    "kv.cpu.busy_frac": "frac",
    "kv.repl.msgs_per_put": "count",
    "workload.dispatch_wait_p99_us": "us",
    "workload.host_frac": "frac",
    "other.host_frac": "frac",
    "outside.host_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, it: Iteration,
                  loop_ns_per_entry: float) -> Dict[str, float]:
    """Every PER_LAYER metric of the traced iteration ``it``.

    ``loop_ns_per_entry`` comes from the untraced twin of the
    iteration: host time inside the event loop per scheduler entry.
    """
    c = it.counters
    ops = it.ops
    shares = tracer.host_shares()
    out = {
        "sim.entries_per_op": _ratio(c["events"], ops),
        "sim.host_ns_per_entry": loop_ns_per_entry,
        "sim.dispatch_host_frac": shares["dispatch"],
        "bus.busy_frac": _ratio(c["eisa_busy_us"], c["node_us"]),
        "bus.wait_us_per_op": _ratio(c["bus_wait_us"], ops),
        "mesh.packets_per_op": _ratio(c["packets_routed"], ops),
        "mesh.bytes_per_op": _ratio(c["bytes_routed"], ops),
        "mesh.link_busy_frac_max": c["link_busy_frac_max"],
        "nic.packets_per_op": _ratio(c["nic_packets"], ops),
        "nic.combine_ratio": _ratio(c["combined_writes"], c["au_writes"]),
        "nic.du_bytes_per_op": _ratio(c["du_bytes"], ops),
        "nic.du_busy_frac": _ratio(c["du_busy_us"], c["node_us"]),
        "nic.shadow_hit_frac": _ratio(c["reads_shadowed"], c["reads_served"]),
        "vmmc.send.calls_per_op": _ratio(
            tracer.stats["vmmc.send"].calls, ops),
        "vmmc.read_remote.calls_per_op": _ratio(
            tracer.stats["vmmc.read_remote"].calls, ops),
        "vmmc.setup.host_s": tracer.stats["vmmc.setup"].incl_ns / 1e9,
        "srpc.server.host_frac": tracer.share(
            lambda key, st: key == "srpc.server"),
        "onesided.hit_frac": _ratio(
            c["onesided_hits"], c["onesided_hits"] + c["onesided_fallbacks"]),
        "kv.client.retries_per_op": _ratio(c["retries"], ops),
        "kv.server.host_frac": tracer.share(lambda key, st: st.server),
        "kv.admission.shed_frac": _ratio(c["shed"], c["admitted"]),
        "kv.cpu.busy_frac": _ratio(c["cpu_busy_us"], c["cpu_node_us"]),
        "kv.repl.msgs_per_put": _ratio(c["repl_msgs"], it.puts),
        "workload.dispatch_wait_p99_us": (rules.weighted_percentile(
            [(wait, 1) for wait in tracer.dispatch_waits], 99.0)
            if tracer.dispatch_waits else 0.0),
    }
    for layer, share in shares.items():
        if layer != "dispatch":
            out[layer + ".host_frac"] = share
    for key, with_sim in (("mesh.inject", False), ("vmmc.send", True),
                          ("srpc.call", True), ("sockets.send", True),
                          ("sockets.recv", False), ("nx.csend", False),
                          ("nx.crecv", False), ("vrpc.call", True),
                          ("kv.client.get", True), ("kv.client.put", True)):
        host_us, sim_us = tracer.per_call(key)
        out[key + ".host_us"] = host_us
        if with_sim:
            out[key + ".sim_us"] = sim_us
    missing = set(PER_LAYER) ^ set(out)
    if missing:
        raise AssertionError("per-layer metrics out of sync: %s"
                             % sorted(missing))
    return out


def share_sum(metrics: Dict[str, float]) -> Tuple[float, int]:
    """Sum of the layer host shares plus the dispatch share, the
    outside share among them (1 when the attribution is complete), and
    how many shares went into it."""
    keys = [k for k in metrics if k.endswith(".host_frac")
            and k not in ("srpc.server.host_frac", "kv.server.host_frac")]
    return (sum(metrics[k] for k in keys)
            + metrics["sim.dispatch_host_frac"], len(keys) + 1)
