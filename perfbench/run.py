"""The repository benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload kv_get_knee --seed 11 \\
        --seconds 30 --trace 0

With ``--trace 0`` it repeats the workload's iteration for about
``--seconds`` and reports the end-to-end metrics.  Host times are
medians over the iterations, normalised by a reference loop timed all
through the runs (see workloads.HostReference).  Simulated metrics
come from the seed; every iteration must reproduce them exactly.  With
``--trace 1`` it runs one untraced and one traced iteration and
reports the per-layer metrics; the two must agree on every simulated
output, and the traced iteration's host time must be attributed in
full.

Human-readable lines go first; the last line of stdout is the JSON
result.  A failed correctness check exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: name -> unit of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_goodput_ops_s": "1/s",
    "sim_capacity_ops_s": "1/s",
    "ok_frac": "frac",
    "paper_max_rel_err": "frac",
}


#: Resolution of the tracer's clock, in ns: the most the attributed
#: host time may differ from the measured.
RESOLUTION_NS = max(1, round(
    time.get_clock_info("perf_counter").resolution * 1e9))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, paper_error: float,
            scale: float = 1.0) -> dict:
    """Repeat the iteration for about ``seconds``; end-to-end result.
    ``scale`` shrinks every run (see ``KvWorkload.iteration``)."""
    from workloads import GateError, HostReference

    reference = HostReference(every=100)
    reference()
    started = time.perf_counter()
    runs = []
    while True:
        it = workload.iteration(seed, scale, reference)
        if runs and it.fingerprint != runs[0].fingerprint:
            raise GateError("iteration %d of seed %d simulated differently "
                            "from the first" % (len(runs) + 1, seed))
        runs.append(it)
        elapsed = time.perf_counter() - started
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    first = runs[0]
    for line in first.lines:
        print(line)
    walls = [it.wall_s for it in runs]
    setups = [it.setup_s for it in runs]
    print("iterations %d  raw wall_s %s  raw setup_s %s"
          % (len(runs), " ".join("%.3f" % w for w in walls),
             " ".join("%.4f" % s for s in setups)))
    print("host_ref_s median %.6f over %d loops (nominal %.4f)"
          % (statistics.median(reference.times), len(reference.times),
             reference.NOMINAL_S))
    values = dict(first.sim)
    values.setdefault("paper_max_rel_err", paper_error)
    values.update(wall_s=reference.normalise(statistics.median(walls)),
                  setup_s=reference.normalise(statistics.median(setups)),
                  peak_rss_mb=peak_rss_mb())
    return {
        "correct": True,
        "attempted": sum(it.ops for it in runs),
        "failed": sum(it.failed for it in runs),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


def traced(workload, seed: int, scale: float = 1.0) -> dict:
    """One untraced and one traced iteration; per-layer result."""
    from layers import PER_LAYER, layer_metrics, share_sum
    from tracer import Tracer
    from workloads import GateError

    with Tracer().install(full=False) as loop:
        plain = workload.iteration(seed, scale)
    with Tracer().install() as tracer:
        traced_it = tracer.measure(lambda: workload.iteration(seed, scale))
    if (traced_it.fingerprint != plain.fingerprint
            or traced_it.sim != plain.sim):
        raise GateError("the traced run simulated differently from the "
                        "untraced run (events %d vs %d)"
                        % (traced_it.counters["events"],
                           plain.counters["events"]))
    gap_ns = tracer.attribution_gap_ns()
    if abs(gap_ns) > RESOLUTION_NS:
        raise GateError("traced host time attributed %+d ns off the %d ns "
                        "measured" % (gap_ns, tracer.wall_ns))
    metrics = layer_metrics(tracer, traced_it,
                            loop.run_ns / plain.counters["events"])
    total, parts = share_sum(metrics)
    plain_s = plain.wall_s + plain.setup_s
    traced_s = traced_it.wall_s + traced_it.setup_s
    print("fidelity: traced run reproduced %d scheduler entries and every "
          "simulated metric" % plain.counters["events"])
    print("tracing overhead: %.3f s traced / %.3f s untraced = %.2fx"
          % (traced_s, plain_s, traced_s / plain_s))
    print("host shares: %d parts + dispatch sum to %.6f of the %.3f s "
          "traced (%.3f s in the event loop)"
          % (parts - 1, total, tracer.wall_ns / 1e9, tracer.run_ns / 1e9))
    for name in PER_LAYER:
        print("  %-32s %12.4f %s" % (name, metrics[name], PER_LAYER[name]))
    return {
        "correct": True,
        "attempted": plain.ops + traced_it.ops,
        "failed": plain.failed + traced_it.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import the simulator from src/: %s" % exc,
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    print("workload %s seed %d: %s" % (workload.name, args.seed,
                                        workload.why))
    try:
        paper_error, _ = workloads.paper_accuracy()
        print("paper_max_rel_err %.4f (headline scalars inside the "
              "0.6-1.4x paper band)" % paper_error)
        if args.trace:
            result = traced(workload, args.seed)
        else:
            workload.iteration(args.seed, 0.05)  # warm-up
            result = measure(workload, args.seed, args.seconds, paper_error)
    except workloads.GateError as exc:
        print("perfbench: CORRECTNESS CHECK FAILED: %s" % exc,
              file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
