"""Differential trace attribution: explain WHY two runs differ.

The paired record/replay machinery (docs/WORKLOADS.md) guarantees two
runs of the same recorded stream see byte-identical offered traffic,
op for op — so any latency difference between them is attributable to
the serving-stack knobs that changed.  :func:`diff_profiles` takes the
two runs' :class:`~repro.obs.profile.Profile`\\ s and splits the mean
(and p99-tail) latency delta into per-stage contributions, closing
against the measured end-to-end delta the same way ``explain``'s
budget closes against one request's latency: the per-run stage means
sum to the per-run measured means by construction, so the stage
deltas sum to the measured delta up to the histogram's bucket
quantization (the 5% acceptance gate in docs/OBSERVABILITY.md).

:func:`diff_bench_payloads` is the artifact-level companion: it takes
two validated bench documents (any schema the shared writer in
:mod:`repro.bench.report` knows) and reports what moved — knees and
per-point tails for capacity sweeps, event rates for simspeed,
convergence for anti-entropy — which is what the CI bench-history
step posts to the job summary.

Pure span/report consumers, like :mod:`repro.obs.profile`: nothing
here emits spans or runs on the simulation hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .profile import PROFILE_STAGES, Profile

__all__ = ["StageDelta", "DiffResult", "diff_profiles",
           "diff_bench_payloads"]


@dataclass
class StageDelta:
    """One stage's contribution to the A->B latency delta (us/request)."""

    stage: str
    a_us: float
    b_us: float

    @property
    def delta_us(self) -> float:
        return self.b_us - self.a_us


@dataclass
class DiffResult:
    """The stage-attributed difference between two paired runs."""

    stages: List[StageDelta] = field(default_factory=list)
    tail_stages: List[StageDelta] = field(default_factory=list)
    a_requests: int = 0
    b_requests: int = 0
    #: Measured end-to-end mean latency per side (the workload
    #: report's histogram when available, else the profile mean).
    measured_a_us: float = 0.0
    measured_b_us: float = 0.0
    p99_a_us: float = 0.0
    p99_b_us: float = 0.0
    label: str = ""

    @property
    def measured_delta_us(self) -> float:
        return self.measured_b_us - self.measured_a_us

    @property
    def attributed_delta_us(self) -> float:
        return sum(s.delta_us for s in self.stages)

    @property
    def closure_error(self) -> float:
        """|attributed - measured| relative to the measured delta.

        Floored at 1 us of measured delta so a near-zero difference
        between two equivalent runs cannot blow the ratio up."""
        denom = max(abs(self.measured_delta_us), 1.0)
        return abs(self.attributed_delta_us - self.measured_delta_us) \
            / denom

    def report(self) -> str:
        """The attribution table plus the closure verdict."""
        lines = ["stage attribution (B - A, per-request means)%s"
                 % ((": " + self.label) if self.label else "")]
        rows = [["stage", "A us", "B us", "delta us", "share"]]
        total_delta = self.attributed_delta_us
        for entry in self.stages:
            share = (entry.delta_us / total_delta
                     if abs(total_delta) > 1e-12 else 0.0)
            rows.append([entry.stage, "%.2f" % entry.a_us,
                         "%.2f" % entry.b_us, "%+.2f" % entry.delta_us,
                         "%.0f%%" % (100.0 * share)])
        rows.append(["SUM", "%.2f" % sum(s.a_us for s in self.stages),
                     "%.2f" % sum(s.b_us for s in self.stages),
                     "%+.2f" % total_delta, ""])
        lines.extend("  " + row for row in _format_rows(rows))
        lines.append("measured mean: A %.2f us -> B %.2f us "
                     "(delta %+.2f us)"
                     % (self.measured_a_us, self.measured_b_us,
                        self.measured_delta_us))
        lines.append("closure: attributed %+.2f us vs measured %+.2f us "
                     "-> error %.2f%% [%s]"
                     % (self.attributed_delta_us, self.measured_delta_us,
                        100.0 * self.closure_error,
                        "OK" if self.closure_error <= 0.05
                        else "VIOLATED"))
        if self.p99_a_us or self.p99_b_us:
            lines.append("p99: A %.2f us -> B %.2f us (delta %+.2f us)"
                         % (self.p99_a_us, self.p99_b_us,
                            self.p99_b_us - self.p99_a_us))
            movers = sorted(self.tail_stages,
                            key=lambda s: (-abs(s.delta_us), s.stage))
            moved = ["%s %+.2f" % (s.stage, s.delta_us)
                     for s in movers if abs(s.delta_us) > 0.005]
            if moved:
                lines.append("p99 tail attribution (per tail request): "
                             + ", ".join(moved[:4]))
        return "\n".join(lines)


def _format_rows(rows) -> List[str]:
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(rows[0]))]
    return ["  ".join(cell.rjust(width)
                      for cell, width in zip(row, widths))
            for row in rows]


def _stage_means(requests, stages=PROFILE_STAGES):
    n = len(requests) or 1
    return {s: sum(r.stages.get(s, 0.0) for r in requests) / n
            for s in stages}


def diff_profiles(a: Profile, b: Profile,
                  measured_a: Optional[float] = None,
                  measured_b: Optional[float] = None,
                  p99_a: Optional[float] = None,
                  p99_b: Optional[float] = None,
                  label: str = "") -> DiffResult:
    """Attribute the A->B latency delta to per-stage contributions.

    ``measured_*`` override the end-to-end means (pass the workload
    reports' histogram means so closure is scored against what the
    run actually recorded); they default to the profile means, which
    equal them exactly on the plain request path.
    """
    mean_a = _stage_means(a.requests)
    mean_b = _stage_means(b.requests)
    tail_a = _stage_means(a.tail_requests())
    tail_b = _stage_means(b.tail_requests())
    return DiffResult(
        stages=[StageDelta(s, mean_a[s], mean_b[s])
                for s in PROFILE_STAGES],
        tail_stages=[StageDelta(s, tail_a[s], tail_b[s])
                     for s in PROFILE_STAGES],
        a_requests=len(a.requests),
        b_requests=len(b.requests),
        measured_a_us=(measured_a if measured_a is not None
                       else a.mean_us()),
        measured_b_us=(measured_b if measured_b is not None
                       else b.mean_us()),
        p99_a_us=(p99_a if p99_a is not None else a.p99_us()),
        p99_b_us=(p99_b if p99_b is not None else b.p99_us()),
        label=label)


# ---------------------------------------------------------------- bench


def _pct(a: float, b: float) -> str:
    if a == 0.0:
        return "n/a" if b else "+0%"
    return "%+.1f%%" % (100.0 * (b - a) / a)


def _knee_line(title: str, a, b) -> str:
    if a is not None and b is not None:
        return "%s: A ~%.0f -> B ~%.0f ops/s (%s)" % (title, a, b,
                                                      _pct(a, b))
    return "%s: A %s -> B %s" % (
        title,
        "~%.0f ops/s" % a if a is not None else "no knee in range",
        "~%.0f ops/s" % b if b is not None else "no knee in range")


def _sweep_lines(side: str, a: dict, b: dict) -> List[str]:
    """Knee + per-point comparison for one CapacityResult payload."""
    lines = [_knee_line("knee%s" % (" (%s)" % side if side else ""),
                        a.get("knee_load"), b.get("knee_load"))]
    points_b = {pt["offered_load"]: pt for pt in b.get("points", [])}
    rows = [["offered", "thr A", "thr B", "d thr", "p99 A", "p99 B",
             "d p99"]]
    for pt in a.get("points", []):
        other = points_b.get(pt["offered_load"])
        if other is None:
            continue
        rows.append(["%.0f" % pt["offered_load"],
                     "%.0f" % pt["throughput"],
                     "%.0f" % other["throughput"],
                     _pct(pt["throughput"], other["throughput"]),
                     "%.1f" % pt["p99_us"],
                     "%.1f" % other["p99_us"],
                     _pct(pt["p99_us"], other["p99_us"])])
    if len(rows) > 1:
        lines.extend("  " + row for row in _format_rows(rows))
    else:
        lines.append("  (no offered loads in common)")
    return lines


def diff_bench_payloads(a: dict, b: dict) -> str:
    """What moved between two validated bench artifacts, as text.

    Both payloads must carry the same schema (validated by
    :func:`repro.bench.report.load_bench_json`); the comparison is
    schema-specific and A-relative.
    """
    schema_a, schema_b = a.get("schema"), b.get("schema")
    if schema_a != schema_b:
        return ("bench diff: schemas differ (A %r vs B %r) — "
                "nothing comparable" % (schema_a, schema_b))
    lines = ["bench diff: %s" % schema_a]
    if schema_a == "repro.bench.capacity/v1":
        lines.append("seeds: A %s, B %s; loads: A %s, B %s"
                     % (a.get("seed"), b.get("seed"),
                        a.get("loads"), b.get("loads")))
        if a.get("mode") != b.get("mode"):
            lines.append("modes differ (A %r vs B %r) — knees only"
                         % (a.get("mode"), b.get("mode")))
            for side, payload in (("A", a), ("B", b)):
                sweep = (payload if payload.get("mode") == "sweep"
                         else payload.get("mitigated", {}))
                lines.append("  %s knee: %s" % (
                    side,
                    "~%.0f ops/s" % sweep["knee_load"]
                    if sweep.get("knee_load") is not None
                    else "none in range"))
        elif a.get("mode") == "ab":
            lines.extend(_sweep_lines("baseline", a["baseline"],
                                      b["baseline"]))
            lines.extend(_sweep_lines("mitigated", a["mitigated"],
                                      b["mitigated"]))
        else:
            lines.extend(_sweep_lines("", a, b))
    elif schema_a == "repro.bench.simspeed/v1":
        for title, path, fmt in (
                ("dispatch events/s", ("dispatch", "events_per_s"),
                 "%.0f"),
                ("capacity wall s", ("capacity", "best_wall_s"),
                 "%.3f"),
                ("capacity seed-equivalent events/s",
                 ("capacity", "seed_equivalent_events_per_s"), "%.0f")):
            va = a.get(path[0], {}).get(path[1])
            vb = b.get(path[0], {}).get(path[1])
            if va is None or vb is None:
                continue
            lines.append("%s: A %s -> B %s (%s)"
                         % (title, fmt % va, fmt % vb, _pct(va, vb)))
    elif schema_a == "repro.antientropy.convergence/v1":
        ca, cb = a.get("convergence") or {}, b.get("convergence") or {}
        for key in ("rounds", "repaired", "divergent_last",
                    "divergent_high"):
            lines.append("%s: A %s -> B %s"
                         % (key, ca.get(key), cb.get(key)))
        lines.append("converged_at_us: A %s -> B %s"
                     % (ca.get("converged_at_us"),
                        cb.get("converged_at_us")))
        sa, sb = a.get("staleness") or {}, b.get("staleness") or {}
        if sa or sb:
            lines.append("stale reads: A %s/%s -> B %s/%s"
                         % (sa.get("stale"), sa.get("reads"),
                            sb.get("stale"), sb.get("reads")))
    else:
        lines.append("(no comparator for this schema; payloads "
                     "validated but not diffed)")
    return "\n".join(lines)
