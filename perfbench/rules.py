"""The benchmark's metric rules, free of simulator imports.

Kept apart from the workloads so the tests can check each rule on
synthetic numbers without running a simulation.
"""

from __future__ import annotations

import ast
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The serving SLO of docs/OVERLOAD.md: a request that takes longer
#: than this missed it.
SLO_US = 1000.0
#: A swept load counts as served only if the achieved rate keeps up
#: with this share of the offered rate (no growing backlog).
SHORTFALL = 0.9
#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SUPPORT = 10
#: The paper band and NX-overhead window that
#: benchmarks/test_headline_scalars.py asserts.
PAPER_BAND = (0.6, 1.4)
NX_OVERHEAD_US = (4.0, 10.0)

_HEADLINE_TEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "test_headline_scalars.py")


def supports_percentile(samples: int, p: float = 99.0) -> bool:
    """Whether ``samples`` leave at least TAIL_SUPPORT beyond the p-th
    percentile (p99 needs 1000 samples)."""
    return samples * (100.0 - p) >= 100.0 * TAIL_SUPPORT - 1e-9


@dataclass(frozen=True)
class LoadPoint:
    """One simulated run of a sweep: what was offered, what came back.

    ``offered`` is None for a closed loop, whose offered rate is by
    construction the achieved one.
    """

    offered: Optional[float]
    achieved: float
    p99_us: float


def capacity(points: Iterable[LoadPoint], slo_us: float = SLO_US,
             shortfall: float = SHORTFALL) -> float:
    """The highest swept rate whose p99 meets the SLO without a backlog.

    A point qualifies when its p99 is within ``slo_us`` and it achieved
    at least ``shortfall`` of what was offered; the capacity is the
    highest qualifying offered rate (a closed-loop point contributes
    its achieved rate).  0.0 when nothing qualifies.
    """
    best = 0.0
    for pt in points:
        if pt.p99_us > slo_us:
            continue
        if pt.offered is None:
            best = max(best, pt.achieved)
        elif pt.achieved >= shortfall * pt.offered:
            best = max(best, pt.offered)
    return best


def weighted_percentile(samples: Sequence[Tuple[float, int]],
                        p: float) -> float:
    """The p-th percentile of values each repeated ``count`` times
    (nearest rank, no interpolation)."""
    total = sum(count for _, count in samples)
    if total <= 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * total / 100.0 - 1e-9))
    seen = 0
    for value, count in sorted(samples):
        seen += count
        if seen >= rank:
            return value
    return max(value for value, _ in samples)


def paper_table() -> List[Tuple[str, float]]:
    """(key, paper value) rows of the PAPER table in
    benchmarks/test_headline_scalars.py, read without importing it
    (the test module needs pytest fixtures)."""
    with open(_HEADLINE_TEST) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PAPER"
                for t in node.targets):
            return [(key, float(value))
                    for key, value, _ in ast.literal_eval(node.value)]
    raise RuntimeError("no PAPER table in %s" % _HEADLINE_TEST)


def paper_check(measured: Dict[str, float],
                table: Sequence[Tuple[str, float]]) -> Tuple[float, List[str]]:
    """Max |measured/paper - 1| over ``table``, and the violated checks
    of the headline-scalar test (paper band, NX overhead window)."""
    problems = []
    worst = 0.0
    for key, paper in table:
        ratio = measured[key] / paper
        worst = max(worst, abs(ratio - 1.0))
        if not PAPER_BAND[0] < ratio < PAPER_BAND[1]:
            problems.append("%s = %.3f is %.2fx the paper's %.3f"
                            % (key, measured[key], ratio, paper))
    nx_over = measured["nx_small_au_us"] - measured["raw_small_au_us"]
    if not NX_OVERHEAD_US[0] < nx_over < NX_OVERHEAD_US[1]:
        problems.append("NX small-message overhead %.2f us outside %s"
                        % (nx_over, NX_OVERHEAD_US))
    return worst, problems


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median, as the acceptance rule
    computes it with statistics.quantiles(values, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
