"""Host-speed probe: puts host-time measurements on a fixed reference host.

The machines this benchmark runs on are shared: other tenants' load slows
every process by a factor that drifts between 1x and 2x over seconds to
minutes.  The slowdown is common-mode: a small pure-Python workload run
between the simulator's steps slows by the same factor as the steps around
it (measured on a 2-vCPU Xeon guest: the ratio of the two stayed within a
few percent while each alone varied twofold).

:func:`probe` is that workload.  It builds a small dependency graph, plays
it forward through a heap and sums the finish times, touching the same
kinds of objects the simulator's hot loops touch.  A repetition samples it
at regular wall-clock intervals during the run; :func:`speed_factor` turns
the samples into the factor that scales the repetition's host seconds to
seconds on a host where the probe takes :data:`PROBE_REF_S`.
"""

from __future__ import annotations

import functools
import heapq
import time
from typing import List, Sequence

__all__ = ["PROBE_REF_S", "PROBE_INTERVAL_S", "probe", "sample", "speed_factor",
           "install_probe"]

#: Uncontended duration of :func:`probe` on the reference host (Intel Xeon
#: vCPU at 2.0 GHz, CPython 3.11): the minimum over 3000 calls, rounded down.
PROBE_REF_S = 0.00105

#: Wall-clock spacing of the probes taken during a run.
PROBE_INTERVAL_S = 0.1


class _Node:
    __slots__ = ("name", "deps", "cost")

    def __init__(self, name: str, deps: List[int], cost: float) -> None:
        self.name = name
        self.deps = deps
        self.cost = cost


def probe() -> float:
    """The reference workload; returns a checksum so the work is not skipped."""
    nodes = {}
    for i in range(600):
        nodes[i] = _Node(f"n{i}", [i - 1, i - 7] if i >= 7 else [], 1.0 + (i % 13) * 0.25)
    finish = {}
    ready: list = []
    for i in range(600):
        node = nodes[i]
        finish[i] = max([finish[d] for d in node.deps], default=0.0) + node.cost
        heapq.heappush(ready, (finish[i], i))
    total = 0.0
    while ready:
        total += heapq.heappop(ready)[0]
    return total


def sample(samples: List[float], count: int = 1) -> None:
    """Time ``count`` probes, appending each duration to ``samples``."""
    clock = time.perf_counter
    for _ in range(count):
        started = clock()
        probe()
        samples.append(clock() - started)


def speed_factor(samples: Sequence[float]) -> float:
    """Reference-host seconds per host second over the sampled interval.

    Probes are spaced evenly in wall time, so the mean of their speeds is
    the time-average speed of the host while the run was going.
    """
    return sum(PROBE_REF_S / s for s in samples) / len(samples)


def install_probe(samples: List[float]) -> None:
    """Probe every :data:`PROBE_INTERVAL_S` seconds, between simulator steps."""
    from repro.core.simulator import LLMServingSim
    original = LLMServingSim.step
    clock = time.perf_counter
    due = [clock()]

    @functools.wraps(original)
    def step(self):
        if clock() >= due[0]:
            sample(samples)
            due[0] = clock() + PROBE_INTERVAL_S
        return original(self)

    LLMServingSim.step = step
