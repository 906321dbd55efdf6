"""Runtime invariant checker overhead guard.

``--check-invariants`` re-derives the KV byte ledger and audits the event
clock after every iteration, so it costs something — but it must stay cheap
enough to leave on in CI smoke runs.  This benchmark runs the same bursty
cluster scenario with the checker on and off and fails if the median
slowdown exceeds 5%.

The arms run paired: each round times one run of each arm back to back
(alternating which goes first) and yields one on/off ratio, and the gate is
the median of those ratios.  A host slowdown that spans a round hits both of
its runs, so it cancels in the ratio instead of landing on one arm's median.
The checker's own ``after_iteration`` time is also timed directly in a
separate run and reported as a share of that run's wall time.

Wall-clock is measured here (not simulated time): the checker changes how
long the simulator takes to run, never what it computes — which the
benchmark also asserts, by comparing the two arms' aggregate metrics.
"""

import statistics
import time

from conftest import run_once

from repro import ClusterConfig, ClusterSimulator, ServingSimConfig, generate_trace
from repro.analysis import print_table
from repro.analysis.invariants import ReplicaInvariantChecker

#: Sized so each arm runs ~3 s on a 2-vCPU host: shorter runs let single
#: bursts of shared-host noise decide a round's on/off ratio.
NUM_REQUESTS = 240
RATE = 96.0
ROUNDS = 7
MAX_OVERHEAD = 0.05


def scenario_config(check_invariants: bool) -> ClusterConfig:
    return ClusterConfig(
        num_replicas=2,
        routing="least-outstanding",
        replica=ServingSimConfig(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                                 max_batch=4),
        check_invariants=check_invariants,
    )


def bursty_trace():
    return generate_trace("alpaca", NUM_REQUESTS, arrival="poisson-burst",
                          rate_per_second=RATE, seed=23)


def run_arm(check_invariants: bool):
    """One timed run; returns (wall_seconds, result)."""
    config = scenario_config(check_invariants)
    trace = bursty_trace()
    start = time.perf_counter()
    result = ClusterSimulator(config).run(trace)
    elapsed = time.perf_counter() - start
    assert len(result.finished_requests) == NUM_REQUESTS
    return elapsed, result


def checker_share() -> float:
    """Time spent inside ``after_iteration`` over the wall time of one checked run."""
    spent = 0.0
    original = ReplicaInvariantChecker.after_iteration

    def timed(self, record):
        nonlocal spent
        start = time.perf_counter()
        try:
            return original(self, record)
        finally:
            spent += time.perf_counter() - start

    ReplicaInvariantChecker.after_iteration = timed
    try:
        elapsed, _ = run_arm(True)
    finally:
        ReplicaInvariantChecker.after_iteration = original
    return spent / elapsed


def measure_overhead():
    # Warm both arms once (imports, first-call caches) before timing.
    run_arm(False)
    run_arm(True)

    ratios = []
    for round_index in range(ROUNDS):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        runs = {check_invariants: run_arm(check_invariants) for check_invariants in order}
        ratios.append(runs[True][0] / runs[False][0])

    return {
        "ratios": ratios,
        "overhead": statistics.median(ratios) - 1.0,
        "checker_share": checker_share(),
        "off_result": runs[False][1],
        "on_result": runs[True][1],
    }


def test_invariant_checking_overhead_below_5_percent(benchmark):
    metrics = run_once(benchmark, measure_overhead)

    print_table(
        f"Invariant checker overhead ({NUM_REQUESTS} bursty requests, "
        f"2 replicas, {ROUNDS} paired rounds)",
        ["quantity", "value"],
        [["on/off ratio per round", " ".join(f"{r:.3f}" for r in metrics["ratios"])],
         ["overhead (median ratio - 1)", f"{metrics['overhead']:+.2%}"],
         ["after_iteration share of a checked run", f"{metrics['checker_share']:.2%}"]])

    # The checker observes; it must never perturb the simulation itself.
    off, on = metrics["off_result"], metrics["on_result"]
    assert on.makespan == off.makespan
    assert on.generation_throughput == off.generation_throughput

    assert metrics["overhead"] < MAX_OVERHEAD, (
        f"--check-invariants costs {metrics['overhead']:.1%} "
        f"(limit {MAX_OVERHEAD:.0%}): the audit must stay cheap enough "
        f"to leave on in CI smoke runs")
