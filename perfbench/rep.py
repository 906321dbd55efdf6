"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (``src`` must be importable, as ``run.py`` arranges)::

    python3 perfbench/rep.py --workload NAME --seed N --size full|tiny \
        --spawned-at T [--traced] [--trace-out PATH]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is ``CLOCK_MONOTONIC``, shared by
all processes, so ``ready_at - spawned_at`` is the set-up time of a fresh
interpreter: start-up, ``import repro`` and construction of the simulator.

The last line of standard output is one JSON object describing the
repetition: set-up and run timestamps, the host-speed probe samples (see
``hostspeed.py``), the result fingerprint, request accounting, peak RSS
and, with ``--traced``, the per-layer metrics and trace self-checks.

Both kinds of repetition probe the host between simulator steps and
report the probes' total time so it can be taken out of the run time; the
probe runs outside the ``core.step`` span, inside only the spans that
enclose whole steps.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import hostspeed
import repro  # noqa: F401  (the import is part of the measured set-up)
from spans import Tracer
from workloads import SIZES, WORKLOADS, as_cluster_result, make_requests

#: Probes taken right after set-up and right after the run.
PROBES_AROUND_RUN = 20


def _request_failures(result, windowed: bool, stalled: bool) -> int:
    """Requests the simulator got wrong.

    A request fails when it was truncated (finished short of its output
    length) or, when the run stopped early, left unfinished.  In a
    windowed run the requests still queued or running when the window
    closes are not failures: the window is a fixed slice of the stream.
    """
    failed = 0
    for request in result.requests:
        if request.is_finished:
            failed += request.generated_tokens < request.output_tokens
        elif stalled or not windowed:
            failed += 1
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    window = workload.window[args.size]

    simulator = workload.make_simulator()
    ready_at = time.perf_counter()

    # Probes and spans go in after construction, so set-up is the same in
    # both modes and the spans cover the run only.
    probes_setup: list = []
    probes_run: list = []
    probes_after: list = []
    hostspeed.sample(probes_setup, PROBES_AROUND_RUN)
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    # Installed last, so the probe runs outside the step's span.
    hostspeed.install_probe(probes_run)
    requests = make_requests(workload, args.seed, args.size)
    started = time.perf_counter()
    if workload.is_cluster:
        result = simulator.run(requests)
        replica_results = result.replica_results
        sims = [replica.simulator for replica in simulator.replicas]
    else:
        result = simulator.run(requests, max_iterations=window)
        replica_results = [result]
        sims = [simulator]
    ended = time.perf_counter()
    hostspeed.sample(probes_after, PROBES_AROUND_RUN)

    from repro.bench import cluster_result_fingerprint
    cluster_result = as_cluster_result(result)
    iterations = sum(len(r.iterations) for r in replica_results)
    stalled = window is not None and iterations < window and any(s.has_work for s in sims)
    op_hits = sum(s.engine_stack.cache.stats.hits for s in sims)
    op_lookups = sum(s.engine_stack.cache.stats.lookups for s in sims)
    report = {
        "ready_at": ready_at,
        "started": started,
        "ended": ended,
        "run_s": ended - started - sum(probes_run),
        "probes_setup": probes_setup,
        "probes_run": probes_run,
        "probes_after": probes_after,
        "iterations": iterations,
        "fingerprint": cluster_result_fingerprint(cluster_result),
        "requests": len(cluster_result.requests),
        "failed": _request_failures(cluster_result, window is not None, stalled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iteration_cache_hits": sum(r.iteration_cache_hits for r in replica_results),
        "op_cache_hit_ratio": op_hits / op_lookups if op_lookups else 0.0,
    }
    if tracer is not None:
        measured = {name: sum(getattr(r.measured_simulation_time, name)
                              for r in replica_results)
                    for name in tracer.component_seconds()}
        layers = tracer.layer_metrics()
        layers["engine.op_cache_hit_ratio"] = report["op_cache_hit_ratio"]
        layers["cluster.scaling_events"] = float(len(cluster_result.scaling_timeline))
        report.update(layers=layers, traced_components=tracer.component_seconds(),
                      measured_components=measured,
                      nesting_violations=tracer.nesting_violations(),
                      traced_iter_cache_hits=tracer.iter_cache_hits)
        if args.trace_out is not None:
            tracer.write_chrome_trace(args.trace_out, f"{workload.name} seed {args.seed}",
                                      replicas=len(sims))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
