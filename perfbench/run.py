"""Host-cost benchmark of the simulator: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload tp4-sharegpt --seed 0 --seconds 24 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/rep.py``) with the
default ``serial`` backend, one process at a time.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, writing the spans of the
last traced repetition as Chrome trace-event JSON under ``perfbench/out/``.
Each repetition's simulated result is digested with
``repro.bench.cluster_result_fingerprint``; a digest that differs between
repetitions, between traced and untraced runs, or from the one recorded in
``perfbench/fingerprints.json`` fails every request of the run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
FINGERPRINTS = HERE / "fingerprints.json"
TRACE_DIR = HERE / "out"

#: Fewest repetitions per run: a traced run needs one untraced and one
#: traced repetition, and a median of one is no median.
MIN_REPS = 3
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 150

#: Name -> unit of every metric the benchmark reports (BENCHMARK.json too).
END_TO_END = {
    "wall_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "system.simulate_s": "s",
    "system.calls": "count",
    "system.us_per_node": "us",
    "graph.convert_s": "s",
    "graph.nodes_per_iter": "count",
    "graph.ns_per_node": "ns",
    "models.graph_build_s": "s",
    "models.graph_build_calls": "count",
    "engine.stack_s": "s",
    "engine.op_cache_hit_ratio": "ratio",
    "engine.iter_cache_s": "s",
    "engine.iter_cache_lookups": "count",
    "engine.iter_cache_hit_ratio": "ratio",
    "scheduler.s": "s",
    "scheduler.batch_mean": "requests",
    "scheduler.evictions": "count",
    "core.step_ms_p50": "ms",
    "core.step_ms_p99": "ms",
    "core.self_s": "s",
    "cluster.route_s": "s",
    "cluster.autoscale_s": "s",
    "cluster.scaling_events": "count",
    "cluster.advanced_per_arrival": "count",
    "cluster.loop_self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.simtime_rel_diff": "ratio",
}

#: Per-layer units that are host time, scaled to the reference host like wall_s.
TIME_UNITS = ("s", "ms", "us", "ns")

#: Traced and simulator-measured seconds of a component differ by the cost
#: of the timers around each call; a gap wider than both of these is reported.
SIMTIME_TOLERANCE = 0.10
SIMTIME_TOLERANCE_S = 0.010


def _workloads():
    """The workload table; importing it needs ``src`` on the path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    return WORKLOADS


def repetitions(rep_seconds: float, seconds: int) -> int:
    """Repetitions per run: as many nominal repetitions as fit in ``seconds``."""
    return max(MIN_REPS, round(seconds / rep_seconds))


def spawn(workload: str, seed: int, size: str, traced: bool = False,
          trace_out: Optional[Path] = None) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--size", size]
    if traced:
        command.append("--traced")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned_at = time.perf_counter()
    proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition of {workload} exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    report["traced"] = traced
    return report


def run_speed(rep: dict) -> float:
    """Reference-host seconds per host second while the repetition ran.

    A run shorter than one probe interval has a single in-run probe; the
    probes taken just before and after it then carry the estimate.
    """
    return hostspeed.speed_factor(rep["probes_run"] + rep["probes_setup"] + rep["probes_after"]
                                  if len(rep["probes_run"]) < 2 else rep["probes_run"])


def normalised_run_s(rep: dict) -> float:
    """The repetition's run time in reference-host seconds."""
    return rep["run_s"] * run_speed(rep)


def recorded_fingerprint(workload: str, size: str, seed: int) -> Optional[str]:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    return table.get(workload, {}).get(size, {}).get(str(seed))


def summarise(reps: List[dict], expected: Optional[str]) -> dict:
    """Judge the repetitions of one run and compute its metrics.

    Every request fails when the repetitions disagree on the simulated
    result (traced against untraced included) or when the result differs
    from ``expected``; otherwise a request fails when a repetition
    truncated it or left it unfinished (see ``rep.py``).  A trace that
    fails its own checks makes the run incorrect without failing requests.
    """
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    fingerprints = sorted({r["fingerprint"] for r in reps})
    attempted = reps[0]["requests"]
    problems = []
    if len(fingerprints) > 1:
        problems.append(f"repetitions disagree on the result: {fingerprints}")
    if expected is not None and fingerprints != [expected]:
        problems.append(f"result {fingerprints[0]} differs from the recorded {expected}")
    failed = attempted if problems else max(r["failed"] for r in reps)
    violations = sum(r.get("nesting_violations", 0) for r in traced)
    if violations:
        problems.append(f"{violations} spans lie outside their parent or overfill it")
    for r in traced:
        if r["traced_iter_cache_hits"] != r["iteration_cache_hits"]:
            problems.append(f"spans saw {r['traced_iter_cache_hits']} iteration-cache hits, "
                            f"the simulator counted {r['iteration_cache_hits']}")

    wall = statistics.median(normalised_run_s(r) for r in plain)
    metrics: Dict[str, float] = {
        "wall_s": wall,
        "iters_per_s": plain[0]["iterations"] / wall,
        "setup_s": statistics.median(
            r["setup_s"] * hostspeed.speed_factor(r["probes_setup"]) for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = [f"host speed {statistics.median(run_speed(r) for r in reps):.3f} of the "
             f"reference host; raw run time {statistics.median(r['run_s'] for r in plain):.4f} s"]
    if traced:
        for name in traced[0]["layers"]:
            scale = PER_LAYER[name] in TIME_UNITS
            metrics[name] = statistics.median(
                r["layers"][name] * (run_speed(r) if scale else 1.0) for r in traced)
        traced_wall = statistics.median(normalised_run_s(r) for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        diffs = []
        for r in traced:
            measured_total = sum(r["measured_components"].values())
            diffs.append(abs(sum(r["traced_components"].values()) - measured_total)
                         / measured_total)
            for component, measured in r["measured_components"].items():
                traced_s = r["traced_components"][component]
                gap = abs(traced_s - measured)
                if gap > SIMTIME_TOLERANCE * measured and gap > SIMTIME_TOLERANCE_S:
                    notes.append(f"traced {component} {traced_s:.4f} s vs simulator-"
                                 f"measured {measured:.4f} s ({100 * gap / measured:.1f}% apart)")
        metrics["trace.simtime_rel_diff"] = statistics.median(diffs)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems, "notes": notes,
            "fingerprint": fingerprints[0], "iterations": reps[0]["iterations"]}


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, size: str = "full",
                  expected: Optional[str] = None) -> dict:
    """Measure one workload; ``expected`` overrides the recorded fingerprint."""
    spec = _workloads()[workload]
    count = repetitions(spec.rep_seconds, seconds)
    if expected is None:
        expected = recorded_fingerprint(workload, size, seed)
    trace_out = TRACE_DIR / f"{workload}-seed{seed}-{size}.trace.json" if trace else None
    reps = []
    for index in range(count):
        traced = trace and index % 2 == 1
        last_traced = traced and index + 2 >= count
        reps.append(spawn(workload, seed, size, traced,
                          trace_out if last_traced else None))
    summary = summarise(reps, expected)
    summary["trace_file"] = str(trace_out) if trace_out is not None else None
    summary["recorded"] = expected is not None
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="Host-cost benchmark of the simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: the simulator's sources are missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads)}")

    summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.size)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"iterations {summary['iterations']}  fingerprint {summary['fingerprint'][:16]} "
          f"({'recorded' if summary['recorded'] else 'not recorded for this seed'})")
    for name, unit in units.items():
        print(f"  {name:32s} {summary['metrics'][name]:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {summary['failed'] / summary['attempted']:14.6g} "
          f"ratio ({summary['failed']} of {summary['attempted']} requests)")
    for line in summary["notes"]:
        print(f"  note: {line}")
    for line in summary["problems"]:
        print(f"  FAILED: {line}")
    if summary["trace_file"]:
        print(f"  spans: {summary['trace_file']}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
