"""The benchmark's workloads: simulator configurations and seeded request streams.

Each workload names a simulator configuration, a request stream and the
amount of simulated work one repetition performs: the first ``window``
iterations of the stream, or (``window`` of ``None``) serving every request
to completion.  The simulator receives nothing but the generated
``Request`` objects.

The streams keep the amount of simulated work from being a random
variable.  A host-time benchmark can afford only a few requests per
repetition, and with plain random draws the run-to-run spread would be
that of the draw, not of the simulator:

* Lengths are *stratified*: for ``n`` requests they are the ``n`` quantiles
  ``(i + 0.5) / n`` of the dataset's log-normal length profile (the one
  :class:`repro.workload.datasets.LengthSampler` draws from).
* The seed shuffles which request gets which prompt length.  Output
  lengths and the arrival schedule (burst sizes and gaps, likewise
  stratified) come from one fixed draw shared by every seed; like the
  rate, they are part of the workload's definition.

So every seed asks for the same decode steps on the same timeline, while
the prompt lengths, and with them prefill work, context lengths, KV usage,
cache hits and the simulated result, change with the seed.  Over ten seeds
this held the spread (interquartile range over median) of the
execution-graph nodes simulated per repetition at 0% on ``pim-subbatch``
and of iteration-cache misses at about 2% on ``fleet-alpaca``; shuffling
output lengths and arrivals too left 7-23% and 10-18%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Union

import numpy as np

from repro.cluster.results import ClusterResult
from repro.core.config import AutoscaleConfig, ClusterConfig, ServingSimConfig
from repro.core.results import ServingResult
from repro.workload.datasets import DatasetProfile, get_profile
from repro.workload.request import Request

__all__ = ["Workload", "WORKLOADS", "SIZES", "make_requests", "as_cluster_result"]

#: ``full`` is what the benchmark measures; ``tiny`` is the smoke-test size.
SIZES = ("full", "tiny")

_INV_NORMAL = NormalDist().inv_cdf


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``requests`` and ``window`` map a size to the stream length and to the
    number of iterations simulated (``None``: serve every request to
    completion).  ``rep_seconds`` is the nominal host time of one full-size
    repetition, which sets how many repetitions fit in ``--seconds``.  Why
    each workload was chosen is in ``README.md``.
    """

    name: str
    dataset: str
    arrival: str
    rate_per_second: float
    requests: Dict[str, int]
    window: Dict[str, Optional[int]]
    rep_seconds: float
    config: Union[ServingSimConfig, ClusterConfig]

    @property
    def is_cluster(self) -> bool:
        return isinstance(self.config, ClusterConfig)

    def make_simulator(self):
        """Construct the program under test (a fresh object per call)."""
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.simulator import LLMServingSim
        if self.is_cluster:
            return ClusterSimulator(self.config)
        return LLMServingSim(self.config)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tp4-sharegpt",
        dataset="sharegpt", arrival="poisson", rate_per_second=0.4,
        requests={"full": 16, "tiny": 2}, window={"full": 150, "tiny": 4},
        rep_seconds=6.0,
        config=ServingSimConfig(model_name="gpt3-30b", npu_num=4,
                                enable_iteration_reuse=True)),
    Workload(
        name="fleet-alpaca",
        dataset="alpaca", arrival="poisson-burst", rate_per_second=8.0,
        requests={"full": 200, "tiny": 4}, window={"full": None, "tiny": None},
        rep_seconds=8.0,
        config=ClusterConfig(
            num_replicas=4, routing="least-outstanding",
            replica=ServingSimConfig(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                                     enable_iteration_reuse=True),
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4,
                                      window_seconds=4.0, target_rate_per_replica=2.0,
                                      warmup_seconds=0.5, cooldown_seconds=1.0))),
    Workload(
        name="pim-subbatch",
        dataset="alpaca", arrival="poisson-burst", rate_per_second=8.0,
        requests={"full": 8, "tiny": 2}, window={"full": 120, "tiny": 6},
        rep_seconds=6.0,
        config=ServingSimConfig(model_name="gpt3-7b", npu_num=4, pim_type="local",
                                sub_batch=True, max_batch=32)),
)}

#: Seed of the output lengths and arrival schedule shared by every run.
SHARED_SEED = 2024

#: Mean requests per burst of the ``poisson-burst`` process (the generator's
#: default, :class:`repro.workload.generator.PoissonBurstArrivalGenerator`).
BURST_SIZE_MEAN = 4.0


def _strata(count: int, rng: np.random.Generator) -> List[float]:
    """The ``count`` mid-point quantile levels, in a seeded random order."""
    return [float(u) for u in rng.permutation([(i + 0.5) / count for i in range(count)])]


def _lengths(profile: DatasetProfile, count: int, mean: float, sigma: float,
             rng: np.random.Generator) -> List[int]:
    # Same parameterisation as LengthSampler: mu chosen so the mean matches.
    mu = math.log(mean) - 0.5 * sigma * sigma
    return [min(max(round(math.exp(mu + sigma * _INV_NORMAL(u))), profile.min_tokens),
                profile.max_tokens)
            for u in _strata(count, rng)]


def _exponential_gaps(count: int, mean: float, rng: np.random.Generator) -> List[float]:
    return [-math.log(1.0 - u) * mean for u in _strata(count, rng)]


def _burst_sizes(total: int, rng: np.random.Generator) -> List[int]:
    """Geometric burst sizes (mean :data:`BURST_SIZE_MEAN`) adding up to ``total``."""
    p = 1.0 / BURST_SIZE_MEAN
    sizes = []
    remaining = total
    for u in _strata(math.ceil(total / BURST_SIZE_MEAN), rng):
        if remaining == 0:
            break
        size = min(max(1, math.ceil(math.log(1.0 - u) / math.log(1.0 - p))), remaining)
        sizes.append(size)
        remaining -= size
    if remaining:
        sizes.append(remaining)
    return sizes


def make_requests(workload: Workload, seed: int, size: str) -> List[Request]:
    """The seeded request stream of ``workload`` at ``size`` (see module doc)."""
    count = workload.requests[size]
    profile = get_profile(workload.dataset)
    inputs = _lengths(profile, count, profile.mean_input_tokens, profile.sigma_input,
                      np.random.default_rng(seed))
    shared = np.random.default_rng(SHARED_SEED)
    outputs = _lengths(profile, count, profile.mean_output_tokens, profile.sigma_output,
                       shared)
    if workload.arrival == "poisson":
        bursts = [1] * count
    elif workload.arrival == "poisson-burst":
        bursts = _burst_sizes(count, shared)
    else:
        raise ValueError(f"unsupported arrival process {workload.arrival!r}")
    gaps = _exponential_gaps(len(bursts), count / len(bursts) / workload.rate_per_second,
                             shared)
    requests: List[Request] = []
    clock = 0.0
    for burst, gap in zip(bursts, gaps):
        clock += gap
        for _ in range(burst):
            i = len(requests)
            requests.append(Request(i, inputs[i], outputs[i], arrival_time=clock))
    return requests


def as_cluster_result(result: Union[ClusterResult, ServingResult]) -> ClusterResult:
    """View a single-replica result as a one-replica cluster result.

    Lets :func:`repro.bench.cluster_result_fingerprint` digest both kinds of
    run with one definition.
    """
    if isinstance(result, ClusterResult):
        return result
    return ClusterResult(routing="single-replica", replica_results=[result])
