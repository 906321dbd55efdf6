"""Ablation benches for three serving-system design choices.

Each exercises one of the techniques the paper builds on:

* Orca iteration-level scheduling versus conventional static batching;
* vLLM paged KV-cache management versus maximum-length pre-allocation;
* the computation-reuse cache's effect on engine-stack work.

docs/scheduler.md describes the schedulers and KV managers compared here,
docs/performance.md the computation-reuse cache.
"""

from conftest import make_uniform_batch, run_once

from repro import LLMServingSim, ServingSimConfig
from repro.analysis import print_table
from repro.models import Phase
from repro.workload import PoissonArrivalGenerator


def _workload(seed: int = 13, count: int = 32):
    return PoissonArrivalGenerator("sharegpt", rate_per_second=2.0, seed=seed).generate(count).requests


def test_ablation_iteration_level_scheduling(benchmark):
    def run():
        results = {}
        for policy in ("orca", "static"):
            config = ServingSimConfig(model_name="gpt3-7b", npu_num=4, scheduling=policy,
                                      max_batch=16)
            results[policy] = LLMServingSim(config).run(_workload())
        return results

    results = run_once(benchmark, run)
    rows = [[policy, f"{r.generation_throughput:.1f}", f"{r.mean_end_to_end_latency():.2f}",
             f"{r.mean_time_to_first_token():.2f}"]
            for policy, r in results.items()]
    print_table("Ablation: Orca iteration-level vs static batch-level scheduling "
                "(GPT3-7B, 4 NPUs, Poisson arrivals)",
                ["scheduling", "gen tok/s", "mean E2E (s)", "mean TTFT (s)"], rows)

    # Iteration-level scheduling admits requests as they arrive instead of
    # waiting for the whole batch to drain, improving time-to-first-token.
    assert results["orca"].mean_time_to_first_token() <= \
        results["static"].mean_time_to_first_token() * 1.05
    assert results["orca"].generation_throughput >= \
        results["static"].generation_throughput * 0.9


def test_ablation_kv_cache_paging(benchmark):
    def run():
        results = {}
        for scheme in ("vllm", "max"):
            config = ServingSimConfig(model_name="gpt3-7b", npu_num=1, kv_manage=scheme)
            results[scheme] = LLMServingSim(config).run(_workload(seed=29, count=48))
        return results

    results = run_once(benchmark, run)
    max_batches = {scheme: max(r.num_requests for r in result.iterations)
                   for scheme, result in results.items()}
    rows = [[scheme, f"{results[scheme].generation_throughput:.1f}", max_batches[scheme]]
            for scheme in results]
    print_table("Ablation: vLLM paged KV cache vs max-length pre-allocation "
                "(GPT3-7B, 1 NPU, 48 requests)",
                ["kv_manage", "gen tok/s", "max batch reached"], rows)

    # Paging packs more concurrent requests into the same memory and therefore
    # sustains at least the throughput of max-allocation.
    assert max_batches["vllm"] >= max_batches["max"]
    assert results["vllm"].generation_throughput >= results["max"].generation_throughput * 0.95


def test_ablation_computation_reuse_work(benchmark):
    def run():
        work = {}
        batch = make_uniform_batch(32, 512, Phase.GENERATION)
        for reuse in (True, False):
            config = ServingSimConfig(model_name="gpt3-7b", npu_num=8,
                                      enable_block_reuse=reuse, enable_computation_reuse=reuse)
            sim = LLMServingSim(config)
            # Two identical iterations: with reuse the second is nearly free.
            sim.simulate_single_batch(batch)
            sim.simulate_single_batch(batch)
            work[reuse] = sim.simtime.modeled.engine
        return work

    work = run_once(benchmark, run)
    print_table("Ablation: engine-stack modeled time for two identical iterations",
                ["computation reuse", "engine time (s)"],
                [["enabled", f"{work[True]:.1f}"], ["disabled", f"{work[False]:.1f}"]])
    assert work[True] < work[False] / 5
