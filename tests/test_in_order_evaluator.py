"""Differential and property-based tests of the system simulator's in-order evaluator.

The discrete-event simulation (``SystemSimulator.simulate_events``) is the
oracle.  Over converter-built graphs of generated configurations and
workloads, the in-order evaluator must return the oracle's makespan bit for
bit on every graph the converter flags ``in_order_exact``, and the converter
must leave the flag off on the graphs where the two disagree (interleaved
sub-batches, PIM-pool round trips), which then take the oracle's path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ServingSimConfig
from repro.core.simulator import LLMServingSim
from repro.graph import ExecutionGraph, GraphGranularity, GraphNodeType
from repro.models import BatchComposition, Phase, SequenceSpec, get_model
from repro.system import SystemSimulator, build_topology
from repro.workload.request import Request

GPT2 = get_model("gpt2")
#: A KV budget of 160 tokens: a few gpt2 requests evict and reload pages.
TINY_KV_BYTES = 160 * GPT2.kv_bytes_per_token()

#: Configurations whose graphs the converter must flag in-order exact.
SAFE_CONFIGS = {
    "tp1": dict(npu_num=1),
    "tp2": dict(npu_num=2),
    "tp4": dict(npu_num=4),
    "pp2xtp2": dict(npu_num=4, npu_group=2),
    "pp4": dict(npu_num=4, npu_group=4),
    "block": dict(npu_num=2, graph_granularity=GraphGranularity.BLOCK),
    "pim-local": dict(npu_num=2, pim_type="local"),
    "tiny-kv": dict(npu_num=1, kv_capacity_bytes=TINY_KV_BYTES),
    "tiny-kv-tp2": dict(npu_num=2, kv_capacity_bytes=TINY_KV_BYTES),
}

#: Configurations that produce graphs the in-order pass may get wrong.
MIXED_CONFIGS = {
    "pim-local-sub-batch": dict(npu_num=2, pim_type="local", sub_batch=True),
    "pim-pool": dict(npu_num=2, pim_type="pool"),
}


def make_config(overrides) -> ServingSimConfig:
    return ServingSimConfig(model_name="gpt2", npu_mem_gb=4.0, **overrides)


def run_recording_graphs(config: ServingSimConfig, drive):
    """Build a simulator, ``drive`` it, and return its system simulator and every graph it ran."""
    sim = LLMServingSim(config)
    system = sim.system_simulator
    graphs = []

    def record(graph, start_time=0.0):
        graphs.append(graph)
        return SystemSimulator.simulate(system, graph, start_time)

    system.simulate = record
    try:
        drive(sim)
    finally:
        del system.simulate
    return system, graphs


def converted_graphs(config: ServingSimConfig, requests):
    """Serve ``requests``; return the system simulator and every graph it ran."""
    return run_recording_graphs(config, lambda sim: sim.run(requests))


def single_batch_graph(config: ServingSimConfig, batch: BatchComposition):
    """The system simulator and the graph of one iteration over ``batch``."""
    system, graphs = run_recording_graphs(config, lambda sim: sim.simulate_single_batch(batch))
    return system, graphs[0]


def sub_batches_of(graph: ExecutionGraph):
    return {node.metadata["sub_batch"] for node in graph if "sub_batch" in node.metadata}


def has_pool_transfer(graph: ExecutionGraph) -> bool:
    return any(node.metadata.get("pool_transfer") for node in graph)


def assert_aggregates_match(fast, oracle):
    assert fast.compute_time == pytest.approx(oracle.compute_time, rel=1e-12)
    assert fast.comm_time == pytest.approx(oracle.comm_time, rel=1e-12)
    assert fast.memory_time == pytest.approx(oracle.memory_time, rel=1e-12)
    assert fast.device_busy_time.keys() == oracle.device_busy_time.keys()
    for device, busy in oracle.device_busy_time.items():
        assert fast.device_busy_time[device] == pytest.approx(busy, rel=1e-12)


requests_strategy = st.lists(
    st.tuples(st.integers(1, 96), st.integers(1, 48), st.integers(0, 4)),
    min_size=1, max_size=4)


def build_requests(spec):
    arrival = 0.0
    requests = []
    for index, (input_tokens, output_tokens, gap_ms) in enumerate(spec):
        arrival += gap_ms * 1e-3
        requests.append(Request(request_id=index, input_tokens=input_tokens,
                                output_tokens=output_tokens, arrival_time=arrival))
    return requests


class TestSafeGraphs:
    @given(name=st.sampled_from(sorted(SAFE_CONFIGS)), spec=requests_strategy)
    @settings(max_examples=40, deadline=None)
    def test_in_order_makespan_equals_des(self, name, spec):
        system, graphs = converted_graphs(make_config(SAFE_CONFIGS[name]), build_requests(spec))
        assert graphs
        for graph in graphs:
            assert graph.in_order_exact
            fast = system.evaluate_in_order(graph)
            oracle = system.simulate_events(graph)
            assert fast.makespan == oracle.makespan
            assert_aggregates_match(fast, oracle)

    def test_kv_evict_and_reload_graphs_match(self):
        requests = [Request(request_id=i, input_tokens=64, output_tokens=64) for i in range(3)]
        system, graphs = converted_graphs(make_config(SAFE_CONFIGS["tiny-kv"]), requests)
        directions = {node.metadata["direction"] for graph in graphs for node in graph
                      if node.node_type is GraphNodeType.MEMORY}
        assert directions == {"store", "load"}
        for graph in graphs:
            assert graph.in_order_exact
            assert system.evaluate_in_order(graph).makespan == \
                system.simulate_events(graph).makespan

    def test_simulate_takes_the_in_order_path(self):
        batch = BatchComposition([SequenceSpec(i, 32, 1, Phase.GENERATION) for i in range(3)])
        system, graph = single_batch_graph(make_config(SAFE_CONFIGS["tp4"]), batch)
        result = system.simulate(graph, start_time=5.0)
        oracle = system.simulate_events(graph, start_time=5.0)
        assert result.makespan == oracle.makespan
        assert result.node_timings == [] and result.num_events == 0
        assert len(oracle.node_timings) == oracle.num_events == len(graph)


class TestUnsafeGraphs:
    @given(name=st.sampled_from(sorted(MIXED_CONFIGS)), spec=requests_strategy)
    @settings(max_examples=20, deadline=None)
    def test_flag_off_exactly_when_unsafe_and_des_result_returned(self, name, spec):
        system, graphs = converted_graphs(make_config(MIXED_CONFIGS[name]), build_requests(spec))
        for graph in graphs:
            unsafe = len(sub_batches_of(graph)) > 1 or has_pool_transfer(graph)
            assert graph.in_order_exact is not unsafe
            result = system.simulate(graph)
            oracle = system.simulate_events(graph)
            assert result.makespan == oracle.makespan
            if unsafe:
                assert len(result.node_timings) == len(graph)
            else:
                assert system.evaluate_in_order(graph).makespan == oracle.makespan

    def test_known_divergent_sub_batch_graph_uses_des(self):
        batch = BatchComposition([SequenceSpec(0, 16, 1, Phase.GENERATION),
                                  SequenceSpec(1, 32, 1, Phase.GENERATION)])
        system, graph = single_batch_graph(make_config(MIXED_CONFIGS["pim-local-sub-batch"]),
                                           batch)
        assert len(sub_batches_of(graph)) == 2
        assert not graph.in_order_exact
        oracle = system.simulate_events(graph)
        # The in-order pass serialises the interleaved sub-batches.
        assert system.evaluate_in_order(graph).makespan > oracle.makespan
        result = system.simulate(graph)
        assert result.makespan == oracle.makespan
        assert result.num_events == len(graph)

    def test_pool_transfer_graph_is_unsafe(self):
        batch = BatchComposition([SequenceSpec(i, 64, 1, Phase.GENERATION) for i in range(3)])
        system, graph = single_batch_graph(make_config(MIXED_CONFIGS["pim-pool"]), batch)
        assert has_pool_transfer(graph)
        assert not graph.in_order_exact
        assert system.simulate(graph).makespan == system.simulate_events(graph).makespan


class TestValidation:
    def _system(self):
        return SystemSimulator(build_topology(2, 1))

    def test_hand_built_graphs_are_not_flagged(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0)
        assert not graph.in_order_exact
        result = self._system().simulate(graph)
        assert len(result.node_timings) == 1

    def test_forward_edge_falls_back_to_des(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0, deps=[1])
        graph.add_compute("b", device=2, duration=2.0)
        graph.in_order_exact = True
        system = self._system()
        assert system.evaluate_in_order(graph) is None
        result = system.simulate(graph)
        assert result.makespan == 3.0
        assert len(result.node_timings) == 2

    def test_device_outside_topology_falls_back_to_des(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0)
        graph.add_compute("b", device=7, duration=2.0, deps=[0])
        graph.in_order_exact = True
        system = self._system()
        assert system.evaluate_in_order(graph) is None
        assert system.simulate(graph).makespan == 3.0

    def test_flagged_cycle_and_missing_dependency_still_raise(self):
        cyclic = ExecutionGraph()
        cyclic.add_compute("a", device=1, duration=1.0, deps=[1])
        cyclic.add_compute("b", device=1, duration=1.0, deps=[0])
        missing = ExecutionGraph()
        missing.add_compute("a", device=1, duration=1.0, deps=[-1])
        system = self._system()
        for graph, message in ((cyclic, "cycle"), (missing, "missing node")):
            graph.in_order_exact = True
            with pytest.raises(ValueError, match=message):
                system.simulate(graph)

    def test_validate_accepts_acyclic_forward_edges(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0, deps=[2])
        graph.add_compute("b", device=1, duration=1.0)
        graph.add_compute("c", device=1, duration=1.0, deps=[1])
        graph.validate()
        assert [n.name for n in graph.topological_order()] == ["b", "c", "a"]

    def test_self_dependency_is_a_cycle(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0, deps=[0])
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()
