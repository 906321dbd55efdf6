"""Differential and property-based tests of the system simulator's layout paths.

The discrete-event simulation (``SystemSimulator.simulate_events``) of the
materialised execution graph is the oracle.  Over the iteration layouts the
converter builds for generated configurations and workloads:

* the block replay must return the oracle's makespan bit for bit on every
  layout the converter flags ``in_order_exact``;
* the converter must leave the flag off on the layouts where the two
  disagree (interleaved sub-batches, PIM-pool round trips);
* the layout event core, which runs those layouts from their recorded
  blocks, must equal the oracle field for field (makespan, aggregates,
  per-device busy time, event count).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ServingSimConfig
from repro.core.simulator import LLMServingSim
from repro.graph import (ExecutionGraph, GraphConverter, GraphGranularity, GraphNodeType,
                         IterationLayout)
from repro.graph.layout import RecordedBlock, Segment
from repro.models import BatchComposition, Phase, SequenceSpec, get_model
from repro.system import SystemSimulator, build_topology
from repro.workload.request import Request

GPT2 = get_model("gpt2")
#: A KV budget of 160 tokens: a few gpt2 requests evict and reload pages.
TINY_KV_BYTES = 160 * GPT2.kv_bytes_per_token()
#: A KV budget of 256 tokens: with sub-batching, KV migrations land in
#: iterations that interleave sub-batches.
SMALL_KV_BYTES = 256 * GPT2.kv_bytes_per_token()

#: Configurations whose layouts the converter must flag in-order exact.
SAFE_CONFIGS = {
    "tp1": dict(npu_num=1),
    "tp2": dict(npu_num=2),
    "tp4": dict(npu_num=4),
    "pp2xtp2": dict(npu_num=4, npu_group=2),
    "pp4": dict(npu_num=4, npu_group=4),
    # gpt2's 12 blocks over 5 stages: 3, 3, 2, 2, 2.
    "pp5-uneven": dict(npu_num=5, npu_group=5),
    "block": dict(npu_num=2, graph_granularity=GraphGranularity.BLOCK),
    "block-pp2": dict(npu_num=4, npu_group=2, graph_granularity=GraphGranularity.BLOCK),
    "pim-local": dict(npu_num=2, pim_type="local"),
    "tiny-kv": dict(npu_num=1, kv_capacity_bytes=TINY_KV_BYTES),
    "tiny-kv-tp2": dict(npu_num=2, kv_capacity_bytes=TINY_KV_BYTES),
}

#: Configurations that produce layouts the in-order replay may get wrong.
MIXED_CONFIGS = {
    "pim-local-sub-batch": dict(npu_num=2, pim_type="local", sub_batch=True),
    "pim-pool": dict(npu_num=2, pim_type="pool"),
    "pim-pool-sub-batch": dict(npu_num=2, pim_type="pool", sub_batch=True),
    "pp2xtp2-pim-local-sub-batch": dict(npu_num=4, npu_group=2, pim_type="local",
                                        sub_batch=True),
    "small-kv-pim-local-sub-batch": dict(npu_num=2, pim_type="local", sub_batch=True,
                                         kv_capacity_bytes=SMALL_KV_BYTES),
}


def make_config(overrides) -> ServingSimConfig:
    return ServingSimConfig(model_name="gpt2", npu_mem_gb=4.0, **overrides)


def run_recording_layouts(config: ServingSimConfig, drive):
    """Build a simulator, ``drive`` it, and return it and every (layout, stats) it converted."""
    sim = LLMServingSim(config)
    converter = sim.converter
    layouts = []

    def record(*args, **kwargs):
        layout = GraphConverter.convert(converter, *args, **kwargs)
        layouts.append((layout, converter.stats))
        return layout

    converter.convert = record
    try:
        drive(sim)
    finally:
        del converter.convert
    return sim.system_simulator, layouts


def converted_layouts(config: ServingSimConfig, requests):
    """Serve ``requests``; return the system simulator and every layout it ran."""
    return run_recording_layouts(config, lambda sim: sim.run(requests))


def single_batch_layout(config: ServingSimConfig, batch: BatchComposition):
    """The system simulator and the layout of one iteration over ``batch``."""
    system, layouts = run_recording_layouts(config,
                                            lambda sim: sim.simulate_single_batch(batch))
    return system, layouts[0][0]


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


def assert_equals_oracle(result, oracle):
    """Field-for-field equality with the oracle (the layout paths record no timings)."""
    assert result.makespan == oracle.makespan
    assert result.compute_time == oracle.compute_time
    assert result.comm_time == oracle.comm_time
    assert result.memory_time == oracle.memory_time
    assert result.device_busy_time == oracle.device_busy_time
    assert result.num_events == oracle.num_events
    assert result.node_timings == []


def assert_stats_count_graph(stats, graph: ExecutionGraph):
    """The converter's stats are the node-type counts of the materialised graph."""
    nodes = graph.nodes
    kinds = [node.node_type for node in nodes]
    assert stats.compute_nodes == kinds.count(GraphNodeType.COMPUTE)
    assert stats.collective_nodes == kinds.count(GraphNodeType.COLLECTIVE)
    assert stats.p2p_nodes == kinds.count(GraphNodeType.P2P)
    assert stats.memory_nodes == kinds.count(GraphNodeType.MEMORY)
    assert stats.collective_participants == sum(
        len(node.comm_group) for node in nodes if node.node_type is GraphNodeType.COLLECTIVE)
    assert stats.pool_transfer_nodes == sum(
        1 for node in nodes if node.metadata.get("pool_transfer"))
    assert stats.total_nodes == len(graph)


def example_budget(local: int) -> int:
    """``local`` examples, scaled like the loaded Hypothesis profile (``ci`` runs 5x)."""
    return local * settings.default.max_examples // settings.get_profile("default").max_examples


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
    @settings(max_examples=example_budget(40), deadline=None)
    def test_in_order_makespan_equals_des(self, name, spec):
        system, layouts = converted_layouts(make_config(SAFE_CONFIGS[name]),
                                            build_requests(spec))
        assert layouts
        for layout, stats in layouts:
            assert layout.in_order_exact
            graph = layout.materialize()
            fast = system.simulate(layout)
            oracle = system.simulate_events(graph)
            assert fast.makespan == oracle.makespan
            assert_aggregates_match(fast, oracle)
            assert_stats_count_graph(stats, graph)

    def test_kv_evict_and_reload_graphs_match(self):
        requests = [Request(request_id=i, input_tokens=64, output_tokens=64) for i in range(3)]
        system, layouts = converted_layouts(make_config(SAFE_CONFIGS["tiny-kv"]), requests)
        graphs = [layout.materialize() for layout, _ in layouts]
        directions = {node.metadata["direction"] for graph in graphs for node in graph
                      if node.node_type is GraphNodeType.MEMORY}
        assert directions == {"store", "load"}
        for (layout, _), graph in zip(layouts, graphs):
            assert layout.in_order_exact
            assert system.replay(layout).makespan == system.simulate_events(graph).makespan

    def test_simulate_takes_the_in_order_path(self):
        batch = BatchComposition([SequenceSpec(i, 32, 1, Phase.GENERATION) for i in range(3)])
        system, layout = single_batch_layout(make_config(SAFE_CONFIGS["tp4"]), batch)
        result = system.simulate(layout)
        graph = layout.materialize()
        oracle = system.simulate_events(graph)
        assert result.makespan == oracle.makespan
        assert result.node_timings == [] and result.num_events == 0
        assert len(oracle.node_timings) == oracle.num_events == len(graph)

    def test_each_block_is_recorded_once_per_stage(self):
        batch = BatchComposition([SequenceSpec(i, 32, 1, Phase.GENERATION) for i in range(2)])
        _, layout = single_batch_layout(make_config(SAFE_CONFIGS["pp5-uneven"]), batch)
        (chain,) = layout.chains
        blocks = [segment for segment in chain if segment.first_block is not None]
        assert [(s.first_block, s.repeats) for s in blocks] == \
            [(0, 3), (3, 3), (6, 2), (8, 2), (10, 2)]


class TestUnsafeGraphs:
    @given(name=st.sampled_from(sorted(MIXED_CONFIGS)), spec=requests_strategy)
    @settings(max_examples=example_budget(40), deadline=None)
    def test_flag_off_exactly_when_unsafe_and_des_result_returned(self, name, spec):
        system, layouts = converted_layouts(make_config(MIXED_CONFIGS[name]),
                                            build_requests(spec))
        for layout, stats in layouts:
            graph = layout.materialize()
            unsafe = len(sub_batches_of(graph)) > 1 or has_pool_transfer(graph)
            assert layout.in_order_exact is not unsafe
            result = system.simulate(layout)
            oracle = system.simulate_events(graph)
            assert result.makespan == oracle.makespan
            assert_stats_count_graph(stats, graph)
            if unsafe:
                assert_equals_oracle(result, oracle)
            else:
                assert system.replay(layout).makespan == oracle.makespan

    def test_known_divergent_sub_batch_graph_uses_des(self):
        batch = BatchComposition([SequenceSpec(0, 16, 1, Phase.GENERATION),
                                  SequenceSpec(1, 32, 1, Phase.GENERATION)])
        system, layout = single_batch_layout(make_config(MIXED_CONFIGS["pim-local-sub-batch"]),
                                             batch)
        graph = layout.materialize()
        assert len(sub_batches_of(graph)) == 2
        assert not layout.in_order_exact
        oracle = system.simulate_events(graph)
        # The in-order replay serialises the interleaved sub-batches.
        assert system.replay(layout).makespan > oracle.makespan
        result = system.simulate(layout)
        assert_equals_oracle(result, oracle)
        assert result.num_events == len(graph)

    def test_pool_transfer_graph_is_unsafe(self):
        batch = BatchComposition([SequenceSpec(i, 64, 1, Phase.GENERATION) for i in range(3)])
        system, layout = single_batch_layout(make_config(MIXED_CONFIGS["pim-pool"]), batch)
        graph = layout.materialize()
        assert has_pool_transfer(graph)
        assert not layout.in_order_exact
        assert_equals_oracle(system.simulate(layout), system.simulate_events(graph))

    def test_kv_migrations_in_interleaved_iterations_match(self):
        requests = [Request(request_id=i, input_tokens=64, output_tokens=64) for i in range(4)]
        system, layouts = converted_layouts(
            make_config(MIXED_CONFIGS["small-kv-pim-local-sub-batch"]), requests)
        checked = 0
        for layout, stats in layouts:
            if layout.in_order_exact or not stats.memory_nodes:
                continue
            assert_equals_oracle(system.simulate(layout),
                                 system.simulate_events(layout.materialize()))
            checked += 1
        assert checked, "no interleaved iteration carried a KV migration"

    def test_serving_never_materialises_a_layout(self, monkeypatch):
        def refuse(layout):
            raise AssertionError("the serving path materialised a layout")

        monkeypatch.setattr(IterationLayout, "materialize", refuse)
        _, layouts = converted_layouts(make_config(MIXED_CONFIGS["pim-local-sub-batch"]),
                                       build_requests([(48, 8, 0), (16, 8, 1), (32, 8, 0)]))
        assert any(not layout.in_order_exact for layout, _ in layouts)


class TestValidation:
    def _system(self):
        return SystemSimulator(build_topology(2, 1))

    def test_hand_built_graphs_are_not_flagged(self):
        # Only iteration layouts carry the in-order flag; graphs take the DES.
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0)
        result = self._system().simulate(graph)
        assert len(result.node_timings) == 1

    def test_flagged_cycle_and_missing_dependency_still_raise(self):
        # Hand-built graphs carry no in-order flag; they validate on the DES path.
        cyclic = ExecutionGraph()
        cyclic.add_compute("a", device=1, duration=1.0, deps=[1])
        cyclic.add_compute("b", device=1, duration=1.0, deps=[0])
        missing = ExecutionGraph()
        missing.add_compute("a", device=1, duration=1.0, deps=[-1])
        system = self._system()
        for graph, message in ((cyclic, "cycle"), (missing, "missing node")):
            with pytest.raises(ValueError, match=message):
                system.simulate(graph)

    def test_layout_event_core_reports_a_deadlock(self):
        # Two nodes of one block waiting on each other never become ready.
        block = RecordedBlock()
        block.add(GraphNodeType.COMPUTE, "a", 1, (1,), duration=1.0)
        block.add(GraphNodeType.COMPUTE, "b", 1, (0,), duration=1.0)
        layout = IterationLayout(Segment(RecordedBlock()), [[Segment(block)]],
                                 Segment(RecordedBlock()), num_devices=2)
        with pytest.raises(RuntimeError, match="deadlocked with 2 unfinished nodes"):
            self._system().simulate(layout)

    def test_validate_accepts_acyclic_forward_edges(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0, deps=[2])
        graph.add_compute("b", device=1, duration=1.0)
        graph.add_compute("c", device=1, duration=1.0, deps=[1])
        graph.validate()
        assert [n.name for n in graph.topological_order()] == ["b", "c", "a"]
        assert self._system().simulate(graph).makespan == 3.0

    def test_self_dependency_is_a_cycle(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0, deps=[0])
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()

    def test_block_on_a_device_outside_the_topology_is_rejected_at_record_time(self):
        batch = BatchComposition([SequenceSpec(i, 32, 1, Phase.GENERATION) for i in range(2)])
        sim = LLMServingSim(make_config(SAFE_CONFIGS["pim-local"]))
        partner = sim.topology.pim_partner(sim.topology.compute_groups[0][0])
        del sim.topology.devices[partner]
        with pytest.raises(ValueError, match=f"device {partner}, outside the topology"):
            sim.simulate_single_batch(batch)
