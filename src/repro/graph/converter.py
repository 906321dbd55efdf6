"""Graph converter: engine traces -> device-placed execution graphs.

The converter is the third component of the LLMServingSim workflow
(Figure 4): it takes the per-operator latency trace produced by the
execution engine stack for one representative transformer block, replicates
it across every block of the model, places the work onto the devices of the
system topology according to the configured parallelism strategy, and
inserts the communication operators the strategy requires:

* tensor parallelism — each batched operator is sharded across the group and
  two ALL-REDUCE collectives are inserted per block;
* selective batching — per-request attention operators are assigned to
  different devices of the group based on their request identifier;
* pipeline parallelism — consecutive stages are chained with point-to-point
  activation transfers;
* heterogeneous pools — PIM-mapped operators run on PIM devices, with
  inter-pool transfer operators inserted around them when the PIM devices
  form a separate pool;
* KV-cache paging — eviction / reload decisions of the scheduler become
  host<->device memory operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..engine.trace import TraceEntry
from ..models.architectures import ModelConfig
from ..scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from ..system.topology import DeviceType, PIMMode, SystemTopology
from .collectives import CollectiveSizing
from .execgraph import ExecutionGraph
from .parallelism import ParallelismPlan

__all__ = ["GraphGranularity", "GraphConverter", "ConversionStats"]


class GraphGranularity(enum.Enum):
    """Level of detail of the produced execution graph.

    ``OPERATOR`` creates one node per operator per device, the faithful
    setting used for validation experiments.  ``BLOCK`` merges runs of
    consecutive non-attention operators into a single node per device, which
    keeps graphs tractable when sweeping to thousands of devices
    (the Figure 10 scalability experiment).
    """

    OPERATOR = "operator"
    BLOCK = "block"


@dataclass
class ConversionStats:
    """Size statistics of a converted graph (used by simulation-time accounting).

    ``pool_transfer_nodes`` counts the NPU<->PIM pool transfers among the
    ``p2p_nodes``.
    """

    compute_nodes: int = 0
    collective_nodes: int = 0
    collective_participants: int = 0
    p2p_nodes: int = 0
    memory_nodes: int = 0
    pool_transfer_nodes: int = 0

    @property
    def total_nodes(self) -> int:
        return (self.compute_nodes + self.collective_nodes
                + self.p2p_nodes + self.memory_nodes)


class GraphConverter:
    """Builds execution graphs from engine traces.

    Parameters
    ----------
    topology:
        The system topology (devices, groups, PIM provisioning).
    plan:
        The resolved parallelism plan.
    granularity:
        Graph detail level (see :class:`GraphGranularity`).
    """

    def __init__(self, topology: SystemTopology, plan: ParallelismPlan,
                 granularity: GraphGranularity = GraphGranularity.OPERATOR) -> None:
        if plan.pipeline_parallel != topology.num_groups:
            raise ValueError(
                f"parallelism plan expects {plan.pipeline_parallel} pipeline stages but the "
                f"topology has {topology.num_groups} groups")
        if plan.tensor_parallel != topology.tensor_parallel_degree:
            raise ValueError(
                f"parallelism plan expects tensor width {plan.tensor_parallel} but the topology "
                f"groups have {topology.tensor_parallel_degree} devices")
        self.topology = topology
        self.plan = plan
        self.granularity = granularity
        self.stats = ConversionStats()

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _coarsen(entries: Sequence[TraceEntry]) -> List[TraceEntry]:
        """Merge runs of consecutive non-attention entries into single entries."""
        merged: List[TraceEntry] = []
        run: List[TraceEntry] = []

        def flush() -> None:
            if not run:
                return
            first = run[0]
            total_latency = sum(e.latency for e in run)
            merged.append(TraceEntry(
                operator=replace(first.operator, name=first.operator.name + "+fused"),
                engine=first.engine,
                latency=total_latency,
                compute_time=sum(e.compute_time for e in run),
                memory_time=sum(e.memory_time for e in run),
                cached=all(e.cached for e in run),
                sub_batch=first.sub_batch))
            run.clear()

        for entry in entries:
            if entry.operator.is_attention:
                flush()
                merged.append(entry)
            else:
                run.append(entry)
        flush()
        return merged

    def _sub_batch_tokens(self, entries: Sequence[TraceEntry], fallback: int) -> int:
        for entry in entries:
            if not entry.operator.is_attention and entry.operator.m > 0:
                return entry.operator.m
        return fallback

    def _attention_device(self, request_index: int, group: Sequence[int]) -> int:
        """Round-robin assignment of per-request attention to group devices."""
        return group[request_index % len(group)]

    # -- main conversion -----------------------------------------------------

    def convert(self,
                model: ModelConfig,
                sub_batch_block_traces: Sequence[Sequence[TraceEntry]],
                embedding_trace: Sequence[TraceEntry],
                head_trace: Sequence[TraceEntry],
                memory_events: Sequence[KVMemoryEvent] = (),
                total_new_tokens: int = 0) -> ExecutionGraph:
        """Build the execution graph of one iteration.

        Parameters
        ----------
        model:
            The model being served (for communication payload sizing).
        sub_batch_block_traces:
            Per sub-batch trace of the representative transformer block, in
            layer order; replicated across all ``plan.num_blocks`` blocks.
        embedding_trace / head_trace:
            Traces of the embedding and LM-head operators (full batch).
        memory_events:
            KV-cache migrations decided by the scheduler for this iteration.
        total_new_tokens:
            Total tokens processed this iteration (payload fallback).
        """
        self.stats = ConversionStats()
        graph = ExecutionGraph()
        sizing = CollectiveSizing(model)
        tp = self.plan.tensor_parallel
        groups = self.topology.compute_groups
        pim_mode = self.topology.pim_mode
        pim_pool = self.topology.pim_pool

        if self.granularity is GraphGranularity.BLOCK:
            sub_batch_block_traces = [self._coarsen(entries) for entries in sub_batch_block_traces]

        # KV-cache migrations execute on the first device of the first group;
        # reloads gate the iteration's compute, evictions merely occupy the link.
        memory_node_ids: List[int] = []
        reload_node_ids: List[int] = []
        for index, event in enumerate(memory_events):
            node = graph.add_memory(
                name=f"kv_{event.event_type.value}.r{event.request_id}.{index}",
                device=groups[0][0], comm_bytes=event.num_bytes,
                direction="store" if event.event_type is KVMemoryEventType.EVICT else "load",
                request_id=event.request_id)
            memory_node_ids.append(node.node_id)
            if event.event_type is KVMemoryEventType.RELOAD:
                reload_node_ids.append(node.node_id)
            self.stats.memory_nodes += 1

        # Embedding on the first stage (sharded across its devices).
        embed_ids: List[int] = []
        for entry in embedding_trace:
            for device in groups[0]:
                node = graph.add_compute(
                    name=f"{entry.operator.name}.d{device}", device=device,
                    duration=entry.latency / tp, deps=reload_node_ids,
                    phase=entry.operator.phase.value)
                embed_ids.append(node.node_id)
                self.stats.compute_nodes += 1

        # Per sub-batch chains through every block of every stage.
        final_node_ids: List[int] = []
        converted_sub_batches = 0
        for sub_batch_index, entries in enumerate(sub_batch_block_traces):
            if not entries:
                continue
            converted_sub_batches += 1
            tokens = self._sub_batch_tokens(entries, total_new_tokens)
            # The dependency frontier of this sub-batch on each device.
            last_on_device: Dict[int, List[int]] = {d: list(embed_ids) for d in groups[0]}
            prev_stage_tail: List[int] = []

            for stage_index, group in enumerate(groups):
                block_start, block_end = self.plan.blocks_for_stage(stage_index)
                if stage_index > 0:
                    # Pipeline hand-off from the previous stage.
                    p2p = graph.add_p2p(
                        name=f"sb{sub_batch_index}.stage{stage_index}.recv",
                        src=groups[stage_index - 1][0], dst=group[0],
                        comm_bytes=sizing.pipeline_transfer_bytes(tokens),
                        deps=prev_stage_tail, sub_batch=sub_batch_index)
                    self.stats.p2p_nodes += 1
                    last_on_device = {d: [p2p.node_id] for d in group}

                for block in range(block_start, block_end):
                    last_on_device = self._convert_block(
                        graph, entries, model, sizing, tokens, sub_batch_index, block,
                        group, tp, pim_mode, pim_pool, last_on_device)

                prev_stage_tail = sorted({nid for ids in last_on_device.values() for nid in ids})

            final_node_ids.extend(prev_stage_tail)

        # LM head on the last stage, after every sub-batch finished.
        last_group = groups[-1]
        for entry in head_trace:
            for device in last_group:
                node = graph.add_compute(
                    name=f"{entry.operator.name}.d{device}", device=device,
                    duration=entry.latency / tp, deps=final_node_ids,
                    phase=entry.operator.phase.value)
                self.stats.compute_nodes += 1

        # With one sub-batch chain and no pool round trips, every device
        # runs its nodes in node-id order under the discrete-event
        # simulation, so the system simulator may evaluate the graph in one
        # in-order pass with the same makespan (the differential tests check
        # this against the discrete-event path).  Interleaved sub-batches
        # and pool transfers reorder a device's work.
        graph.in_order_exact = (converted_sub_batches <= 1
                                and self.stats.pool_transfer_nodes == 0)
        return graph

    # -- per-block conversion --------------------------------------------------

    def _convert_block(self, graph: ExecutionGraph, entries: Sequence[TraceEntry],
                       model: ModelConfig, sizing: CollectiveSizing, tokens: int,
                       sub_batch_index: int, block: int, group: Sequence[int], tp: int,
                       pim_mode: PIMMode, pim_pool: Sequence[int],
                       last_on_device: Dict[int, List[int]]) -> Dict[int, List[int]]:
        """Lay out one transformer block of one sub-batch onto a device group."""
        pending_attention: List[int] = []
        attention_index = 0
        allreduce_count = 0
        prefix = f"sb{sub_batch_index}.b{block}"

        def add_allreduce(deps: List[int], label: str) -> int:
            node = graph.add_collective(
                name=f"{prefix}.allreduce{label}", devices=list(group),
                comm_bytes=sizing.allreduce_bytes(tokens), deps=deps,
                sub_batch=sub_batch_index, block=block)
            self.stats.collective_nodes += 1
            self.stats.collective_participants += len(group)
            return node.node_id

        for entry in entries:
            op = entry.operator
            if op.is_attention:
                npu_device = self._attention_device(attention_index, group)
                if entry.engine is DeviceType.PIM and pim_mode is PIMMode.LOCAL:
                    target = self.topology.pim_partner(npu_device) or npu_device
                    deps = last_on_device[npu_device]
                    node = graph.add_compute(
                        name=f"{prefix}.{op.name}", device=target, duration=entry.latency,
                        deps=deps, sub_batch=sub_batch_index, block=block)
                    self.stats.compute_nodes += 1
                    pending_attention.append(node.node_id)
                elif entry.engine is DeviceType.PIM and pim_mode is PIMMode.POOL and pim_pool:
                    pim_device = pim_pool[attention_index % len(pim_pool)]
                    send_bytes = max(1.0, float(op.m * model.hidden_size * model.dtype_bytes))
                    send = graph.add_p2p(
                        name=f"{prefix}.{op.name}.send", src=npu_device, dst=pim_device,
                        comm_bytes=send_bytes, deps=last_on_device[npu_device],
                        pool_transfer=True, sub_batch=sub_batch_index)
                    compute = graph.add_compute(
                        name=f"{prefix}.{op.name}", device=pim_device, duration=entry.latency,
                        deps=[send.node_id], sub_batch=sub_batch_index, block=block)
                    recv = graph.add_p2p(
                        name=f"{prefix}.{op.name}.recv", src=pim_device, dst=npu_device,
                        comm_bytes=max(1.0, op.output_bytes), deps=[compute.node_id],
                        pool_transfer=True, sub_batch=sub_batch_index)
                    self.stats.p2p_nodes += 2
                    self.stats.pool_transfer_nodes += 2
                    self.stats.compute_nodes += 1
                    pending_attention.append(recv.node_id)
                else:
                    deps = last_on_device[npu_device]
                    node = graph.add_compute(
                        name=f"{prefix}.{op.name}", device=npu_device, duration=entry.latency,
                        deps=deps, sub_batch=sub_batch_index, block=block)
                    self.stats.compute_nodes += 1
                    pending_attention.append(node.node_id)
                attention_index += 1
                continue

            # Batched (non-attention) operator: sharded across the group.
            new_ids: List[int] = []
            for device in group:
                deps = list(last_on_device[device])
                if pending_attention:
                    deps.extend(pending_attention)
                node = graph.add_compute(
                    name=f"{prefix}.{op.name}.d{device}", device=device,
                    duration=entry.latency / tp, deps=deps,
                    sub_batch=sub_batch_index, block=block)
                self.stats.compute_nodes += 1
                new_ids.append(node.node_id)
                last_on_device[device] = [node.node_id]

            if pending_attention:
                # This is the first batched operator after the attention
                # layers (the output projection): synchronize with a
                # tensor-parallel all-reduce.
                pending_attention = []
                if tp > 1:
                    allreduce_count += 1
                    ar = add_allreduce(new_ids, str(allreduce_count))
                    last_on_device = {d: [ar] for d in group}

        # End-of-block all-reduce after the FFN down projection.
        if tp > 1:
            tail = sorted({nid for ids in last_on_device.values() for nid in ids})
            allreduce_count += 1
            ar = add_allreduce(tail, str(allreduce_count))
            last_on_device = {d: [ar] for d in group}
        return last_on_device
