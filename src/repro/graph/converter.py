"""Graph converter: engine traces -> device-placed execution graphs.

The converter is the third component of the LLMServingSim workflow
(Figure 4): it takes the per-operator latency trace produced by the
execution engine stack for one representative transformer block, places the
work onto the devices of the system topology according to the configured
parallelism strategy, and inserts the communication operators the strategy
requires.  Every block of a pipeline stage is the same work on the same
devices, so the block is laid out once per stage and repeated across the
stage's blocks in the returned :class:`~repro.graph.layout.IterationLayout`:

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
from typing import Dict, List, Sequence, Tuple

from ..engine.trace import TraceEntry
from ..models.architectures import ModelConfig
from ..scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from ..system.topology import DeviceType, PIMMode, SystemTopology
from .collectives import CollectiveSizing
from .execgraph import GraphNodeType, devices_of
from .layout import IterationLayout, RecordedBlock, Segment, input_slot
from .parallelism import ParallelismPlan

__all__ = ["GraphGranularity", "GraphConverter", "ConversionStats"]

_COMPUTE = GraphNodeType.COMPUTE
_COLLECTIVE = GraphNodeType.COLLECTIVE
_P2P = GraphNodeType.P2P
_MEMORY = GraphNodeType.MEMORY


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

    The counts are those of the materialised graph: each recorded block's
    counts times its repeat count.

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
                total_new_tokens: int = 0) -> IterationLayout:
        """Lay out one iteration.

        Each (sub-batch, stage) block is recorded once and repeated
        ``plan.blocks_for_stage`` times in the returned layout;
        :meth:`IterationLayout.materialize` expands it into the full
        execution graph.  :attr:`stats` counts the nodes of that graph.

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

        Raises
        ------
        ValueError
            If a recorded block places work on a device outside the topology.
        """
        self.stats = ConversionStats()
        sizing = CollectiveSizing(model)
        tp = self.plan.tensor_parallel
        groups = self.topology.compute_groups

        if self.granularity is GraphGranularity.BLOCK:
            sub_batch_block_traces = [self._coarsen(entries) for entries in sub_batch_block_traces]

        # KV-cache migrations execute on the first device of the first group;
        # reloads gate the iteration's compute, evictions merely occupy the link.
        prologue = RecordedBlock()
        reloads: List[int] = []
        for index, event in enumerate(memory_events):
            slot = prologue.add(
                _MEMORY, f"kv_{event.event_type.value}.r{event.request_id}.{index}",
                groups[0][0], comm_bytes=event.num_bytes,
                metadata={"request_id": event.request_id,
                          "direction": "store" if event.event_type is KVMemoryEventType.EVICT
                          else "load"})
            if event.event_type is KVMemoryEventType.RELOAD:
                reloads.append(slot)

        # Embedding on the first stage (sharded across its devices).
        embeds = tuple(
            prologue.add(_COMPUTE, f"{entry.operator.name}.d{device}", device, reloads,
                         duration=entry.latency / tp,
                         metadata={"phase": entry.operator.phase.value})
            for entry in embedding_trace for device in groups[0])
        prologue.outputs = [embeds] * len(groups[0])

        # Per sub-batch chains through every block of every stage.
        chains: List[List[Segment]] = []
        for sub_batch_index, entries in enumerate(sub_batch_block_traces):
            if not entries:
                continue
            tokens = self._sub_batch_tokens(entries, total_new_tokens)
            chain: List[Segment] = []
            for stage_index, group in enumerate(groups):
                if stage_index > 0:
                    # Pipeline hand-off from the previous stage.
                    previous = groups[stage_index - 1]
                    recv = RecordedBlock()
                    slot = recv.add(
                        _P2P, f"sb{sub_batch_index}.stage{stage_index}.recv", previous[0],
                        [input_slot(p) for p in range(len(previous))], peer_device=group[0],
                        comm_bytes=sizing.pipeline_transfer_bytes(tokens),
                        metadata={"sub_batch": sub_batch_index})
                    recv.outputs = [(slot,)] * len(group)
                    chain.append(Segment(recv))
                block_start, block_end = self.plan.blocks_for_stage(stage_index)
                if block_end > block_start:
                    block = self._record_block(entries, model, sizing, tokens,
                                               sub_batch_index, group, tp)
                    chain.append(Segment(block, block_end - block_start,
                                         sub_batch_index, block_start))
            chains.append(chain)

        # LM head on the last stage, after every sub-batch finished.
        head = RecordedBlock()
        last_group = groups[-1]
        tails = [input_slot(p) for p in range(len(last_group) * len(chains))]
        for entry in head_trace:
            for device in last_group:
                head.add(_COMPUTE, f"{entry.operator.name}.d{device}", device, tails,
                         duration=entry.latency / tp,
                         metadata={"phase": entry.operator.phase.value})

        layout = IterationLayout(Segment(prologue), chains, Segment(head),
                                 num_devices=max(self.topology.devices) + 1)
        for segment in layout.segments():
            self._tally(segment)
        # With one sub-batch chain and no pool round trips, every device
        # runs its nodes in node order under the discrete-event simulation,
        # so the system simulator may replay the layout in one in-order pass
        # with the same makespan (the differential tests check this against
        # the discrete-event path).  Interleaved sub-batches and pool
        # transfers reorder a device's work.
        layout.in_order_exact = len(chains) <= 1 and self.stats.pool_transfer_nodes == 0
        return layout

    def _tally(self, segment: Segment) -> None:
        """Add one segment's nodes, times its repeat count, to :attr:`stats`."""
        stats, repeats = self.stats, segment.repeats
        for node in segment.block.nodes:
            node_type = node.node_type
            if node_type is _COMPUTE:
                stats.compute_nodes += repeats
            elif node_type is _COLLECTIVE:
                stats.collective_nodes += repeats
                stats.collective_participants += repeats * len(node.comm_group)
            elif node_type is _P2P:
                stats.p2p_nodes += repeats
                if node.metadata.get("pool_transfer"):
                    stats.pool_transfer_nodes += repeats
            else:
                stats.memory_nodes += repeats

    # -- per-block layout ------------------------------------------------------

    def _record_block(self, entries: Sequence[TraceEntry], model: ModelConfig,
                      sizing: CollectiveSizing, tokens: int, sub_batch_index: int,
                      group: Sequence[int], tp: int) -> RecordedBlock:
        """Lay out one transformer block of one sub-batch onto a device group.

        Raises :class:`ValueError` if the block uses a device outside the
        topology.
        """
        block = RecordedBlock()
        pim_mode = self.topology.pim_mode
        pim_pool = self.topology.pim_pool
        per_block = {"sub_batch": sub_batch_index}
        # The dependency frontier on each device, starting at the input.
        last_on_device: Dict[int, Tuple[int, ...]] = {
            device: (input_slot(position),) for position, device in enumerate(group)}
        pending_attention: List[int] = []
        attention_index = 0
        allreduce_count = 0

        def add_allreduce(deps: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
            nonlocal allreduce_count
            allreduce_count += 1
            slot = block.add(_COLLECTIVE, f"allreduce{allreduce_count}", group[0], deps,
                             comm_bytes=sizing.allreduce_bytes(tokens), comm_group=tuple(group),
                             metadata=per_block, per_block=True)
            return {device: (slot,) for device in group}

        for entry in entries:
            op = entry.operator
            if op.is_attention:
                npu_device = self._attention_device(attention_index, group)
                if entry.engine is DeviceType.PIM and pim_mode is PIMMode.LOCAL:
                    target = self.topology.pim_partner(npu_device) or npu_device
                    pending_attention.append(block.add(
                        _COMPUTE, op.name, target, last_on_device[npu_device],
                        duration=entry.latency, metadata=per_block, per_block=True))
                elif entry.engine is DeviceType.PIM and pim_mode is PIMMode.POOL and pim_pool:
                    pim_device = pim_pool[attention_index % len(pim_pool)]
                    send_bytes = max(1.0, float(op.m * model.hidden_size * model.dtype_bytes))
                    transfer = {"pool_transfer": True, "sub_batch": sub_batch_index}
                    send = block.add(_P2P, f"{op.name}.send", npu_device,
                                     last_on_device[npu_device], peer_device=pim_device,
                                     comm_bytes=send_bytes, metadata=transfer)
                    compute = block.add(_COMPUTE, op.name, pim_device, (send,),
                                        duration=entry.latency, metadata=per_block,
                                        per_block=True)
                    pending_attention.append(block.add(
                        _P2P, f"{op.name}.recv", pim_device, (compute,), peer_device=npu_device,
                        comm_bytes=max(1.0, op.output_bytes), metadata=transfer))
                else:
                    pending_attention.append(block.add(
                        _COMPUTE, op.name, npu_device, last_on_device[npu_device],
                        duration=entry.latency, metadata=per_block, per_block=True))
                attention_index += 1
                continue

            # Batched (non-attention) operator: sharded across the group.
            new_slots: List[int] = []
            for device in group:
                slot = block.add(_COMPUTE, f"{op.name}.d{device}", device,
                                 last_on_device[device] + tuple(pending_attention),
                                 duration=entry.latency / tp, metadata=per_block,
                                 per_block=True)
                new_slots.append(slot)
                last_on_device[device] = (slot,)

            if pending_attention:
                # This is the first batched operator after the attention
                # layers (the output projection): synchronize with a
                # tensor-parallel all-reduce.
                pending_attention = []
                if tp > 1:
                    last_on_device = add_allreduce(new_slots)

        # End-of-block all-reduce after the FFN down projection.
        if tp > 1:
            last_on_device = add_allreduce(
                sorted({slot for slots in last_on_device.values() for slot in slots}))
        block.outputs = [last_on_device[device] for device in group]

        for node in block.nodes:
            for device in devices_of(node):
                if device not in self.topology.devices:
                    raise ValueError(f"node {node.name!r} of the recorded block is placed on "
                                     f"device {device}, outside the topology")
        return block
