"""Iteration layouts: every transformer block recorded once per pipeline stage.

Every transformer block of a pipeline stage runs the same operators on the
same devices; only the node ids, names and block indices differ.  The graph
converter therefore lays out one block per (sub-batch, stage) and records it
as a :class:`RecordedBlock`, a compact template whose dependencies are
*slots* rather than node ids.  An :class:`IterationLayout` strings the
recorded blocks together with their repeat counts, in node order:

* the prologue (KV-cache memory transfers and the embedding);
* per sub-batch, per pipeline stage: the activation receive from the
  previous stage, then the stage's recorded block and its repeat count;
* the LM head.

The system simulator runs a layout from its recorded blocks without
building any graph object: block by block when the layout is
in-order-exact, through its event core otherwise.
:meth:`IterationLayout.materialize` expands a layout into the full
:class:`~repro.graph.execgraph.ExecutionGraph` for inspection and for the
discrete-event simulation the system simulator is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Callable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    TypeVar)

from .execgraph import ExecutionGraph, GraphNodeType

__all__ = ["LayoutNode", "RecordedBlock", "Segment", "IterationLayout"]

T = TypeVar("T")


class LayoutNode(NamedTuple):
    """One node of a recorded block.

    The placement and timing fields mean what they mean on
    :class:`~repro.graph.execgraph.GraphNode`.  ``deps`` holds slots: a slot
    ``s >= 0`` is node ``s`` of the same block copy, a slot ``s < 0`` is the
    block's input frontier at position ``-s - 1``.  Inside a repeated block
    ``name`` is the suffix after the ``sb<sub-batch>.b<block>.`` prefix, and
    ``per_block`` nodes also carry the block index in their metadata.
    """

    node_type: GraphNodeType
    name: str
    device: int
    deps: Tuple[int, ...]
    duration: float = 0.0
    comm_bytes: float = 0.0
    comm_group: Tuple[int, ...] = ()
    peer_device: Optional[int] = None
    metadata: Mapping[str, object] = MappingProxyType({})
    per_block: bool = False


def input_slot(position: int) -> int:
    """The slot naming position ``position`` of a block's input frontier."""
    return -1 - position


@dataclass
class RecordedBlock:
    """A template of nodes, wired to its input frontier through slots.

    ``outputs`` is the block's output frontier: for each position, the slots
    the next block's nodes at that position depend on.
    """

    nodes: List[LayoutNode] = field(default_factory=list)
    outputs: List[Tuple[int, ...]] = field(default_factory=list)

    def add(self, node_type: GraphNodeType, name: str, device: int, deps: Sequence[int] = (),
            **fields: object) -> int:
        """Append a node; return its slot."""
        self.nodes.append(LayoutNode(node_type, name, device, tuple(deps), **fields))
        return len(self.nodes) - 1


class Segment(NamedTuple):
    """A recorded block and how often it runs back to back.

    Copy ``r`` of a segment with ``first_block`` set is transformer block
    ``first_block + r`` of sub-batch ``sub_batch``; segments without it
    (prologue, pipeline receives, LM head) run once under their own names.
    """

    block: RecordedBlock
    repeats: int = 1
    sub_batch: int = 0
    first_block: Optional[int] = None


@dataclass
class IterationLayout:
    """The graph converter's output for one iteration.

    Attributes
    ----------
    prologue:
        KV-cache memory transfers and the embedding; its output frontier
        feeds the first segment of every chain.
    chains:
        One list of segments per converted sub-batch.
    head:
        The LM head; its input frontier is every chain's output, in order.
    num_devices:
        One more than the largest device id of the converter's topology.
    in_order_exact:
        Set by the graph converter when every device runs its nodes in node
        order under the discrete-event simulation, so the system simulator
        may replay the layout in one in-order pass with the same makespan:
        one sub-batch without PIM-pool transfers.
    """

    prologue: Segment
    chains: List[List[Segment]]
    head: Segment
    num_devices: int
    in_order_exact: bool = False

    def segments(self) -> Iterator[Segment]:
        """Every segment in node order."""
        yield self.prologue
        for chain in self.chains:
            yield from chain
        yield self.head

    def fold(self, run: Callable[[Segment, List[T]], List[T]]) -> None:
        """Thread frontiers through every segment in node order.

        ``run(segment, input frontier)`` returns the segment's output frontier.
        """
        entry = run(self.prologue, [])
        tails: List[T] = []
        for chain in self.chains:
            frontier = entry
            for segment in chain:
                frontier = run(segment, frontier)
            tails.extend(frontier)
        run(self.head, tails)

    def materialize(self) -> ExecutionGraph:
        """Expand every recorded block copy into an :class:`ExecutionGraph`."""
        graph = ExecutionGraph()
        append = graph.append

        def ids(slots: Tuple[int, ...], base: int, frontier: List[List[int]]) -> List[int]:
            result: List[int] = []
            for slot in slots:
                if slot >= 0:
                    result.append(base + slot)
                else:
                    result.extend(frontier[-1 - slot])
            return result

        def run(segment: Segment, frontier: List[List[int]]) -> List[List[int]]:
            block = segment.block
            for copy in range(segment.repeats):
                base = len(graph)
                if segment.first_block is None:
                    prefix, block_index = "", None
                else:
                    block_index = segment.first_block + copy
                    prefix = f"sb{segment.sub_batch}.b{block_index}."
                for node in block.nodes:
                    metadata = dict(node.metadata)
                    if node.per_block:
                        metadata["block"] = block_index
                    append(node.node_type, prefix + node.name, node.device,
                           set(ids(node.deps, base, frontier)), metadata,
                           duration=node.duration, comm_bytes=node.comm_bytes,
                           comm_group=node.comm_group, peer_device=node.peer_device)
                frontier = [ids(slots, base, frontier) for slots in block.outputs]
            return frontier

        self.fold(run)
        return graph
