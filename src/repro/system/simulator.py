"""System-level simulator (the ASTRA-sim substitute).

Takes the iteration layout produced by the graph converter (or any
execution graph), the system topology and the network model, and plays the
work forward: every device executes its nodes in dependency order, one at a
time; collectives occupy every participating device; point-to-point and
host transfers occupy the endpoints for the duration computed by the
network model.

Three routes compute the same makespan:

* the **discrete-event simulation** (DES) handles any valid graph.  It
  starts each node as soon as its dependencies and devices allow, so a
  device may run its nodes out of node-id order.  It is the oracle the
  two layout routes are tested against, and the route for hand-built
  graphs.
* the **block replay** visits the nodes of a layout once, in node order,
  without building a graph: a node starts at the latest of its
  dependencies' end times and its devices' free times.  Each recorded
  block's durations are computed once and its nodes replayed once per
  block it stands for.  That is exact only when every device runs its
  nodes in node order under the DES, which the graph converter proves for
  the layouts it flags
  :attr:`~repro.graph.layout.IterationLayout.in_order_exact`.
* the **layout event core** runs every other layout (interleaved
  sub-batches, PIM-pool round trips) with the DES's own rules, also
  without building a graph: each recorded block is compiled once and its
  copies are expanded into flat per-node lists, and the events are plain
  tuples in a heap.

The output is the iteration's end-to-end latency (makespan) plus per-device
utilization and a communication/computation breakdown — the statistics the
LLMServingSim scheduler feeds back into its clock to schedule the next
iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph.execgraph import ExecutionGraph, GraphNode, GraphNodeType, devices_of
from ..graph.layout import IterationLayout, LayoutNode, RecordedBlock, Segment
from .events import EventQueue
from .network import NetworkModel
from .topology import SystemTopology

__all__ = ["NodeTiming", "SystemSimulationResult", "SystemSimulator", "devices_of"]


@dataclass(frozen=True)
class NodeTiming:
    """Start / end time assigned to one graph node during system simulation."""

    node_id: int
    name: str
    node_type: GraphNodeType
    start: float
    end: float
    devices: Tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SystemSimulationResult:
    """Outcome of simulating one execution graph.

    Attributes
    ----------
    makespan:
        End-to-end latency of the graph in seconds.
    compute_time:
        Total device-seconds spent in compute nodes.
    comm_time:
        Total device-seconds spent in communication (collective, P2P) nodes.
    memory_time:
        Total device-seconds spent in host<->device memory transfers.
    device_busy_time:
        Busy seconds per device id.
    node_timings:
        Per-node start/end times in completion order.  Only
        :meth:`SystemSimulator.simulate_events` (hand-built graphs and
        tests) records them; both layout routes leave the list empty.
    num_events:
        Number of discrete events processed: one per node on both event
        paths (the graph DES and the layout event core), ``0`` on the block
        replay.

    ``makespan`` is exact on every route: on a layout flagged
    ``in_order_exact`` the block replay performs the same float additions
    and maxima as the discrete-event simulation of the materialised graph,
    so the two agree bit for bit; its aggregate times (``compute_time``,
    ``comm_time``, ``memory_time``, ``device_busy_time``) agree to rounding,
    because it sums the per-node durations in a different order.  The
    layout event core performs the DES's own operations in the DES's order,
    so every field but ``node_timings`` is equal.
    """

    makespan: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    memory_time: float = 0.0
    device_busy_time: Dict[int, float] = field(default_factory=dict)
    node_timings: List[NodeTiming] = field(default_factory=list)
    num_events: int = 0

    def utilization(self, device_id: int) -> float:
        """Fraction of the makespan a device spent busy."""
        if self.makespan <= 0:
            return 0.0
        return self.device_busy_time.get(device_id, 0.0) / self.makespan

    def mean_utilization(self) -> float:
        """Average utilization across devices that did any work."""
        busy = [t for t in self.device_busy_time.values() if t > 0]
        if not busy or self.makespan <= 0:
            return 0.0
        return sum(busy) / (len(busy) * self.makespan)


# Enum members bound once at import: looking a member up on its class costs
# several times a global lookup, and these comparisons run for every node.
_COMPUTE = GraphNodeType.COMPUTE
_COLLECTIVE = GraphNodeType.COLLECTIVE
_P2P = GraphNodeType.P2P
_MEMORY = GraphNodeType.MEMORY

#: A recorded node compiled for the layout event core: its duration, its
#: devices, its node type and the slots of its dependents in the block.
_Entry = Tuple[float, Tuple[int, ...], GraphNodeType, Tuple[int, ...]]


class SystemSimulator:
    """Timed execution of an :class:`IterationLayout` or an :class:`ExecutionGraph`.

    Parameters
    ----------
    topology:
        The system topology (used for validation and utilization reporting).
    network:
        Timing model for communication nodes.
    """

    def __init__(self, topology: SystemTopology, network: Optional[NetworkModel] = None) -> None:
        self.topology = topology
        self.network = network or NetworkModel()

    # -- public API ----------------------------------------------------------

    def node_duration(self, node: Union[GraphNode, LayoutNode]) -> float:
        """Seconds a node occupies its devices."""
        node_type = node.node_type
        if node_type is _COMPUTE:
            return node.duration
        if node_type is _COLLECTIVE:
            return self.network.allreduce_time(node.comm_bytes, len(node.comm_group))
        if node_type is _P2P:
            if node.metadata.get("pool_transfer"):
                return self.network.pool_transfer_time(node.comm_bytes)
            return self.network.p2p_time(node.comm_bytes)
        if node_type is _MEMORY:
            return self.network.host_transfer_time(node.comm_bytes)
        raise ValueError(f"unknown node type {node_type}")

    def simulate(self, work: Union[IterationLayout, ExecutionGraph]) -> SystemSimulationResult:
        """Run an iteration layout or an execution graph to completion.

        Layouts flagged ``in_order_exact`` go through the block replay
        (:meth:`replay`), every other layout through the layout event core
        (:meth:`simulate_layout`); neither builds a graph.  Hand-built graphs
        go through the discrete-event simulation (:meth:`simulate_events`).
        """
        if isinstance(work, IterationLayout):
            if work.in_order_exact:
                return self.replay(work)
            return self.simulate_layout(work)
        return self.simulate_events(work)

    def replay(self, layout: IterationLayout) -> SystemSimulationResult:
        """One in-order pass over a layout, block copy by block copy.

        Each node starts at the latest of its dependencies' end times and
        its devices' free times (a device is free once the last node it ran
        ended), then runs for its duration.  Dependencies on a block's input
        frontier read the latest end time at that frontier position: taking
        a maximum never rounds, so collapsing a dependency list to it loses
        nothing.  Durations are computed once per recorded node, with the
        same function and inputs as the discrete-event path, and every sum
        adds the same values in the same node order.

        The caller vouches that the layout is ``in_order_exact``; on other
        layouts the makespan may differ from the discrete-event simulation
        of the materialised graph.
        """
        num_devices = layout.num_devices
        device_free = [0.0] * num_devices
        used = [False] * num_devices
        # Busy seconds per device, then the device-seconds of compute,
        # communication and memory transfers.
        sums = [0.0] * (num_devices + 3)

        def run(segment: Segment, frontier: List[float]) -> List[float]:
            devices, steps, adds, carry = self._compile(segment.block, len(frontier),
                                                        num_devices)
            repeats = segment.repeats
            values = [0.0, *frontier, *[device_free[d] for d in devices]]
            for _ in range(repeats):
                ends = values
                for first, rest, duration in steps:
                    start = ends[first]
                    for i in rest:
                        end = ends[i]
                        if end > start:
                            start = end
                    ends.append(start + duration)
                values = [ends[i] for i in carry]
            for i, amounts in adds:
                total = sums[i]
                for _ in range(repeats):
                    for amount in amounts:
                        total += amount
                sums[i] = total
            outputs = len(segment.block.outputs)
            for d, free in zip(devices, values[1 + outputs:]):
                device_free[d] = free
                used[d] = True
            return values[1:1 + outputs]

        layout.fold(run)
        # A device's end times never decrease, so the latest free time is
        # the makespan.
        return SystemSimulationResult(
            makespan=max(device_free, default=0.0), compute_time=sums[num_devices],
            comm_time=sums[num_devices + 1], memory_time=sums[num_devices + 2],
            device_busy_time={d: sums[d] for d in range(num_devices) if used[d]})

    def _compile(self, block: RecordedBlock, width: int, num_devices: int
                 ) -> Tuple[List[int], list, list, List[int]]:
        """Turn a recorded block into the flat lists one block copy replays.

        A copy computes one list of end times: index 0 holds ``0.0``, the
        next ``width`` indices the input frontier, then the free time of
        each device the block uses on entry, then one entry per step.  A
        step ``(first, rest, duration)`` ends at
        ``max(ends[first], ends[rest]...) + duration``.  Nodes with the same
        predecessors and duration end at the same time, so they share one
        step: the shards of a tensor-parallel operator that follow a shared
        input cost one step, not one per device.

        Returns the block's devices; its steps; per index into the
        simulator's sums, the amounts one copy adds to it, in node order;
        and the indices carried into the next copy (``0``, the output
        frontier, the devices' free times), laid out like its input.
        """
        placed = [(node, devices_of(node)) for node in block.nodes]
        devices = list(dict.fromkeys(d for _, node_devices in placed for d in node_devices))
        base = 1 + width + len(devices)
        last = {d: 1 + width + k for k, d in enumerate(devices)}
        steps: List[Tuple[int, Tuple[int, ...], float]] = []
        known: Dict[Tuple[int, Tuple[int, ...], float], int] = {}

        def step(preds: Set[int], duration: float) -> int:
            first, *rest = sorted(preds) or [0]
            key = (first, tuple(rest), duration)
            if key not in known:
                steps.append(key)
                known[key] = base + len(steps) - 1
            return known[key]

        at: List[int] = []  # index of each node's end time
        busy: Dict[int, List[float]] = {d: [] for d in devices}
        compute, comm, memory = [], [], []
        for node, node_devices in placed:
            duration = self.node_duration(node)
            preds = {-slot if slot < 0 else at[slot] for slot in node.deps}
            preds.update([last[d] for d in node_devices])
            end = step(preds, duration)
            at.append(end)
            for d in node_devices:
                last[d] = end
                busy[d].append(duration)
            node_type = node.node_type
            if node_type is _COMPUTE:
                compute.append(duration)
            elif node_type is _MEMORY:
                memory.append(duration)
            else:
                comm.append(duration * len(node_devices))
        adds = [*busy.items(), (num_devices, compute), (num_devices + 1, comm),
                (num_devices + 2, memory)]
        # A repeated block's output frontier is as wide as its input (one
        # position per device of its group), so copies chain.
        carry = [0]
        for slots in block.outputs:
            indices = {-slot if slot < 0 else at[slot] for slot in slots}
            # Several nodes feeding one position: a zero-duration step takes
            # their latest end (x + 0.0 == x for x >= 0).
            carry.append(indices.pop() if len(indices) == 1 else step(indices, 0.0))
        carry.extend(last[d] for d in devices)
        return devices, steps, adds, carry

    def simulate_layout(self, layout: IterationLayout) -> SystemSimulationResult:
        """The discrete-event simulation of a layout, run from its recorded blocks.

        Computes what :meth:`simulate_events` computes on
        ``layout.materialize()``, field for field except ``node_timings``
        (left empty), without building the graph: each recorded block is
        compiled once, and its copies are expanded into flat per-node lists
        by index arithmetic.  The event loop keeps every rule of the graph
        simulation: events ordered by ``(time, sequence)`` with
        ``time = now + duration``; roots made ready in node-id order;
        de-duplicated dependencies; a finished node releases its dependents
        in increasing node id, then its devices in :func:`devices_of` order;
        a freed device goes to its multi-device waiters (re-checking their
        other devices) before its FIFO of single-device nodes; aggregates
        add ``end - start`` in completion order.
        """
        # Per node, in node-id order: its recorded node's compiled entry
        # (duration, devices, kind, dependents inside the block copy), the
        # id of its copy's first node, and its unfinished dependencies.
        entries: List[_Entry] = []
        bases: List[int] = []
        remaining: List[int] = []
        # Per node, its dependents in later block copies.
        later: List[Sequence[int]] = []

        def run(segment: Segment, frontier: List[List[int]]) -> List[List[int]]:
            block_entries, counts, entry_nodes, outputs = self._compile_events(segment.block)
            size = len(block_entries)
            none = [()] * size
            for _ in range(segment.repeats):
                base = len(entries)
                entries.extend(block_entries)
                bases.extend([base] * size)
                remaining.extend(counts)
                later.extend(none)
                for slot, positions in entry_nodes:
                    node = base + slot
                    deps = dict.fromkeys(dep for position in positions
                                         for dep in frontier[position])
                    remaining[node] += len(deps)
                    for dep in deps:
                        if later[dep]:
                            later[dep].append(node)
                        else:
                            later[dep] = [node]
                frontier = [[base + slot for slot in slots]
                            + [dep for position in positions for dep in frontier[position]]
                            for slots, positions in outputs]
            return frontier

        layout.fold(run)
        result = SystemSimulationResult()
        if not entries:
            return result

        num_devices = layout.num_devices
        busy = [False] * num_devices
        # FIFO of ready single-device nodes per busy device.
        queued: List[Deque[int]] = [deque() for _ in range(num_devices)]
        # Ready multi-device nodes: how many of their devices are busy (0 when
        # not waiting), and per device the waiters that include it.
        waiting = [0] * len(entries)
        waiters: List[List[int]] = [[] for _ in range(num_devices)]
        heap: List[Tuple[float, int, int, float]] = []
        sequence = count()
        busy_time = result.device_busy_time
        compute_time = comm_time = memory_time = 0.0
        now = 0.0

        def make_ready(node: int) -> None:
            devices = entries[node][1]
            if len(devices) > 1:
                busy_count = 0
                for d in devices:
                    if busy[d]:
                        busy_count += 1
                if busy_count:
                    waiting[node] = busy_count
                    for d in devices:
                        waiters[d].append(node)
                    return
            elif busy[devices[0]]:
                queued[devices[0]].append(node)
                return
            for d in devices:
                busy[d] = True
            heappush(heap, (now + entries[node][0], next(sequence), node, now))

        def release(device: int) -> None:
            """Hand a freed device to its multi-device waiters, then its FIFO."""
            busy[device] = False
            device_waiters = waiters[device]
            left_waiting = False
            for node in device_waiters:
                busy_count = waiting[node]
                if not busy_count:
                    left_waiting = True
                    continue
                busy_count -= 1
                if not busy_count:
                    # All endpoints reported free; start unless a race
                    # re-occupied one (then it re-enters waiting).
                    devices = entries[node][1]
                    for d in devices:
                        if busy[d]:
                            busy_count += 1
                    if not busy_count:
                        waiting[node] = 0
                        left_waiting = True
                        for d in devices:
                            busy[d] = True
                        heappush(heap, (now + entries[node][0], next(sequence), node, now))
                        continue
                waiting[node] = busy_count
            if left_waiting:
                waiters[device] = [node for node in device_waiters if waiting[node]]
            if not busy[device]:
                ready = queued[device]
                if ready:
                    node = ready.popleft()
                    busy[device] = True
                    heappush(heap, (now + entries[node][0], next(sequence), node, now))

        for node, unfinished in enumerate(remaining):
            if not unfinished:
                make_ready(node)

        events = 0
        while heap:
            now, _, node, start = heappop(heap)
            events += 1
            _, devices, kind, children = entries[node]
            duration = now - start
            for d in devices:
                if d in busy_time:
                    busy_time[d] += duration
                else:
                    busy_time[d] = duration
            if kind is _COMPUTE:
                compute_time += duration
            elif kind is _MEMORY:
                memory_time += duration
            else:
                comm_time += duration * len(devices)
            base = bases[node]
            for child in children:
                child += base
                remaining[child] -= 1
                if not remaining[child]:
                    make_ready(child)
            for child in later[node]:
                remaining[child] -= 1
                if not remaining[child]:
                    make_ready(child)
            for d in devices:
                if waiters[d]:
                    release(d)
                elif queued[d]:
                    # The device passes straight to the next node in its FIFO.
                    child = queued[d].popleft()
                    heappush(heap, (now + entries[child][0], next(sequence), child, now))
                else:
                    busy[d] = False

        if events != len(entries):
            missing = len(entries) - events
            raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
        result.makespan = now
        result.compute_time = compute_time
        result.comm_time = comm_time
        result.memory_time = memory_time
        result.num_events = events
        return result

    def _compile_events(self, block: RecordedBlock
                        ) -> Tuple[List[_Entry], List[int], List[Tuple[int, Tuple[int, ...]]],
                                   List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
        """Turn a recorded block into what :meth:`simulate_layout` expands per copy.

        Returns, per node, its entry ``(duration, devices, node type, slots
        of its dependents in the block)`` and its number of distinct
        dependencies inside the block; the nodes that depend on the input
        frontier, with the frontier positions they read; and per output
        frontier position, its slots in the block and the input positions
        it passes through.
        """
        nodes = block.nodes
        children: List[List[int]] = [[] for _ in nodes]
        counts: List[int] = []
        entry_nodes: List[Tuple[int, Tuple[int, ...]]] = []
        for slot, node in enumerate(nodes):
            inside = set()
            positions = set()
            for dep in node.deps:
                if dep >= 0:
                    inside.add(dep)
                else:
                    positions.add(-1 - dep)
            for dep in sorted(inside):
                children[dep].append(slot)
            counts.append(len(inside))
            if positions:
                entry_nodes.append((slot, tuple(sorted(positions))))
        entries = [(self.node_duration(node), devices_of(node), node.node_type,
                    tuple(node_children))
                   for node, node_children in zip(nodes, children)]
        outputs = [(tuple(slot for slot in slots if slot >= 0),
                    tuple(-1 - slot for slot in slots if slot < 0))
                   for slots in block.outputs]
        return entries, counts, entry_nodes, outputs

    def simulate_events(self, graph: ExecutionGraph,
                        start_time: float = 0.0) -> SystemSimulationResult:
        """Discrete-event simulation of any valid graph (the oracle path).

        Validates the graph first and raises :class:`ValueError` on a missing
        dependency or a cycle.  Records one :class:`NodeTiming` per node,
        offset by ``start_time``.
        """
        graph.validate()
        result = SystemSimulationResult()
        if len(graph) == 0:
            return result

        queue = EventQueue()
        remaining_deps: Dict[int, int] = {}
        dependents: Dict[int, List[int]] = {}
        for node in graph:
            remaining_deps[node.node_id] = len(node.deps)
            for dep in node.deps:
                dependents.setdefault(dep, []).append(node.node_id)

        device_busy: Dict[int, bool] = {}
        # FIFO of ready single-device nodes per busy device.  A deque keeps
        # the pop-from-the-front O(1); with a plain list the per-device
        # queues of a large graph (every node of a pipeline stage lands on
        # one device) turn the simulation O(n^2).
        ready_per_device: Dict[int, Deque[int]] = {}
        # Ready multi-device nodes (collectives, P2P) waiting for endpoints:
        # node id -> number of its devices currently busy.  A reverse index
        # maps each device to the waiting nodes that include it, so finishing
        # a node only touches the waiters of the devices it releases.
        waiting_multi_busy: Dict[int, int] = {}
        multi_waiters_by_device: Dict[int, List[int]] = {}
        finished: Set[int] = set()

        def start_node(node: GraphNode, devices: Tuple[int, ...]) -> None:
            duration = self.node_duration(node)
            start = queue.now
            for d in devices:
                device_busy[d] = True
            queue.schedule_after(duration, lambda n=node, s=start, devs=devices: finish(n, s, devs),
                                 label=node.name)

        def make_ready(node_id: int) -> None:
            node = graph.node(node_id)
            devices = devices_of(node)
            if len(devices) > 1:
                busy_count = sum(1 for d in devices if device_busy.get(d, False))
                if busy_count == 0:
                    start_node(node, devices)
                else:
                    waiting_multi_busy[node_id] = busy_count
                    for d in devices:
                        multi_waiters_by_device.setdefault(d, []).append(node_id)
            else:
                device = devices[0]
                if device_busy.get(device, False):
                    ready_per_device.setdefault(device, deque()).append(node_id)
                else:
                    start_node(node, devices)

        def release_device(device: int) -> None:
            """Hand a freed device to the next waiter (multi-device first)."""
            device_busy[device] = False
            # Multi-device waiters that include this device lose one busy count.
            waiters = multi_waiters_by_device.get(device)
            if waiters:
                still_waiting: List[int] = []
                for node_id in waiters:
                    if node_id not in waiting_multi_busy:
                        continue
                    waiting_multi_busy[node_id] -= 1
                    if waiting_multi_busy[node_id] <= 0:
                        node = graph.node(node_id)
                        devices = devices_of(node)
                        # All endpoints reported free; start unless a race
                        # re-occupied one (then it re-enters waiting).
                        busy_count = sum(1 for d in devices if device_busy.get(d, False))
                        if busy_count == 0:
                            del waiting_multi_busy[node_id]
                            start_node(node, devices)
                            continue
                        waiting_multi_busy[node_id] = busy_count
                    still_waiting.append(node_id)
                multi_waiters_by_device[device] = [n for n in still_waiting
                                                   if n in waiting_multi_busy]
            # Single-device queue of this device.
            if not device_busy.get(device, False):
                ready = ready_per_device.get(device)
                if ready:
                    node_id = ready.popleft()
                    node = graph.node(node_id)
                    start_node(node, devices_of(node))

        def finish(node: GraphNode, start: float, devices: Tuple[int, ...]) -> None:
            end = queue.now
            duration = end - start
            for d in devices:
                result.device_busy_time[d] = result.device_busy_time.get(d, 0.0) + duration
            if node.node_type is _COMPUTE:
                result.compute_time += duration
            elif node.node_type is _MEMORY:
                result.memory_time += duration
            else:
                result.comm_time += duration * len(devices)
            result.node_timings.append(NodeTiming(
                node_id=node.node_id, name=node.name, node_type=node.node_type,
                start=start_time + start, end=start_time + end, devices=devices))
            finished.add(node.node_id)
            for child in dependents.get(node.node_id, ()):  # release dependents
                remaining_deps[child] -= 1
                if remaining_deps[child] == 0:
                    make_ready(child)
            for d in devices:
                release_device(d)

        # Seed: every node with no dependencies is ready at time zero.
        for node in graph:
            if remaining_deps[node.node_id] == 0:
                make_ready(node.node_id)

        result.num_events = queue.run()
        # The nested functions reach one another through their closure
        # cells.  Emptying the cells breaks that reference cycle, so the
        # graph and the simulation state are freed now, not at the next
        # full garbage collection.
        del start_node, make_ready, release_device, finish
        if len(finished) != len(graph):
            missing = len(graph) - len(finished)
            raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
        result.makespan = queue.now
        return result
