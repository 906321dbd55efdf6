"""System-level simulator (the ASTRA-sim substitute).

Takes the execution graph produced by the graph converter, the system
topology and the network model, and plays the graph forward: every device
executes its nodes in dependency order, one at a time; collectives occupy
every participating device; point-to-point and host transfers occupy the
endpoints for the duration computed by the network model.

Two paths compute the same makespan:

* the **discrete-event simulation** (DES) handles any valid graph.  It
  starts each node as soon as its dependencies and devices allow, so a
  device may run its nodes out of node-id order.
* the **in-order evaluator** visits the nodes once, in node-id order: a node
  starts at the latest of its dependencies' end times and its devices' free
  times.  That is exact only when every device runs its nodes in node-id
  order under the DES, which the graph converter proves for the graphs it
  flags :attr:`~repro.graph.execgraph.ExecutionGraph.in_order_exact`.
  Every other graph takes the DES, which stays the oracle the evaluator is
  tested against.

The output is the iteration's end-to-end latency (makespan) plus per-device
utilization and a communication/computation breakdown — the statistics the
LLMServingSim scheduler feeds back into its clock to schedule the next
iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..graph.execgraph import ExecutionGraph, GraphNode, GraphNodeType
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
        Per-node start/end times in completion order.  Only the
        discrete-event path records them; results of the in-order evaluator
        leave the list empty.
    num_events:
        Number of discrete events processed (``0`` on the in-order path).

    ``makespan`` is exact on both paths: on a graph flagged
    ``in_order_exact`` the in-order evaluator performs the same float
    additions and maxima as the discrete-event simulation, so the two agree
    bit for bit.  The aggregate times (``compute_time``, ``comm_time``,
    ``memory_time``, ``device_busy_time``) agree to rounding, because the
    paths sum the per-node durations in different orders.
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


def devices_of(node: GraphNode) -> Tuple[int, ...]:
    """Devices a node occupies while it runs."""
    node_type = node.node_type
    if node_type is _COLLECTIVE:
        return tuple(node.comm_group)
    if node_type is _P2P and node.peer_device is not None:
        return (node.device, node.peer_device)
    return (node.device,)


class SystemSimulator:
    """Timed execution of an :class:`ExecutionGraph`.

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

    def node_duration(self, node: GraphNode) -> float:
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

    def simulate(self, graph: ExecutionGraph, start_time: float = 0.0) -> SystemSimulationResult:
        """Run the graph to completion and return timing statistics.

        Graphs flagged ``in_order_exact`` go through the in-order evaluator;
        all others, and flagged graphs the evaluator rejects, through the
        discrete-event simulation.  ``start_time`` offsets the node timings
        the discrete-event path records (the serving scheduler passes its
        current clock so they are absolute).
        """
        if graph.in_order_exact:
            result = self.evaluate_in_order(graph)
            if result is not None:
                return result
        return self.simulate_events(graph, start_time)

    def evaluate_in_order(self, graph: ExecutionGraph) -> Optional[SystemSimulationResult]:
        """One pass over the nodes in node-id order; ``None`` if the graph does not allow it.

        The pass needs node ids ``0..n-1`` in insertion order, every
        dependency pointing at a lower id and every device in this
        simulator's topology.  The dependency rule alone proves referential
        integrity and acyclicity (what :meth:`ExecutionGraph.validate`
        checks), so a graph that passes needs no topological sort.  Any
        other graph returns ``None`` for the discrete-event path to validate
        and report.

        The caller vouches that the graph is ``in_order_exact``; on other
        graphs the makespan may differ from :meth:`simulate_events`.
        """
        node_duration = self.node_duration
        ends: List[float] = []
        # Per-device state in lists indexed by device id (cheaper than dict
        # lookups); a free time of -1.0 marks a device that ran nothing.
        num_devices = max(self.topology.devices, default=0) + 1
        device_free = [-1.0] * num_devices
        busy_time = [0.0] * num_devices
        compute_time = comm_time = memory_time = 0.0
        try:
            for index, node in enumerate(graph):
                if node.node_id != index:
                    return None
                start = 0.0
                for dep in node.deps:
                    if not 0 <= dep < index:
                        return None
                    end = ends[dep]
                    if end > start:
                        start = end
                devices = devices_of(node)
                for d in devices:
                    free = device_free[d]
                    if free > start:
                        start = free
                duration = node_duration(node)
                end = start + duration
                ends.append(end)
                for d in devices:
                    device_free[d] = end
                    busy_time[d] += duration
                node_type = node.node_type
                if node_type is _COMPUTE:
                    compute_time += duration
                elif node_type is _MEMORY:
                    memory_time += duration
                else:
                    comm_time += duration * len(devices)
        except IndexError:  # a device outside this simulator's topology
            return None
        return SystemSimulationResult(
            makespan=max(ends, default=0.0), compute_time=compute_time,
            comm_time=comm_time, memory_time=memory_time,
            device_busy_time={d: busy for d, busy in enumerate(busy_time)
                              if device_free[d] >= 0.0})

    def simulate_events(self, graph: ExecutionGraph,
                        start_time: float = 0.0) -> SystemSimulationResult:
        """Discrete-event simulation of any valid graph (the oracle path).

        Validates the graph first and raises :class:`ValueError` on a missing
        dependency or a cycle.
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
        if len(finished) != len(graph):
            missing = len(graph) - len(finished)
            raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
        result.makespan = queue.now
        return result
