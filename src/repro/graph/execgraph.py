"""Execution graph representation (the Chakra-graph substitute).

The graph converter lowers hardware-simulation traces into an execution
graph whose nodes are compute intervals, collective communications,
point-to-point transfers and host<->device memory movements, each placed on
a specific device of the system topology.  The system simulator
(:mod:`repro.system.simulator`) plays this graph forward with a
discrete-event engine to produce the iteration's end-to-end latency.  The
graph converter produces an :class:`~repro.graph.layout.IterationLayout`,
which the system simulator runs without building a graph; the layout
materialises into an :class:`ExecutionGraph` for inspection and for the
discrete-event oracle.

The representation intentionally mirrors Chakra execution traces: nodes have
explicit data dependencies and a device placement, and communication nodes
carry byte counts rather than durations (the network model assigns their
timing during system simulation).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["GraphNodeType", "GraphNode", "ExecutionGraph", "devices_of"]


class GraphNodeType(enum.Enum):
    """Kind of work a graph node represents."""

    COMPUTE = "compute"          # fixed-duration compute on one device
    COLLECTIVE = "collective"    # all-reduce / all-gather across a device group
    P2P = "p2p"                  # point-to-point activation transfer
    MEMORY = "memory"            # host<->device KV-page transfer


@dataclass
class GraphNode:
    """One node of the execution graph.

    Attributes
    ----------
    node_id:
        Unique integer id within the graph.
    name:
        Human-readable label (operator name, collective name, ...).
    node_type:
        The :class:`GraphNodeType`.
    device:
        Id of the device executing the node.  For collectives this is the
        device *initiating* the collective; the participating group is given
        by ``comm_group``.
    duration:
        Pre-computed execution time in seconds for COMPUTE nodes (assigned by
        the execution engine stack).  Zero for communication nodes, whose
        timing is derived from ``comm_bytes`` by the network model.
    comm_bytes:
        Payload size for COLLECTIVE / P2P / MEMORY nodes.
    comm_group:
        Devices participating in a collective.
    peer_device:
        Destination device for P2P nodes (source is ``device``).
    deps:
        Ids of nodes that must complete before this node may start.
    metadata:
        Free-form annotations (phase, block index, request id, ...).
    """

    node_id: int
    name: str
    node_type: GraphNodeType
    device: int
    duration: float = 0.0
    comm_bytes: float = 0.0
    comm_group: Sequence[int] = field(default_factory=tuple)
    peer_device: Optional[int] = None
    deps: Set[int] = field(default_factory=set)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.comm_bytes < 0:
            raise ValueError("comm_bytes must be non-negative")
        if not isinstance(self.deps, set):
            self.deps = set(self.deps)
        self.comm_group = tuple(self.comm_group)


# Enum members bound once at import: looking a member up on its class costs
# several times a global lookup, and this runs for every node simulated.
_COLLECTIVE = GraphNodeType.COLLECTIVE
_P2P = GraphNodeType.P2P


def devices_of(node) -> Tuple[int, ...]:
    """Devices a node occupies while it runs.

    Accepts a :class:`GraphNode` or a recorded
    :class:`~repro.graph.layout.LayoutNode` (they share the placement fields).
    """
    node_type = node.node_type
    if node_type is _COLLECTIVE:
        return tuple(node.comm_group)
    if node_type is _P2P and node.peer_device is not None:
        return (node.device, node.peer_device)
    return (node.device,)


class ExecutionGraph:
    """A DAG of :class:`GraphNode` objects with device placement.

    The graph owns node-id allocation; use :meth:`add_compute`,
    :meth:`add_collective`, :meth:`add_p2p` and :meth:`add_memory` to build
    it incrementally.  Each copies its ``deps`` and ``metadata`` arguments
    once; :meth:`append` takes ownership of them instead.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, GraphNode] = {}
        self._next_id = 0

    # -- construction -------------------------------------------------------

    def append(self, node_type: GraphNodeType, name: str, device: int, deps: Set[int],
               metadata: Dict[str, object], duration: float = 0.0, comm_bytes: float = 0.0,
               comm_group: Sequence[int] = (), peer_device: Optional[int] = None) -> GraphNode:
        """Add a node with the next id, keeping ``deps`` and ``metadata`` as given (no copy)."""
        node_id = self._next_id
        self._next_id += 1
        node = GraphNode(node_id=node_id, name=name, node_type=node_type, device=device,
                         duration=duration, comm_bytes=comm_bytes, comm_group=comm_group,
                         peer_device=peer_device, deps=deps, metadata=metadata)
        self._nodes[node_id] = node
        return node

    def add_compute(self, name: str, device: int, duration: float,
                    deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a fixed-duration compute node."""
        return self.append(GraphNodeType.COMPUTE, name, device, set(deps), metadata,
                           duration=duration)

    def add_collective(self, name: str, devices: Sequence[int], comm_bytes: float,
                       deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a collective (all-reduce style) communication across devices."""
        devices = tuple(devices)
        if not devices:
            raise ValueError("a collective needs at least one participating device")
        return self.append(GraphNodeType.COLLECTIVE, name, devices[0], set(deps), metadata,
                           comm_bytes=comm_bytes, comm_group=devices)

    def add_p2p(self, name: str, src: int, dst: int, comm_bytes: float,
                deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a point-to-point transfer from ``src`` to ``dst``."""
        return self.append(GraphNodeType.P2P, name, src, set(deps), metadata,
                           comm_bytes=comm_bytes, peer_device=dst)

    def add_memory(self, name: str, device: int, comm_bytes: float, direction: str,
                   deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a host<->device memory transfer (KV-page eviction or reload).

        ``direction`` is ``"store"`` (device to host) or ``"load"`` (host to
        device).
        """
        if direction not in ("store", "load"):
            raise ValueError("direction must be 'store' or 'load'")
        metadata["direction"] = direction
        return self.append(GraphNodeType.MEMORY, name, device, set(deps), metadata,
                           comm_bytes=comm_bytes)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def node(self, node_id: int) -> GraphNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> List[GraphNode]:
        return list(self._nodes.values())

    def nodes_on_device(self, device: int) -> List[GraphNode]:
        return [n for n in self._nodes.values() if n.device == device]

    def devices(self) -> Set[int]:
        """All devices referenced by the graph."""
        devices: Set[int] = set()
        for node in self._nodes.values():
            devices.add(node.device)
            devices.update(node.comm_group)
            if node.peer_device is not None:
                devices.add(node.peer_device)
        return devices

    def validate(self) -> None:
        """Check referential integrity and acyclicity.

        A graph whose every dependency points at a lower node id is acyclic
        by construction, so the topological sort runs only when some edge
        points forward.

        Raises
        ------
        ValueError
            If a dependency points at a missing node or the graph has a cycle.
        """
        forward_edge = False
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise ValueError(f"node {node.node_id} depends on missing node {dep}")
                if dep >= node.node_id:
                    forward_edge = True
        if forward_edge:
            self.topological_order()  # raises on cycles

    def topological_order(self) -> List[GraphNode]:
        """Nodes in dependency order (Kahn's algorithm).

        Raises
        ------
        ValueError
            If the graph contains a cycle.
        """
        in_degree = {nid: len(n.deps) for nid, n in self._nodes.items()}
        dependents: Dict[int, List[int]] = {nid: [] for nid in self._nodes}
        for node in self._nodes.values():
            for dep in node.deps:
                if dep in dependents:
                    dependents[dep].append(node.node_id)

        ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
        order: List[GraphNode] = []
        queue = deque(ready)
        while queue:
            nid = queue.popleft()
            order.append(self._nodes[nid])
            for child in dependents[nid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._nodes):
            raise ValueError("execution graph contains a cycle")
        return order

    @property
    def total_compute_time(self) -> float:
        """Sum of all compute-node durations (serial execution upper bound)."""
        return sum(n.duration for n in self._nodes.values()
                   if n.node_type is GraphNodeType.COMPUTE)

    @property
    def total_comm_bytes(self) -> float:
        """Sum of all communication payloads."""
        return sum(n.comm_bytes for n in self._nodes.values()
                   if n.node_type is not GraphNodeType.COMPUTE)

    def critical_path_compute_time(self) -> float:
        """Longest chain of compute durations ignoring communication costs.

        A cheap lower bound on iteration latency, used by tests and by the
        operator scheduler's heuristics.
        """
        finish: Dict[int, float] = {}
        for node in self.topological_order():
            start = max((finish[d] for d in node.deps), default=0.0)
            finish[node.node_id] = start + node.duration
        return max(finish.values(), default=0.0)
