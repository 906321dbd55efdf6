"""Graph substrate: execution graphs, iteration layouts, parallelism and the graph converter."""

from .collectives import CollectiveSizing
from .converter import ConversionStats, GraphConverter, GraphGranularity
from .execgraph import ExecutionGraph, GraphNode, GraphNodeType, devices_of
from .layout import IterationLayout, LayoutNode, RecordedBlock, Segment
from .parallelism import ParallelismPlan, ParallelismStrategy, make_plan

__all__ = [
    "CollectiveSizing",
    "ConversionStats", "GraphConverter", "GraphGranularity",
    "ExecutionGraph", "GraphNode", "GraphNodeType", "devices_of",
    "IterationLayout", "LayoutNode", "RecordedBlock", "Segment",
    "ParallelismPlan", "ParallelismStrategy", "make_plan",
]
