"""Golden structure test of the execution graphs the converter materialises.

The discrete-event simulation, the ``NodeTiming`` names it records and the
tests that inspect converter output all read the materialised
:class:`~repro.graph.ExecutionGraph`.  The digests below were taken from the
graphs the converter built when it still laid out every block of every
stage node by node; the materialised layouts must hash the same, node for
node.
"""

import hashlib

import pytest

from repro import ServingSimConfig
from repro.core.simulator import LLMServingSim
from repro.graph import GraphGranularity
from repro.models import BatchComposition, Phase, SequenceSpec
from repro.scheduler.batch import IterationPlan
from repro.scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType


def graph_digest(graph) -> str:
    """SHA-256 over every node's id, name, type, placement, deps, timing inputs and metadata."""
    digest = hashlib.sha256()
    for node in graph:
        fields = (node.node_id, node.name, node.node_type.value, node.device,
                  tuple(node.comm_group), node.peer_device, tuple(sorted(node.deps)),
                  repr(node.duration), repr(node.comm_bytes),
                  tuple(sorted((key, repr(value)) for key, value in node.metadata.items())))
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def mixed_batch():
    return BatchComposition([SequenceSpec(0, 0, 24, Phase.INITIATION),
                             SequenceSpec(1, 40, 1, Phase.GENERATION),
                             SequenceSpec(2, 96, 1, Phase.GENERATION)])


def generation_batch(n=3):
    return BatchComposition([SequenceSpec(i, 32 + 16 * i, 1, Phase.GENERATION)
                             for i in range(n)])


EVICT_AND_RELOAD = [KVMemoryEvent(KVMemoryEventType.EVICT, request_id=3, num_bytes=1.5e6),
                    KVMemoryEvent(KVMemoryEventType.RELOAD, request_id=1, num_bytes=2.5e6),
                    KVMemoryEvent(KVMemoryEventType.RELOAD, request_id=2, num_bytes=4096.0)]

#: name -> (config overrides, batch, memory events, digest of the converted graph)
CASES = {
    "tp2-pp2-evict-reload": (
        dict(npu_num=4, npu_group=2), mixed_batch(), EVICT_AND_RELOAD,
        "e401f0c041bd72e1dba60cf98c95950514591b6188f726529428dd3d928035e9"),
    "pim-pool": (
        dict(npu_num=2, pim_type="pool"), generation_batch(), [],
        "4b1e0dab543ff91b457f6bd2b366a9a0cb7744e9aeab8829eba22d7430468b50"),
    "pim-local-two-sub-batches": (
        dict(npu_num=2, pim_type="local", sub_batch=True), generation_batch(4), [],
        "0500165162bf94c725b75b66b3f7dc6ded6f86d2ee45572ed77e4d5605d1e3df"),
    "block-granularity": (
        dict(npu_num=2, graph_granularity=GraphGranularity.BLOCK), mixed_batch(), [],
        "37a9bc3b02c45079be405a7ab9c4981bb8fefcd742a15673325e2f2caed67bfe"),
}


def converted_graph(overrides, batch, memory_events):
    """The execution graph the converter produces for one iteration of ``batch``."""
    sim = LLMServingSim(ServingSimConfig(model_name="gpt2", npu_mem_gb=4.0, **overrides))
    layouts = []
    convert = sim.converter.convert

    def capture(*args, **kwargs):
        layouts.append(convert(*args, **kwargs))
        return layouts[-1]

    sim.converter.convert = capture
    sim.simulate_iteration_latency(IterationPlan(iteration_index=0, scheduled_at=0.0,
                                                 batch=batch, memory_events=memory_events))
    assert len(layouts) == 1
    return layouts[0].materialize()


@pytest.mark.parametrize("name", sorted(CASES))
def test_materialised_graph_matches_golden_digest(name):
    overrides, batch, memory_events, expected = CASES[name]
    assert graph_digest(converted_graph(overrides, batch, memory_events)) == expected
