"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see the benchmark index in docs/architecture.md).  The experiments are
scaled down from the paper's exact workload sizes so the whole suite runs on
a laptop in minutes — each benchmark's docstring records both the paper's
parameters and the ones used here.
"""

from __future__ import annotations

import pytest

from repro.models import BatchComposition, Phase, SequenceSpec


def make_uniform_batch(batch_size: int, seq_len: int, phase: Phase = Phase.INITIATION) -> BatchComposition:
    """A batch of ``batch_size`` identical sequences (the Figures 8-10 input)."""
    if phase is Phase.INITIATION:
        seqs = [SequenceSpec(i, 0, seq_len, phase) for i in range(batch_size)]
    else:
        seqs = [SequenceSpec(i, seq_len, 1, phase) for i in range(batch_size)]
    return BatchComposition(seqs)


@pytest.fixture
def uniform_batch_factory():
    return make_uniform_batch


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    The experiments here are deterministic end-to-end simulations, so there
    is no value in repeating them for statistical timing; a single round
    keeps the suite fast while still recording wall-clock time.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
