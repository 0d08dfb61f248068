"""Property-based tests of the superstep schedule.

Every partitioned kernel runs each phase as one
:meth:`~repro.parallel.backends.ResidentSession.run` barrier over the live
parts. The rule that makes the distributed session's concurrent ranks
safe is that the tasks of one phase are independent: each reads only its
payload, its own part's state and its delta, and writes only its own part's
state. The strategy here drives the partitioned kernels through a session
that executes each phase's per-part tasks in a drawn random order; whatever
order comes out, results must equal the flat NumPy kernel and every
deterministic ``PartitionStats`` count must equal the in-order NumPy
partitioned run.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.coloring import greedy_color
from repro.graph import grid2d
from repro.mis import kk_mis2
from repro.parallel import NumpyBackend, build_partition_layout
from repro.parallel.backends import _LocalResidentSession

from tests.properties.strategies import graphs

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _ScrambledSession(_LocalResidentSession):
    """Session that runs each phase's per-part tasks in a drawn order."""

    def __init__(self, token, payloads, states, rng):
        super().__init__(token, payloads, states)
        self._rng = rng

    def _submit(self, fn, tasks):
        order = list(range(len(tasks)))
        self._rng.shuffle(order)

        def collect():
            results = {}
            for j in order:
                i, delta = tasks[j]
                results[j] = fn(self._payloads[i], self._states[i], delta)
            return [results[j] for j in range(len(tasks))]

        return collect


class _ScrambledBackend(NumpyBackend):
    """Numpy-reference backend whose resident sessions scramble execution."""

    name = "scrambled"

    def __init__(self, seed):
        self._rng = Random(seed)

    def map_partitions_resident(self, token, payloads, states):
        return _ScrambledSession(token, payloads, states, rng=self._rng)


def _deterministic_stats(stats):
    """Drop the perf_counter timing triple — everything else is gated."""
    return {k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")}


_KERNELS = {
    "kk": (lambda g, **kw: kk_mis2(g, seed=0, **kw), lambda r: r.in_set),
    "color": (greedy_color, lambda r: r.colors),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@given(graphs(), st.integers(min_value=1, max_value=4), st.integers(0, 2**31))
# The drawn graphs color in a few rounds; a 30 x 30 grid takes 30, most of
# them recomputing only the coloring frontier.
@example(graph=grid2d(30, 30), k=4, seed=7)
@settings(**COMMON)
def test_any_task_order_within_a_phase_is_bit_identical(kernel, graph, k, seed):
    run, values = _KERNELS[kernel]
    layout = build_partition_layout(graph, k)
    flat = run(graph)
    in_order = run(graph, partitions=layout, backend="numpy")
    scrambled = run(graph, partitions=layout, backend=_ScrambledBackend(seed))
    assert np.array_equal(values(scrambled), values(flat))
    assert _deterministic_stats(scrambled.partition_stats) == _deterministic_stats(
        in_order.partition_stats
    )
