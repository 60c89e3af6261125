"""The fixed, seeded Zipf trace timed by the ``zipf`` benchmark workload.

``perfbench/run.py`` is the repository's throughput harness: it times the
Figure 10 design row on ``pr``, ``zipf`` and ``hashjoin`` and splits host
time per layer with ``--trace 1``.  Its ``zipf`` workload is
:func:`hotpath_trace`, a Zipf-popularity trace with mixed reads and
writes whose footprint fits on chip, so hierarchy, design dispatch and
the RL predictors dominate its host time.
"""

from __future__ import annotations

from ..workloads.micro import zipf_trace
from ..workloads.trace import Trace

#: Fixed trace parameters: the benchmark's pinned ``zipf`` cell digests
#: and ``tests/test_micro.py`` hold the trace they produce.
TRACE_N = 100_000
TRACE_SEED = 42
TRACE_WRITE_FRACTION = 0.3


def hotpath_trace(
    n: int = TRACE_N,
    seed: int = TRACE_SEED,
    write_fraction: float = TRACE_WRITE_FRACTION,
) -> Trace:
    """The harness's fixed seeded workload (Zipf popularity, mixed R/W)."""
    return zipf_trace(n=n, seed=seed, write_fraction=write_fraction)
