"""The benchmark's stored seed-0 reference outputs, checked on every run.

Each workload of ``perfbench`` is built at seed 0 and run through its
worker's ``execute`` against ``perfbench/reference/<workload>.json``,
with an idle tracer (nothing patched, forcing untraced).  The benchmark
is imported read-only, as its own tests under ``perfbench/tests`` do.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_reference(workload, tmp_path):
    tracer = tr.Tracer(trace_forcing=False)
    ops = workloads.WORKLOADS[workload](0, tracer, str(tmp_path))
    outcome = worker.execute(ops, tracer, reference=workloads.load_reference(workload))
    assert outcome["failures"] == []
    assert len(outcome["probes"]) == len(ops)
