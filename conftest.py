"""Pin BLAS to one thread before any test imports numpy, and clear the
operator that ``steppers`` keeps from its last assembly before each test.

The suite's dense work (the modal march's GEMMs, and eigensolves of step
maps of up to 401 nodes for the closed-form march) is too small to gain
from a second BLAS thread, which only burns CPU.  A thread count set in
the environment is left as it is.  This file sits at the repository root
so that both test trees, ``tests`` and ``perfbench/tests``, use it.
"""

import os
import sys

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(autouse=True)
def _cold_operator_cache():
    """Start every test without a kept operator, so that no test's path
    (a fresh assembly or a reused one) depends on the tests before it."""
    steppers = sys.modules.get("cpde.steppers")  # imported by collection, if at all
    if steppers is not None:
        steppers._last_operator.clear()
