"""Pin BLAS to one thread before any test imports numpy.

The suite's dense work (the modal march's GEMMs, and eigensolves of step
maps of up to 401 nodes for the closed-form march) is too small to gain
from a second BLAS thread, which only burns CPU.  A thread count set in
the environment is left as it is.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
