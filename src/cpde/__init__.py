"""Compact fourth-order solvers for 1D parabolic and Schrodinger-type
equations with a variable, time-independent diffusion coefficient.

The package builds two-layer implicit schemes on uniform grids over
[0, 2 pi]: a six-point compact scheme whose coefficients come from a
local exponential-of-quartic fit of the coefficient, and the classic
second-order implicit scheme it is benchmarked against.  Both kinds of
equation (real diffusion and complex Schrodinger-type) share the same
assembly; experiment drivers live in cpde.analysis and the `cpde`
command line.  Each public name is imported from its module
(cpde.core, cpde.steppers, cpde.analysis, ...).
"""

# The one binding kept at the top level: the benchmark's tracer test
# (perfbench/tests) checks that ("cpde", "assemble_compact") is patched.
from .steppers import assemble_compact  # noqa: F401

__version__ = "0.1.0"
