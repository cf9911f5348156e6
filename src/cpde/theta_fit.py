"""Local log-quartic fits of the variable coefficient.

Every interior stencil row is built from a local model

    theta(x_j + y) ~ theta(x_j) * exp(c1 y + c2 y^2 + c3 y^3 + c4 y^4)

whose four coefficients are pinned down by matching log-ratios of theta
at a handful of nearby nodes.  The boundary rows use a one-sided variant
sampled at half-step offsets into the domain.  All theta values come
from ``sample_theta``, once per assembly and in one array call when
theta takes arrays: the interior fit takes a node or an array of nodes
and returns an ExpFit of matching shape.  Each fit also takes theta's
samples at its points (``interior_points``, ``wall_points``) when the
caller has them.  The coefficient must stay finite and strictly positive
at every sampled point or the logs are meaningless; violations raise
CoefficientDomainError with the offending abscissa.  ``exactness_system``
writes out the test-function system of both row oracles under the model.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class CoefficientDomainError(ValueError):
    """The coefficient was non-positive (or non-finite) at a sample point."""


class ExpFit(NamedTuple):
    """Fitted local model around a center point (or an array of them).

    r_minus and r_plus are the ratios theta(center)/theta(center -+ h)
    that the stencil tables consume alongside c1..c4.  For interior fits
    they come from direct samples of theta; for boundary fits the outward
    ratio is the model's extrapolation, since there is no node beyond the
    wall to sample.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    theta_center: float
    r_minus: float
    r_plus: float

    def g(self, y: float) -> float:
        """The fitted exponent c1*y + c2*y^2 + c3*y^3 + c4*y^4."""
        return y * (self.c1 + y * (self.c2 + y * (self.c3 + y * self.c4)))

    def dg(self, y: float) -> float:
        """Its derivative g'(y)."""
        return self.c1 + 2.0 * self.c2 * y + 3.0 * self.c3 * y**2 + 4.0 * self.c4 * y**3

    def mirrored(self) -> "ExpFit":
        """The same local model seen through y -> -y."""
        return ExpFit(-self.c1, self.c2, -self.c3, self.c4, self.theta_center,
                      r_minus=self.r_plus, r_plus=self.r_minus)


def exactness_system(fit: ExpFit, theta_eff: complex, basis, nodes, times, weights,
                     scale: float) -> np.ndarray:
    """The test-function system of a compact row under the local model.

    One row per (k1, k2) of ``basis``: the local solution u* = y^k1 s^k2
    at every (time, node), then ``scale`` times its manufactured forcing

        f* = u*_s - theta_eff w(y) (k1 g'(y) y^(k1-1) + k1 (k1-1) y^(k1-2)) s^k2

    at every time and at the first len(weights) nodes, where ``weights``
    holds w(y) = exp(g(y)) there.  The columns run over the nodes within
    each time, in the order given.  Complex when theta_eff is.
    """
    def power(v, k):
        return v**k if k else 1.0

    rows = []
    for k1, k2 in basis:
        row = [power(y, k1) * power(s, k2) for s in times for y in nodes]
        for s in times:
            for y, w in zip(nodes, weights):
                ut = k2 * power(y, k1) * power(s, k2 - 1) if k2 else 0.0
                space = 0.0
                if k1 > 0:
                    space += k1 * fit.dg(y) * power(y, k1 - 1)
                if k1 > 1:
                    space += k1 * (k1 - 1) * power(y, k1 - 2)
                row.append(scale * (ut - theta_eff * w * space * power(s, k2)))
        rows.append(row)
    return np.array(rows, dtype=complex if np.iscomplexobj(theta_eff) else float)


def sample_theta(theta: Callable[[float], float], x) -> np.ndarray:
    """theta at every abscissa of x, from one call on the whole array.

    The result must be real, of x's shape or a scalar, and equal theta
    called with a Python float at x's first and last abscissa to 1e-12
    relative; else (say, a closure on ``math.cos``) theta is called with a
    Python float per abscissa.  The first value that is not finite and
    positive raises CoefficientDomainError naming its abscissa.
    """
    x = np.asarray(x, dtype=float)
    # overflow in the user's coefficient is exactly what the check below
    # reports, so the sweep itself runs silent
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _samples(theta, x)
    ok = np.isfinite(vals) & (vals > 0.0)
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        v = vals.flat[bad]
        what = "is not finite" if not math.isfinite(v) else "must be positive"
        raise CoefficientDomainError(f"coefficient {what}, got {v} at x={x.flat[bad]}")
    return vals


def _samples(theta, x: np.ndarray) -> np.ndarray:
    """theta at x by one array call, or one call per float if it fails sample_theta's checks."""
    try:
        vals = np.asarray(theta(x))
        usable = vals.dtype.kind in "biuf" and vals.shape in (x.shape, ()) and x.size > 0
    except (TypeError, ValueError, IndexError):
        usable = False
    if usable:
        vals = np.array(np.broadcast_to(vals, x.shape), dtype=float)
        refs = [float(theta(float(x.flat[i]))) for i in (0, -1)]
        if all(abs(vals.flat[i] - ref) <= 1e-12 * abs(ref) for i, ref in zip((0, -1), refs)):
            return vals
    return np.array([float(theta(xi)) for xi in x.ravel().tolist()]).reshape(x.shape)


# sample offsets in units of h: interior ones centred on the node, wall
# ones running inward from the wall
_INTERIOR_OFFSETS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_WALL_OFFSETS = np.arange(5) * 0.5


def interior_points(x_j, h: float) -> np.ndarray:
    """The abscissae x_j + (-h, -h/2, 0, h/2, h) of an interior fit, on a
    new last axis."""
    return np.asarray(x_j, dtype=float)[..., None] + _INTERIOR_OFFSETS * h


def wall_points(h: float) -> np.ndarray:
    """The abscissae of the left (row 0) and right (row 1) wall fits."""
    return np.stack((_WALL_OFFSETS * h, TWO_PI - _WALL_OFFSETS * h))


def fit_interior(theta: Callable[[float], float], x_j, h: float, samples=None) -> ExpFit:
    """Fit the log-quartic model at an interior node x_j, or at each node
    of an array x_j.

    Matches the model to log(theta(x_j + y)/theta(x_j)) at the four
    offsets y = -h, -h/2, h/2, h.  The 4x4 Vandermonde-type system has a
    closed-form solution, used here directly.  The samples at x_j -+ h
    also give the neighbour ratios.  ``samples``, theta at
    ``interior_points(x_j, h)``, stands in for sampling theta.
    """
    if samples is None:
        samples = sample_theta(theta, interior_points(x_j, h))
    t = np.moveaxis(samples, -1, 0)
    t0 = t[2]
    mm, lm, _, lp, mp = np.log(t / t0)
    c1 = -(8.0 * lm - 8.0 * lp - mm + mp) / (6.0 * h)
    c2 = (16.0 * lm + 16.0 * lp - mm - mp) / (6.0 * h * h)
    c3 = 2.0 * (2.0 * lm - 2.0 * lp - mm + mp) / (3.0 * h**3)
    c4 = -2.0 * (4.0 * lm + 4.0 * lp - mm - mp) / (3.0 * h**4)
    return ExpFit(c1=c1, c2=c2, c3=c3, c4=c4, theta_center=t0, r_minus=t0 / t[0], r_plus=t0 / t[4])


def _fit_one_sided(t: list, h: float) -> ExpFit:
    """Wall fit from theta at distances 0, h/2, h, 3h/2 and 2h inward.

    Exact inverse of the 4x4 system matching the exponent at y = h/2, h,
    3h/2, 2h; both neighbour ratios come from the fitted model.
    """
    w0, w1, w2, w3 = (math.log(v / t[0]) for v in t[1:])
    c1 = (8.0 * w0 - 6.0 * w1 + (8.0 / 3.0) * w2 - 0.5 * w3) / h
    c2 = (-(52.0 / 3.0) * w0 + 19.0 * w1 - (28.0 / 3.0) * w2 + (11.0 / 6.0) * w3) / h**2
    c3 = (12.0 * w0 - 16.0 * w1 + (28.0 / 3.0) * w2 - 2.0 * w3) / h**3
    c4 = (-(8.0 / 3.0) * w0 + 4.0 * w1 - (8.0 / 3.0) * w2 + (2.0 / 3.0) * w3) / h**4
    fit = ExpFit(c1, c2, c3, c4, t[0], 1.0, 1.0)
    return ExpFit(c1, c2, c3, c4, t[0], math.exp(-fit.g(-h)), math.exp(-fit.g(h)))


def fit_boundary_left(theta: Callable[[float], float], h: float, samples=None) -> ExpFit:
    """One-sided fit at the left wall x=0, sampling x = 0, h/2, h, 3h/2, 2h
    (row 0 of ``wall_points``; ``samples`` stands in for sampling theta).

    Both neighbour ratios come from the fitted model: r_plus =
    exp(-g(h)) reproduces theta(0)/theta(h) to fit accuracy, and
    r_minus = exp(-g(-h)) extrapolates across the wall.
    """
    if samples is None:
        samples = sample_theta(theta, wall_points(h)[0])
    return _fit_one_sided(samples.tolist(), h)


def fit_boundary_right(theta: Callable[[float], float], h: float, samples=None) -> ExpFit:
    """One-sided fit at the right wall x=2 pi, looking inward (row 1 of
    ``wall_points``; ``samples`` stands in for sampling theta).

    The left fit of theta_tilde(s) = theta(2 pi - s), mirrored: the
    inward ratio is then r_minus and the outward extrapolated one is
    r_plus, keeping the orientation of the physical axis.
    """
    if samples is None:
        samples = sample_theta(theta, wall_points(h)[1])
    return _fit_one_sided(samples.tolist(), h).mirrored()
