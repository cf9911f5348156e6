"""Boundary rows: compact Neumann closures and their variants.

A homogeneous Neumann wall is closed with one extra equation over the
three nodes nearest the wall and both time layers,

    alpha0 . u^n + alpha1 . u^{n+1} = (beta/nu0) . (f^n + f^{n+1}),

with entries ordered from the wall inward.  beta is stored in the same
scaled units the closed forms are usually quoted in; the literal forcing
weight is beta/nu0 (the betas carry an extra factor of nu0 relative to
the alphas).  Four variants exist:

  * CompactThreePoint: the fourth-order compact closure (closed forms in
    h*g'(h) and exp(-g(h)) of the wall fit, whose layers differ by four
    times the forcing side).
  * ReducedTwoPoint: a two-node closure from a reduced test basis
    (drops overall order to about 3).
  * MainTerms: the same closed forms at h*g'(h) = 0, exp(-g(h)) = 1,
    i.e. their h -> 0 limit (about 3).
  * ClassicNeumann(epsilon): the first-difference closure
    eps*(u1-u0)|new + (1-eps)*(u1-u0)|old = 0 (drops order to about 1).

The left-wall compact row has closed forms; the right-wall row is
derived by mirroring the test-function system, which is the primary
construction there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import null_space_1d, RankError
from .theta_fit import ExpFit


@dataclass(frozen=True)
class CompactThreePoint:
    pass


@dataclass(frozen=True)
class ReducedTwoPoint:
    pass


@dataclass(frozen=True)
class MainTerms:
    pass


@dataclass(frozen=True)
class ClassicNeumann:
    epsilon: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


NeumannVariant = Union[CompactThreePoint, ReducedTwoPoint, MainTerms, ClassicNeumann]


@dataclass(frozen=True)
class BoundaryRow:
    """One wall equation.  Index 0 is the wall node, increasing inward.

    beta_new/beta_old are in scaled units; divide by nu0 for the weight
    that multiplies f directly.  For the compact variant beta_2 = 0 and
    the two layers share one beta.
    """

    alpha_new: np.ndarray
    alpha_old: np.ndarray
    beta_new: np.ndarray
    beta_old: np.ndarray
    nu0: complex
    tau: float

    @property
    def beta_new_literal(self) -> np.ndarray:
        return self.beta_new / self.nu0

    @property
    def beta_old_literal(self) -> np.ndarray:
        return self.beta_old / self.nu0


# full boundary test basis: x^k1 t^k2 pairs; x and x*t^k are excluded
# because they contradict the wall condition u_x = 0
BOUNDARY_BASIS = (
    (0, 0),
    (0, 1),
    (0, 2),
    (2, 0),
    (2, 1),
    (2, 2),
    (3, 0),
    (3, 1),
    (3, 2),
    (4, 0),
)
REDUCED_BASIS = ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (3, 0))


def _compact_left(nu0: complex, tau: float, hgp=0.0, e=1.0) -> BoundaryRow:
    """Compact left wall from hgp = h*g'(h) and e = exp(-g(h)) of the wall fit.

    alpha_new/alpha_old = nu0*k +- 2b and beta = nu0*tau*b, so the layers
    differ by four times the forcing side, as in the interior.  The
    defaults hgp = 0, e = 1 (the h -> 0 limit) give the MainTerms row.
    """
    k = np.array([6.0 + 17.0 * hgp, -16.0 * hgp, -(hgp + 6.0)])
    b = np.array([2.0 * (hgp + 2.0), 8.0 * e, 0.0])
    beta = nu0 * tau * b
    return BoundaryRow(nu0 * k + 2.0 * b, nu0 * k - 2.0 * b, beta, beta.copy(), nu0, tau)


def _classic_row(nu0: complex, tau: float, epsilon: float) -> BoundaryRow:
    alpha1 = np.array([-epsilon, epsilon, 0.0])
    alpha0 = np.array([-(1.0 - epsilon), 1.0 - epsilon, 0.0])
    beta = np.zeros(3)
    return BoundaryRow(alpha1, alpha0, beta, beta.copy(), nu0, tau)


def boundary_oracle(
    fit: ExpFit,
    nu0: complex,
    h: float,
    tau: float,
    basis=BOUNDARY_BASIS,
    points: int = 3,
) -> BoundaryRow:
    """Derive a wall row from its test-function system.

    Builds the homogeneous system over `points` wall-side nodes and two
    layers for the monomials x^k1 t^k2 in `basis`, with the local model
    theta_hat(x) = theta_eff*exp(g(x)) and manufactured forcings.
    Forcing columns exist at the first two nodes only (beta_2 is
    structurally zero in the 3-point variant).  The system must have a
    one-dimensional null space (rank = number of unknowns minus one).
    The row is rescaled so beta_new[1] equals 8*tau*nu0*exp(-g(h)),
    matching the closed-form convention.
    """
    if points not in (2, 3):
        raise ValueError(f"wall stencil must use 2 or 3 nodes, got {points}")
    theta_eff = nu0 * h * h / tau
    xs = [k * h for k in range(points)]
    f_nodes = 2  # beta_2 = 0 structurally in the 3-point variant

    def u_star(k1: int, k2: int, t: float, x: float):
        return (x**k1 if k1 else 1.0) * (t**k2 if k2 else 1.0)

    def f_star(k1: int, k2: int, t: float, x: float):
        ut = 0.0
        if k2:
            ut = k2 * (x**k1 if k1 else 1.0) * (t ** (k2 - 1) if k2 > 1 else 1.0)
        space = 0.0
        if k1 > 0:
            space += k1 * fit.dg(x) * (x ** (k1 - 1) if k1 > 1 else 1.0)
        if k1 > 1:
            space += k1 * (k1 - 1) * (x ** (k1 - 2) if k1 > 2 else 1.0)
        return ut - theta_eff * math.exp(fit.g(x)) * space * (t**k2 if k2 else 1.0)

    ts = (tau, 0.0)  # new layer first, matching the unknown layout
    rows = []
    for k1, k2 in basis:
        row = []
        for t in ts:
            row.extend(u_star(k1, k2, t, x) for x in xs)
        for t in ts:
            row.extend(-f_star(k1, k2, t, x) for x in xs[:f_nodes])
        rows.append(row)
    n_unknowns = 2 * points + 2 * f_nodes
    dtype = complex if np.iscomplexobj(np.asarray(nu0)) else float
    system = np.array(rows, dtype=dtype)
    # The entries span powers of h and tau, so on fine grids the SVD's
    # relative cut drops real rank.  Equilibrate first: scaling rows keeps
    # the null space, scaling columns is undone on the null vector.
    system /= np.abs(system).max(axis=1, keepdims=True)
    col_scale = np.abs(system).max(axis=0)
    v = null_space_1d(system / col_scale, expected_rank=n_unknowns - 1) / col_scale

    # unknown layout: alpha1 (points), alpha0 (points), b1_lit (2), b0_lit (2)
    b1_at_x1 = v[2 * points + 1]
    anchor = 8.0 * tau * fit.r_plus
    if abs(b1_at_x1) < 1e-12 * np.abs(v).max():
        raise RankError("wall row has vanishing forcing weight at the inner node")
    v = v * (anchor / b1_at_x1)

    def pad(vec) -> np.ndarray:
        out = np.zeros(3, dtype=vec.dtype)
        out[: vec.size] = vec
        return out

    alpha1 = pad(v[:points])
    alpha0 = pad(v[points : 2 * points])
    beta1 = pad(v[2 * points : 2 * points + 2] * nu0)
    beta0 = pad(v[2 * points + 2 :] * nu0)
    return BoundaryRow(alpha1, alpha0, beta1, beta0, nu0, tau)


def build_left_row(
    fit: ExpFit, nu0: complex, h: float, tau: float, variant: NeumannVariant
) -> BoundaryRow:
    """Left-wall row for the requested variant (fit from fit_boundary_left)."""
    if isinstance(variant, CompactThreePoint):
        return _compact_left(nu0, tau, h * fit.dg(h), fit.r_plus)
    if isinstance(variant, ReducedTwoPoint):
        return boundary_oracle(fit, nu0, h, tau, basis=REDUCED_BASIS, points=2)
    if isinstance(variant, MainTerms):
        return _compact_left(nu0, tau)
    if isinstance(variant, ClassicNeumann):
        return _classic_row(nu0, tau, variant.epsilon)
    raise TypeError(f"unknown Neumann variant {variant!r}")


def build_right_row(
    fit: ExpFit, nu_n: complex, h: float, tau: float, variant: NeumannVariant
) -> BoundaryRow:
    """Right-wall row (fit from fit_boundary_right); entries wall-inward.

    The compact variant reflects the left closed forms through x ->
    2*pi - x.  The test-function oracle on the mirrored system agrees
    entrywise (cross-checked in the tests) but its null space briefly
    widens on a thin locus of complex nu, so the closed form is the one
    used for assembly.
    """
    return build_left_row(fit.mirrored(), nu_n, h, tau, variant)
