"""Boundary rows: compact Neumann closures and their variants.

A homogeneous Neumann wall is closed with one extra equation over the
three nodes nearest the wall and both time layers,

    alpha0 . u^n + alpha1 . u^{n+1} = (beta/nu0) . (f^n + f^{n+1}),

with entries ordered from the wall inward.  beta is stored in the same
scaled units the closed forms are usually quoted in; the literal forcing
weight is beta/nu0 (the betas carry an extra factor of nu0 relative to
the alphas).  Four variants exist:

  * CompactThreePoint: the fourth-order compact closure.
  * ReducedTwoPoint: a two-node closure from a reduced test basis
    (drops overall order to about 3).
  * MainTerms: the three-point closure at h*g'(h) = 0, exp(-g(h)) = 1,
    i.e. its h -> 0 limit (about 3).
  * ClassicNeumann(epsilon): the first-difference closure
    eps*(u1-u0)|new + (1-eps)*(u1-u0)|old = 0 (drops order to about 1).

The three compact closures are one closed form (``_compact_left``) in
h*g'(h) and exp(-g(h)) of the wall fit, whose layers differ by four
times the forcing side.  ``boundary_oracle`` derives a row by an SVD
null space instead, of the test-function system that the interior
oracle's builder (``theta_fit.exactness_system``) sets up on the wall's
nodes: the independent cross-check of the closed forms, never used in assembly.
The right-wall row is the left row of the mirrored fit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .core import _Frozen
from .linalg import null_space_1d, RankError
from .theta_fit import ExpFit, exactness_system


class CompactThreePoint(_Frozen):
    __slots__ = ()


class ReducedTwoPoint(_Frozen):
    __slots__ = ()


class MainTerms(_Frozen):
    __slots__ = ()


class ClassicNeumann(_Frozen):
    __slots__ = ("epsilon",)

    def __init__(self, epsilon: float = 0.5):
        if not (0.0 < epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        super().__init__(epsilon)


NeumannVariant = Union[CompactThreePoint, ReducedTwoPoint, MainTerms, ClassicNeumann]


class BoundaryRow(NamedTuple):
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


def _compact_left(nu0: complex, tau: float, k, b) -> BoundaryRow:
    """Compact left wall from its solution weights k and forcing weights b.

    alpha_new/alpha_old = nu0*k +- 2b and beta = nu0*tau*b, so the layers
    differ by four times the forcing side, as in the interior.
    """
    k, b = np.array(k), np.array(b)
    beta = nu0 * tau * b
    return BoundaryRow(nu0 * k + 2.0 * b, nu0 * k - 2.0 * b, beta, beta.copy(), nu0, tau)


def _three_point(hgp=0.0, e=1.0):
    """(k, b) of the three-point closure from hgp = h*g'(h) and e = exp(-g(h)).

    The defaults, the h -> 0 limit, give the MainTerms row.
    """
    return [6.0 + 17.0 * hgp, -16.0 * hgp, -(hgp + 6.0)], [2.0 * (hgp + 2.0), 8.0 * e, 0.0]


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

    Builds (``exactness_system``) the system over `points` wall-side nodes
    and two layers for the monomials x^k1 t^k2 in `basis`, with the model
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
    weights = [math.exp(fit.g(x)) for x in xs[:2]]  # forcing at the first two nodes
    system = exactness_system(fit, theta_eff, basis, xs, (tau, 0.0), weights, -1.0)
    # The entries span powers of h and tau, so on fine grids the SVD's
    # relative cut drops real rank.  Equilibrate first: scaling rows keeps
    # the null space, scaling columns is undone on the null vector.
    system /= np.abs(system).max(axis=1, keepdims=True)
    col_scale = np.abs(system).max(axis=0)
    v = null_space_1d(system / col_scale, expected_rank=system.shape[1] - 1) / col_scale

    # unknown layout: alpha1 (points), alpha0 (points), b1_lit (2), b0_lit (2)
    b1_at_x1 = v[2 * points + 1]
    if abs(b1_at_x1) < 1e-12 * np.abs(v).max():
        raise RankError("wall row has vanishing forcing weight at the inner node")
    v = v * (8.0 * tau * fit.r_plus / b1_at_x1)
    rows = np.zeros((4, 3), v.dtype)  # alpha1, alpha0, beta1, beta0, zero-padded to 3 nodes
    rows[:2, :points] = v[: 2 * points].reshape(2, points)
    rows[2:, :2] = v[2 * points :].reshape(2, 2) * nu0
    return BoundaryRow(*rows, nu0, tau)


def build_left_row(
    fit: ExpFit, nu0: complex, h: float, tau: float, variant: NeumannVariant
) -> BoundaryRow:
    """Left-wall row for the requested variant (fit from fit_boundary_left)."""
    if isinstance(variant, ClassicNeumann):
        return _classic_row(nu0, tau, variant.epsilon)
    if isinstance(variant, MainTerms):
        return _compact_left(nu0, tau, *_three_point())
    if isinstance(variant, CompactThreePoint):
        return _compact_left(nu0, tau, *_three_point(h * fit.dg(h), fit.r_plus))
    if isinstance(variant, ReducedTwoPoint):
        hgp = h * fit.dg(h)
        k = 24.0 * (hgp + 2.0) * np.array([1.0, -1.0, 0.0])
        return _compact_left(nu0, tau, k, [4.0 * (hgp + 4.0), 8.0 * fit.r_plus, 0.0])
    raise TypeError(f"unknown Neumann variant {variant!r}")


def build_right_row(
    fit: ExpFit, nu_n: complex, h: float, tau: float, variant: NeumannVariant
) -> BoundaryRow:
    """Right-wall row (fit from fit_boundary_right); entries wall-inward.

    Every variant reflects the left row through x -> 2*pi - x.  The
    test-function oracle on the mirrored system agrees entrywise
    (cross-checked in the tests).
    """
    return build_left_row(fit.mirrored(), nu_n, h, tau, variant)
