"""Interior rows of the compact two-layer scheme.

Each interior grid node j carries one six-point stencil equation

    b_L0 u^n_{j-1} + a_0 u^n_j + b_R0 u^n_{j+1}
  + b_L1 u^{n+1}_{j-1} + a_1 u^{n+1}_j + b_R1 u^{n+1}_{j+1}
  = tau * (q_L0 f^n_{j-1} + p_0 f^n_j + q_R0 f^n_{j+1}
         + q_L1 f^{n+1}_{j-1} + p_1 f^{n+1}_j + q_R1 f^{n+1}_{j+1})

whose twelve coefficients are polynomials in h built from the local fit
(c1..c4), the grid ratio nu_j = theta_j*tau/h^2 (times i for the complex
kind), and the neighbour ratios r_- and r_+.  Three of the twelve are
tabulated; the scheme's own identities (the layers differ by four times
the forcing side, the right side mirrors the left, constants solve the
row) give the other nine (see coefficient_stacks).  assemble_row
evaluates the stacks; derive_row_oracle re-derives the same row from
scratch as the null space of a test-function system, which knows none
of those identities, so the two construction routes can be checked
against each other.  That system comes from theta_fit.exactness_system,
which builds the wall oracle's too (neumann.boundary_oracle).

The stacks are elementwise arithmetic, so assemble_row takes the fit of
one node or the fit of a whole node array (fit_interior on an array of
nodes, with an array of nu): the assembly builds every interior row in
one call, and a single row is the scalar view of the same code.

The overall scale is pinned by p_0 = 60 at h^0: the forcing-side leading
terms are nonzero and unaffected by cut truncation, which makes them the
most stable anchor.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import null_space_1d, RankError
from .theta_fit import ExpFit, exactness_system

# number of tabulated h-powers per coefficient (h^0 .. h^9); cut =
# CUT_FULL keeps every power, smaller values drop powers >= cut
CUT_FULL = 10


class CompactRow(NamedTuple):
    """The twelve coefficients of one row, or twelve node arrays of them."""

    b_l0: complex
    a_0: complex
    b_r0: complex
    b_l1: complex
    a_1: complex
    b_r1: complex
    q_l0: complex
    p_0: complex
    q_r0: complex
    q_l1: complex
    p_1: complex
    q_r1: complex

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @property
    def solution_side_sum(self) -> complex:
        return self.b_l0 + self.a_0 + self.b_r0 + self.b_l1 + self.a_1 + self.b_r1


FIELD_NAMES = CompactRow._fields


def _stacks(fit: ExpFit, nu: complex) -> tuple[np.ndarray, np.ndarray]:
    """coefficient_stacks' nine distinct stacks as a (6, CUT_FULL, ...) array
    of the solution side, b_l0 .. b_r1, and a real (3, CUT_FULL, ...) one of
    the forcing side, q_l, p and q_r."""
    c1, c2, c3, c4 = fit.c1, fit.c2, fit.c3, fit.c4
    K = [
        -72.0,
        36 * c1,
        -96 * c2,
        18 * c3 - 3 * c1**3 + 42 * c1 * c2,
        -32 * c2**2 - 192 * c4 + 24 * c1 * c3,
        84 * c1 * c4 + 12 * c1 * c2**2 - 18 * c1**2 * c3,
        72 * c3**2 - 128 * c2 * c4,
        -27 * c1 * c3**2 + 48 * c1 * c2 * c4,
        -128 * c4**2,
        48 * c1 * c4**2,
    ]
    Q = [6.0, -3 * c1, 4 * c2 - c1**2, 6 * c3 - 2 * c1 * c2, 8 * c4 - 3 * c1 * c3, -4 * c1 * c4,
         0.0, 0.0, 0.0, 0.0]
    P = [60.0, 0.0, 4 * (-(c1**2) + 16 * c2), 0.0, 4 * (4 * c2**2 + 32 * c4 - 6 * c1 * c3), 0.0,
         4 * (-9 * c3**2 + 16 * c2 * c4), 0.0, 64 * c4**2, 0.0]
    shape = np.shape(c1)
    # the new layer's rows first hold nu K, its mirror and their centre
    sol = np.empty((6, CUT_FULL) + shape, np.result_type(nu, c1))
    frc, q = np.empty((3, CUT_FULL) + shape), np.empty((CUT_FULL,) + shape)
    for row, terms in zip((sol[3], q, frc[1]), (K, Q, P)):
        for k, term in enumerate(terms):
            row[k] = term
    signs = ((-1.0) ** np.arange(CUT_FULL)).reshape((-1,) + (1,) * len(shape))  # the mirror
    sol[3] *= nu
    np.multiply(signs, sol[3], out=sol[5])
    np.negative(sol[3] + sol[5], out=sol[4])
    np.multiply(fit.r_minus, q, out=frc[0])
    np.multiply(signs * fit.r_plus, q, out=frc[2])
    for i in range(3):  # the layers: solution terms -+ twice the forcing side
        two = 2 * frc[i]
        np.subtract(sol[i + 3], two, out=sol[i])
        sol[i + 3] += two
    return sol, frc


def coefficient_stacks(fit: ExpFit, nu: complex) -> dict[str, np.ndarray]:
    """The twelve coefficient stacks, one (CUT_FULL, ...) array of h-power terms each.

    Entry k of a stack multiplies h^k.  Stacks do not depend on h; the
    caller evaluates them at a concrete step (see assemble_row).  The
    forcing-side stacks are shared between the layers.

    Three tables are written out: K, the left neighbour's solution weight
    per unit nu averaged over the layers; Q, the left forcing weight over
    r_-; and P, the centre forcing weight.  The other nine stacks follow,
    power by power, from the scheme's identities:

      * layers: b_l0/b_l1 = nu K -+ 2 r_- Q and q_l0 = q_l1 = r_- Q, so the
        new layer exceeds the old by four times the forcing side;
      * mirror: the right side is the left one at -h with r_+ for r_-,
        i.e. power k times (-1)^k;
      * constants: a_0/a_1 = -nu (K_l + K_r) -+ 2P and p_0 = p_1 = P, so
        the solution side sums to zero.
    """
    sol, frc = _stacks(fit, nu)
    return dict(zip(FIELD_NAMES, (*sol, *frc, *frc)))  # the layers share q_l, p, q_r


def _check_cut(cut: int) -> int:
    if not isinstance(cut, (int, np.integer)) or not (4 <= cut <= CUT_FULL):
        raise ValueError(f"cut level must be an integer in 4..{CUT_FULL}, got {cut!r}")
    return int(cut)


def assemble_row(fit: ExpFit, nu: complex, h: float, cut: int = CUT_FULL) -> CompactRow:
    """Evaluate the tabulated row at step h, dropping h-powers >= cut.

    cut = 10 keeps everything (the stacks stop at h^9).  Lower cuts
    reproduce the truncation experiments; at least the h^0 terms always
    survive since cut >= 4.  The stacks are summed power by power, h^0 up.
    """
    cut = _check_cut(cut)
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    sol, frc = (sum(t[:, k] * h**k for k in range(cut)) for t in _stacks(fit, nu))
    return CompactRow(*sol, *frc, *frc)


INTERIOR_BASIS = tuple((k1, k2) for k1 in range(5) for k2 in range(3))


def derive_row_oracle(fit: ExpFit, nu: complex, h: float, tau: float) -> CompactRow:
    """Re-derive one interior row from the test-function system.

    Substitutes the 15 local solutions u* = y^k1 s^k2 (k1 = 0..4, k2 =
    0..2: ``INTERIOR_BASIS``) with their manufactured forcings into the
    stencil, where the local model coefficient is theta_eff*exp(g(y))
    with theta_eff = nu*h^2/tau, exp(g) from the stored ratios.  The
    15x12 system must have rank 11; its one-dimensional null space is
    the row, normalized so that the p_0 entry equals 60.  Raises
    RankError on any other rank (degenerate fit or an implementation bug).
    """
    if h <= 0.0 or tau <= 0.0:
        raise ValueError(f"h and tau must be positive, got h={h}, tau={tau}")
    theta_eff = nu * h * h / tau
    system = exactness_system(fit, theta_eff, INTERIOR_BASIS, (0.0, -h, h), (0.0, tau),
                              (1.0, 1.0 / fit.r_minus, 1.0 / fit.r_plus), -tau)
    v = null_space_1d(system, expected_rank=11)
    # column order: (a0, bl0, br0, a1, bl1, br1 | p0, ql0, qr0, p1, ql1, qr1)
    p0 = v[6]
    if abs(p0) < 1e-12 * np.abs(v).max():
        raise RankError("null vector has vanishing p_0 entry; cannot normalize")
    v = v * (60.0 / p0)
    return CompactRow(
        b_l0=v[1],
        a_0=v[0],
        b_r0=v[2],
        b_l1=v[4],
        a_1=v[3],
        b_r1=v[5],
        q_l0=v[7],
        p_0=v[6],
        q_r0=v[8],
        q_l1=v[10],
        p_1=v[9],
        q_r1=v[11],
    )


def stationary_reduction(row: CompactRow):
    """Layer-summed row of the steady problem -(theta u')' = f.

    When u and f do not depend on time the two layers collapse; the
    summed coefficients give an ordinary three-point difference equation
    (the classic fourth-order compact scheme after dividing by nu).
    Returns (b_L, a, b_R, q_L, p, q_R).
    """
    return (
        row.b_l0 + row.b_l1,
        row.a_0 + row.a_1,
        row.b_r0 + row.b_r1,
        row.q_l0 + row.q_l1,
        row.p_0 + row.p_1,
        row.q_r0 + row.q_r1,
    )
