"""Interior rows of the compact two-layer scheme.

Each interior grid node j carries one six-point stencil equation

    b_L0 u^n_{j-1} + a_0 u^n_j + b_R0 u^n_{j+1}
  + b_L1 u^{n+1}_{j-1} + a_1 u^{n+1}_j + b_R1 u^{n+1}_{j+1}
  = tau * (q_L0 f^n_{j-1} + p_0 f^n_j + q_R0 f^n_{j+1}
         + q_L1 f^{n+1}_{j-1} + p_1 f^{n+1}_j + q_R1 f^{n+1}_{j+1})

whose twelve coefficients are polynomials in h built from the local fit
(c1..c4), the grid ratio nu_j = theta_j*tau/h^2 (times i for the complex
kind), and the neighbour ratios r_- and r_+.  assemble_row evaluates the
tabulated coefficient stacks directly; derive_row_oracle re-derives the
same row from scratch as the null space of a test-function system, so
the two construction routes can be checked against each other.

The stacks are elementwise arithmetic, so assemble_row takes the fit of
one node or the fit of a whole node array (fit_interior on an array of
nodes, with an array of nu): the assembly builds every interior row in
one call, and a single row is the scalar view of the same code.

The overall scale is pinned by p_0 = 60 at h^0: the forcing-side leading
terms are nonzero and unaffected by cut truncation, which makes them the
most stable anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import null_space_1d, RankError
from .theta_fit import ExpFit

# number of tabulated h-powers per coefficient (h^0 .. h^9); cut =
# CUT_FULL keeps every power, smaller values drop powers >= cut
CUT_FULL = 10

FIELD_NAMES = (
    "b_l0",
    "a_0",
    "b_r0",
    "b_l1",
    "a_1",
    "b_r1",
    "q_l0",
    "p_0",
    "q_r0",
    "q_l1",
    "p_1",
    "q_r1",
)


@dataclass(frozen=True)
class CompactRow:
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
        return np.array([getattr(self, f) for f in FIELD_NAMES])

    @property
    def solution_side_sum(self) -> complex:
        return self.b_l0 + self.a_0 + self.b_r0 + self.b_l1 + self.a_1 + self.b_r1


def coefficient_stacks(fit: ExpFit, nu: complex) -> dict[str, list]:
    """The twelve tabulated coefficient stacks, one list of h-power terms each.

    Entry k of a stack multiplies h^k.  Stacks do not depend on h; the
    caller evaluates them at a concrete step (see assemble_row).  The
    forcing-side stacks are shared between the layers.
    """
    c1, c2, c3, c4 = fit.c1, fit.c2, fit.c3, fit.c4
    rm, rp = fit.r_minus, fit.r_plus
    zero = 0.0 * nu  # keeps dtype uniform for complex nu

    a0 = [
        144 * nu - 120,
        zero,
        8 * c1**2 - 128 * c2 + 192 * c2 * nu,
        zero,
        48 * c1 * c3 - 256 * c4 + 384 * c4 * nu + 64 * c2**2 * nu - 32 * c2**2 - 48 * c1 * c3 * nu,
        zero,
        72 * c3**2 - 144 * c3**2 * nu - 128 * c2 * c4 + 256 * c2 * c4 * nu,
        zero,
        256 * c4**2 * nu - 128 * c4**2,
        zero,
    ]
    bl0 = [
        -72 * nu - 12 * rm,
        36 * c1 * nu + 6 * c1 * rm,
        2 * rm * c1**2 - 96 * c2 * nu - 8 * c2 * rm,
        18 * c3 * nu - 12 * c3 * rm - 3 * c1**3 * nu + 42 * c1 * c2 * nu + 4 * c1 * c2 * rm,
        -32 * nu * c2**2 - 192 * c4 * nu - 16 * c4 * rm + 24 * c1 * c3 * nu + 6 * c1 * c3 * rm,
        84 * c1 * c4 * nu + 8 * c1 * c4 * rm + 12 * c1 * c2**2 * nu - 18 * c1**2 * c3 * nu,
        72 * nu * c3**2 - 128 * c2 * c4 * nu,
        -27 * c1 * nu * c3**2 + 48 * c1 * c2 * c4 * nu,
        -128 * c4**2 * nu,
        48 * c1 * c4**2 * nu,
    ]
    br0 = [
        -72 * nu - 12 * rp,
        -36 * c1 * nu - 6 * c1 * rp,
        2 * rp * c1**2 - 96 * c2 * nu - 8 * c2 * rp,
        12 * c3 * rp - 18 * c3 * nu + 3 * c1**3 * nu - 42 * c1 * c2 * nu - 4 * c1 * c2 * rp,
        -32 * nu * c2**2 - 192 * c4 * nu - 16 * c4 * rp + 24 * c1 * c3 * nu + 6 * c1 * c3 * rp,
        18 * c1**2 * c3 * nu - 8 * c1 * c4 * rp - 12 * c1 * c2**2 * nu - 84 * c1 * c4 * nu,
        72 * c3**2 * nu - 128 * c2 * c4 * nu,
        27 * c1 * c3**2 * nu - 48 * c1 * c2 * c4 * nu,
        -128 * c4**2 * nu,
        -48 * c1 * c4**2 * nu,
    ]
    a1 = [
        144 * nu + 120,
        zero,
        -8 * c1**2 + 128 * c2 + 192 * c2 * nu,
        zero,
        256 * c4 - 48 * c1 * c3 + 384 * c4 * nu + 64 * c2**2 * nu + 32 * c2**2 - 48 * c1 * c3 * nu,
        zero,
        128 * c2 * c4 - 144 * c3**2 * nu - 72 * c3**2 + 256 * c2 * c4 * nu,
        zero,
        256 * c4**2 * nu + 128 * c4**2,
        zero,
    ]
    bl1 = [
        12 * rm - 72 * nu,
        36 * c1 * nu - 6 * c1 * rm,
        -2 * rm * c1**2 - 96 * c2 * nu + 8 * c2 * rm,
        18 * c3 * nu + 12 * c3 * rm - 3 * c1**3 * nu + 42 * c1 * c2 * nu - 4 * c1 * c2 * rm,
        -32 * nu * c2**2 - 192 * c4 * nu + 16 * c4 * rm + 24 * c1 * c3 * nu - 6 * c1 * c3 * rm,
        84 * c1 * c4 * nu - 8 * c1 * c4 * rm + 12 * c1 * c2**2 * nu - 18 * c1**2 * c3 * nu,
        72 * nu * c3**2 - 128 * c2 * c4 * nu,
        -27 * c1 * nu * c3**2 + 48 * c1 * c2 * c4 * nu,
        -128 * c4**2 * nu,
        48 * c1 * c4**2 * nu,
    ]
    br1 = [
        -72 * nu + 12 * rp,
        6 * c1 * rp - 36 * c1 * nu,
        -2 * rp * c1**2 - 96 * c2 * nu + 8 * c2 * rp,
        3 * c1**3 * nu - 12 * c3 * rp - 18 * c3 * nu - 42 * c1 * c2 * nu + 4 * c1 * c2 * rp,
        -32 * nu * c2**2 - 192 * c4 * nu + 16 * c4 * rp + 24 * c1 * c3 * nu - 6 * c1 * c3 * rp,
        8 * c1 * c4 * rp - 84 * c1 * c4 * nu - 12 * c1 * c2**2 * nu + 18 * c1**2 * c3 * nu,
        72 * c3**2 * nu - 128 * c2 * c4 * nu,
        27 * c1 * c3**2 * nu - 48 * c1 * c2 * c4 * nu,
        -128 * c4**2 * nu,
        -48 * c1 * c4**2 * nu,
    ]
    p = [
        60.0,
        0.0,
        4 * (-(c1**2) + 16 * c2),
        0.0,
        4 * (4 * c2**2 + 32 * c4 - 6 * c1 * c3),
        0.0,
        4 * (-9 * c3**2 + 16 * c2 * c4),
        0.0,
        64 * c4**2,
        0.0,
    ]
    ql = [
        6 * rm,
        -3 * c1 * rm,
        rm * (4 * c2 - c1**2),
        rm * (6 * c3 - 2 * c1 * c2),
        rm * (8 * c4 - 3 * c1 * c3),
        -4 * c1 * c4 * rm,
        0.0,
        0.0,
        0.0,
        0.0,
    ]
    qr = [
        6 * rp,
        3 * c1 * rp,
        rp * (4 * c2 - c1**2),
        -rp * (6 * c3 - 2 * c1 * c2),
        rp * (8 * c4 - 3 * c1 * c3),
        4 * c1 * c4 * rp,
        0.0,
        0.0,
        0.0,
        0.0,
    ]
    return {
        "b_l0": bl0,
        "a_0": a0,
        "b_r0": br0,
        "b_l1": bl1,
        "a_1": a1,
        "b_r1": br1,
        "q_l0": ql,
        "p_0": p,
        "q_r0": qr,
        "q_l1": ql,
        "p_1": p,
        "q_r1": qr,
    }


def _check_cut(cut: int) -> int:
    if not isinstance(cut, (int, np.integer)) or not (4 <= cut <= CUT_FULL):
        raise ValueError(f"cut level must be an integer in 4..{CUT_FULL}, got {cut!r}")
    return int(cut)


def assemble_row(fit: ExpFit, nu: complex, h: float, cut: int = CUT_FULL) -> CompactRow:
    """Evaluate the tabulated row at step h, dropping h-powers >= cut.

    cut = 10 keeps everything (the stacks stop at h^9).  Lower cuts
    reproduce the truncation experiments; at least the h^0 terms always
    survive since cut >= 4.
    """
    cut = _check_cut(cut)
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    stacks = coefficient_stacks(fit, nu)
    powers = [h**k for k in range(cut)]
    values = {
        name: sum(stack[k] * powers[k] for k in range(cut))
        for name, stack in stacks.items()
    }
    return CompactRow(**values)


_K1_MAX = 4
_K2_MAX = 2


def derive_row_oracle(fit: ExpFit, nu: complex, h: float, tau: float) -> CompactRow:
    """Re-derive one interior row from the test-function system.

    Substitutes the 15 local solutions u* = y^k1 s^k2 (k1 = 0..4,
    k2 = 0..2) with their manufactured forcings into the stencil, where
    the local model coefficient is theta_hat(y) = theta_eff*exp(g(y))
    with theta_eff = nu*h^2/tau.  The 15x12 system must have rank 11;
    its one-dimensional null space is the row, normalized so that the
    p_0 entry equals 60.  Raises RankError on any other rank (degenerate
    fit or an implementation bug).
    """
    if h <= 0.0 or tau <= 0.0:
        raise ValueError(f"h and tau must be positive, got h={h}, tau={tau}")
    theta_eff = nu * h * h / tau
    ys = (0.0, -h, h)
    # model values of exp(g(y)) at the three offsets, from the stored ratios
    eg = (1.0, 1.0 / fit.r_minus, 1.0 / fit.r_plus)
    ss = (0.0, tau)

    def gprime(y: float) -> float:
        return fit.c1 + 2.0 * fit.c2 * y + 3.0 * fit.c3 * y**2 + 4.0 * fit.c4 * y**3

    def u_star(k1: int, k2: int, s: float, y: float):
        return (y**k1 if k1 else 1.0) * (s**k2 if k2 else 1.0)

    def f_star(k1: int, k2: int, s: float, y: float, egy: float):
        # time derivative minus the flux term of the local model equation
        ut = k2 * (y**k1 if k1 else 1.0) * (s ** (k2 - 1) if k2 > 1 else 1.0) if k2 else 0.0
        space = 0.0
        if k1 > 0:
            space += k1 * gprime(y) * (y ** (k1 - 1) if k1 > 1 else 1.0)
        if k1 > 1:
            space += k1 * (k1 - 1) * (y ** (k1 - 2) if k1 > 2 else 1.0)
        return ut - theta_eff * egy * space * (s**k2 if k2 else 1.0)

    rows = []
    for k1 in range(_K1_MAX + 1):
        for k2 in range(_K2_MAX + 1):
            sol_cols = [u_star(k1, k2, s, y) for s in ss for y in ys]
            frc_cols = [
                -tau * f_star(k1, k2, s, ys[i], eg[i])
                for s in ss
                for i in range(3)
            ]
            rows.append(sol_cols + frc_cols)
    dtype = complex if np.iscomplexobj(np.asarray(nu)) else float
    system = np.array(rows, dtype=dtype)

    v = null_space_1d(system, expected_rank=11)
    # column order: (a0, bl0, br0, a1, bl1, br1 | p0, ql0, qr0, p1, ql1, qr1)
    p0 = v[6]
    if abs(p0) < 1e-12 * np.abs(v).max():
        raise RankError("null vector has vanishing p_0 entry; cannot normalize")
    v = v * (60.0 / p0)
    if dtype is float:
        v = v.real
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
