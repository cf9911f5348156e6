"""Dense and closed-form references that the tests compare the package against.

None of this runs inside ``cpde``: the package marches and probes its banded
operators, and these helpers spell the same operators out as dense matrices,
or give a closed form, so that a test can check the banded result by
``solve_dense`` or by a formula.
"""

import numpy as np


def dense(t) -> np.ndarray:
    """A ``Tridiag`` as a dense matrix."""
    m = t.size
    a = np.zeros((m, m), dtype=np.result_type(t.lower, t.diag, t.upper))
    a[np.arange(m), np.arange(m)] = t.diag
    a[np.arange(1, m), np.arange(m - 1)] = t.lower
    a[np.arange(m - 1), np.arange(1, m)] = t.upper
    return a


def dense_layers(mats):
    """Dense (A_new, A_old) with the wall corners (alpha_2) filled in.

    Every assembly has this form, five-point classic ones included.
    """
    a_new = dense(mats.a_new)
    a_old = dense(mats.a_old)
    for (row, corner), wall in zip(((0, 2), (-1, -3)), mats.walls or ()):
        a_new[row, corner], a_old[row, corner] = wall.alpha_new[2], wall.alpha_old[2]
    return a_new, a_old


def dense_operators(mats):
    """Dense (A_new, A_old, B_new, B_old) with the wall rows filled in.

    B is in scaled units (multiply by tau for the literal forcing
    operator).  The two B layers differ only in a patched wall's row,
    which is taken from its ``BoundaryRow``.  Five-point classic
    right-hand sides have no node-local matrix representation and raise.
    """
    if mats.b is None:
        raise ValueError("five-point forcing has no nodal matrix form")
    a_new, a_old = dense_layers(mats)
    b_new, b_old = dense(mats.b), dense(mats.b)
    patched = mats.walls if mats._patch else ()
    for (row, cols), wall in zip(((0, slice(0, 3)), (-1, slice(-1, -4, -1))), patched):
        b_new[row, cols] = wall.beta_new_literal / mats.grid.tau
        b_old[row, cols] = wall.beta_old_literal / mats.grid.tau
    return a_new, a_old, b_new, b_old


def classic_uniform_spectrum(n: int, nu: float) -> np.ndarray:
    """Closed-form Dirichlet spectrum of the classic scheme at theta = 1.

    The interior modes on the period are sin(k x / 2), k = 1..n-1, and
    the second difference maps each to -4 sin^2(k pi / (2n)) times
    itself.  That gives lambda_k = (1 - 2 nu s)/(1 + 2 nu s) with
    s = sin^2(k pi / (2n)) and nu = tau theta / h^2.
    """
    k = np.arange(1, n)
    s = np.sin(0.5 * np.pi * k / n) ** 2
    return (1.0 - 2.0 * nu * s) / (1.0 + 2.0 * nu * s)


def stationary_reduction(row):
    """Layer-summed ``CompactRow`` of the steady problem -(theta u')' = f.

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
