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
    """Dense (A_new, A_old) with the wall corners filled in.

    Every assembly has this form, five-point classic ones included.
    """
    a_new = dense(mats.a_new)
    a_old = dense(mats.a_old)
    a_new[0, 2], a_new[-1, -3] = mats.corner_new
    a_old[0, 2], a_old[-1, -3] = mats.corner_old
    return a_new, a_old


def dense_operators(mats):
    """Dense (A_new, A_old, B_new, B_old) with wall corners filled in.

    B is in scaled units (multiply by tau for the literal forcing
    operator).  Five-point classic right-hand sides have no node-local
    matrix representation and raise.
    """
    if mats.b_new is None:
        raise ValueError("five-point forcing has no nodal matrix form")
    a_new, a_old = dense_layers(mats)
    b_new = dense(mats.b_new)
    b_old = dense(mats.b_old)
    if mats._fix_left is not None:
        b_new[0, :3] = mats._fix_left.b_new_lit / mats.grid.tau
        b_old[0, :3] = mats._fix_left.b_old_lit / mats.grid.tau
    if mats._fix_right is not None:
        b_new[-1, -3:] = mats._fix_right.b_new_lit[::-1] / mats.grid.tau
        b_old[-1, -3:] = mats._fix_right.b_old_lit[::-1] / mats.grid.tau
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
