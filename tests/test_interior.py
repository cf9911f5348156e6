"""Interior six-point rows: tabulated closed forms against the
test-function derivation.

build_system below re-derives the 15x12 homogeneous system from scratch
(independently of the implementation in cpde.interior) so that the
residual checks do not share code with what they are checking.
"""

import math

import numpy as np
import pytest

from cpde.interior import (
    CUT_FULL,
    FIELD_NAMES,
    assemble_row,
    coefficient_stacks,
    derive_row_oracle,
)
from cpde.linalg import RankError
from cpde.theta_fit import fit_interior
from reference import stationary_reduction

rng = np.random.default_rng(1729)

# column order used by the derivation system
COLS = ("a_0", "b_l0", "b_r0", "a_1", "b_l1", "b_r1",
        "p_0", "q_l0", "q_r0", "p_1", "q_l1", "q_r1")


def upow(base, e):
    return 1.0 if e == 0 else base**e


def build_system(fit, nu, h, tau):
    """15x12 system: local solutions y^k1 s^k2 with model forcings."""
    theta_eff = nu * h * h / tau
    ys = (0.0, -h, h)
    eg = (1.0, 1.0 / fit.r_minus, 1.0 / fit.r_plus)

    def gp(y):
        return fit.c1 + 2 * fit.c2 * y + 3 * fit.c3 * y**2 + 4 * fit.c4 * y**3

    rows = []
    for k1 in range(5):
        for k2 in range(3):
            row = [upow(y, k1) * upow(s, k2) for s in (0.0, tau) for y in ys]
            for s in (0.0, tau):
                for i, y in enumerate(ys):
                    ut = k2 * upow(y, k1) * upow(s, k2 - 1) if k2 else 0.0
                    sp = 0.0
                    if k1 > 0:
                        sp += k1 * gp(y) * upow(y, k1 - 1)
                    if k1 > 1:
                        sp += k1 * (k1 - 1) * upow(y, k1 - 2)
                    row.append(-tau * (ut - theta_eff * eg[i] * sp * upow(s, k2)))
            rows.append(row)
    dtype = complex if isinstance(nu, complex) else float
    return np.array(rows, dtype=dtype)


def row_vector(row):
    return np.array([getattr(row, name) for name in COLS])


def random_fit():
    a, b = rng.normal(scale=0.5, size=2)
    c0 = abs(rng.normal()) + 0.1
    theta = lambda x: c0 + math.exp(a * math.sin(x) + b * math.cos(2.0 * x))
    xj = rng.uniform(0.4, 5.8)
    h = rng.uniform(0.02, 0.4)
    return fit_interior(theta, xj, h), h


def test_constant_coefficient_row():
    # theta = 1, nu = 1: every entry is an integer, independent of h
    fit = fit_interior(lambda x: 1.0, 2.0, 0.17)
    row = assemble_row(fit, 1.0, 0.17)
    expected = {
        "b_l0": -84.0, "a_0": 24.0, "b_r0": -84.0,
        "b_l1": -60.0, "a_1": 264.0, "b_r1": -60.0,
        "q_l0": 6.0, "p_0": 60.0, "q_r0": 6.0,
        "q_l1": 6.0, "p_1": 60.0, "q_r1": 6.0,
    }
    for name, want in expected.items():
        assert getattr(row, name) == pytest.approx(want, abs=1e-11), name


def test_stationary_reduction_recovers_classic_compact():
    # summing the layers of the constant-coefficient row gives the
    # classic (1, 10, 1)-weighted fourth-order three-point scheme
    fit = fit_interior(lambda x: 1.0, 1.0, 0.25)
    for nu in (0.5, 1.0, 3.0):
        row = assemble_row(fit, nu, 0.25)
        bl, a, br = stationary_reduction(row)[:3]
        ql, p, qr = stationary_reduction(row)[3:]
        assert (bl, a, br) == pytest.approx((-144.0 * nu, 288.0 * nu, -144.0 * nu))
        assert (ql, p, qr) == pytest.approx((12.0, 120.0, 12.0))


def solution_side_sum(row):
    """b_l0 + a_0 + b_r0 + b_l1 + a_1 + b_r1: the row's first six fields."""
    return sum(row[:6])


def test_solution_side_sums_vanish():
    """Constants solve the homogeneous equation at every cut level."""
    for _ in range(10):
        fit, h = random_fit()
        nu = rng.uniform(0.2, 4.0)
        for cut in (5, 7, CUT_FULL):
            row = assemble_row(fit, nu, h, cut=cut)
            scale = np.abs(row.as_array()).max()
            assert abs(solution_side_sum(row)) < 1e-12 * scale


def test_forcing_diagonals_agree_across_layers():
    # p_0 and p_1 share one coefficient stack whose leading term is 60
    for _ in range(5):
        fit, h = random_fit()
        nu = rng.uniform(0.3, 2.0)
        stacks = coefficient_stacks(fit, nu)
        assert np.array_equal(stacks["p_0"], stacks["p_1"])
        assert stacks["p_0"][0] == 60.0
        row = assemble_row(fit, nu, h)
        assert row.p_0 == row.p_1


def test_closed_form_is_null_vector():
    """The tabulated row solves the derivation system to round-off."""
    worst = 0.0
    for _ in range(40):
        fit, h = random_fit()
        nu = rng.uniform(0.1, 5.0)
        tau = rng.uniform(0.005, 0.6)
        row = assemble_row(fit, nu, h)
        system = build_system(fit, nu, h, tau)
        v = row_vector(row)
        resid = np.abs(system @ v).max()
        scale = np.abs(system).max() * np.abs(v).max()
        worst = max(worst, resid / scale)
    assert worst < 1e-12


def test_closed_form_null_vector_imaginary_nu():
    for _ in range(10):
        fit, h = random_fit()
        nu = 1j * rng.uniform(0.1, 5.0)
        tau = rng.uniform(0.01, 0.5)
        row = assemble_row(fit, nu, h)
        system = build_system(fit, complex(nu), h, tau)
        v = row_vector(row)
        scale = np.abs(system).max() * np.abs(v).max()
        assert np.abs(system @ v).max() < 1e-12 * scale


def test_system_rank_is_eleven():
    for _ in range(20):
        fit, h = random_fit()
        nu = rng.uniform(0.1, 5.0)
        system = build_system(fit, nu, h, rng.uniform(0.01, 0.5))
        assert np.linalg.matrix_rank(system, tol=1e-8 * np.abs(system).max()) == 11


def test_oracle_proportional_to_closed_form():
    for _ in range(30):
        fit, h = random_fit()
        nu = rng.uniform(0.1, 5.0)
        tau = rng.uniform(0.01, 0.5)
        oracle_row = derive_row_oracle(fit, nu, h, tau)
        closed = assemble_row(fit, nu, h)
        got = oracle_row.as_array()
        want = closed.as_array()
        lam = np.vdot(want, got) / np.vdot(want, want)
        assert np.abs(got - lam * want).max() < 1e-8 * np.abs(got).max()
        # the oracle pins p_0 to exactly 60, so the factor is 60/p_0
        assert lam == pytest.approx(60.0 / closed.p_0, rel=1e-7)


def test_oracle_rows_obey_the_scheme_identities():
    """The identities coefficient_stacks builds its stacks from, checked
    on rows derived without them: the layers differ by four times the
    forcing side, mirroring the fit swaps left and right, and constants
    solve the homogeneous row."""
    mirror = {"b_l0": "b_r0", "b_l1": "b_r1", "q_l0": "q_r0", "q_l1": "q_r1"}
    mirror.update({v: k for k, v in mirror.items()})
    for _ in range(10):
        fit, h = random_fit()
        tau = rng.uniform(0.01, 0.5)
        for nu in (rng.uniform(0.1, 5.0), 1j * rng.uniform(0.1, 5.0)):
            row = derive_row_oracle(fit, nu, h, tau)
            tol = 1e-8 * np.abs(row.as_array()).max()
            for new, old, frc in (("b_l1", "b_l0", "q_l0"), ("a_1", "a_0", "p_0"),
                                  ("b_r1", "b_r0", "q_r0")):
                assert abs(getattr(row, new) - getattr(row, old) - 4 * getattr(row, frc)) < tol
            for f0, f1 in (("q_l0", "q_l1"), ("p_0", "p_1"), ("q_r0", "q_r1")):
                assert abs(getattr(row, f0) - getattr(row, f1)) < tol
            assert abs(solution_side_sum(row)) < tol
            flipped = derive_row_oracle(fit.mirrored(), nu, h, tau)
            for name in FIELD_NAMES:
                assert abs(getattr(flipped, name) - getattr(row, mirror.get(name, name))) < tol


def test_oracle_tau_invariance():
    # tau enters the oracle system but cancels in the normalized row
    fit, h = random_fit()
    a = derive_row_oracle(fit, 0.8, h, 0.01).as_array()
    b = derive_row_oracle(fit, 0.8, h, 0.4).as_array()
    assert np.allclose(a, b, rtol=1e-8, atol=1e-8)


def test_cut_drops_high_powers():
    fit, h = random_fit()
    nu = 1.3
    stacks = coefficient_stacks(fit, nu)
    for cut in (5, 8):
        row = assemble_row(fit, nu, h, cut=cut)
        for name in FIELD_NAMES:
            want = sum(stacks[name][k] * h**k for k in range(cut))
            assert getattr(row, name) == pytest.approx(want, rel=1e-13, abs=1e-13)


def _list_sum_row(fit, nu, h, cut):
    """The row as twelve lists of h-power terms summed one by one: the
    stacks written out term by term, kept here to pin assemble_row's bits."""
    c1, c2, c3, c4 = fit.c1, fit.c2, fit.c3, fit.c4
    K = [-72.0, 36 * c1, -96 * c2, 18 * c3 - 3 * c1**3 + 42 * c1 * c2,
         -32 * c2**2 - 192 * c4 + 24 * c1 * c3, 84 * c1 * c4 + 12 * c1 * c2**2 - 18 * c1**2 * c3,
         72 * c3**2 - 128 * c2 * c4, -27 * c1 * c3**2 + 48 * c1 * c2 * c4, -128 * c4**2,
         48 * c1 * c4**2]
    Q = [6.0, -3 * c1, 4 * c2 - c1**2, 6 * c3 - 2 * c1 * c2, 8 * c4 - 3 * c1 * c3, -4 * c1 * c4,
         0.0, 0.0, 0.0, 0.0]
    P = [60.0, 0.0, 4 * (-(c1**2) + 16 * c2), 0.0, 4 * (4 * c2**2 + 32 * c4 - 6 * c1 * c3), 0.0,
         4 * (-9 * c3**2 + 16 * c2 * c4), 0.0, 64 * c4**2, 0.0]
    sol_l = [nu * k for k in K]
    sol_r = [(-1) ** i * w for i, w in enumerate(sol_l)]
    ql = [fit.r_minus * q for q in Q]
    qr = [(-1) ** i * fit.r_plus * q for i, q in enumerate(Q)]
    centre = [-(wl + wr) for wl, wr in zip(sol_l, sol_r)]

    def layers(sol, frc):
        return [w - 2 * f for w, f in zip(sol, frc)], [w + 2 * f for w, f in zip(sol, frc)]

    bl0, bl1 = layers(sol_l, ql)
    br0, br1 = layers(sol_r, qr)
    a0, a1 = layers(centre, P)
    stacks = (bl0, a0, br0, bl1, a1, br1, ql, P, qr, ql, P, qr)
    powers = [h**k for k in range(cut)]
    return [sum(stack[k] * powers[k] for k in range(cut)) for stack in stacks]


@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
def test_rows_are_bitwise_the_list_sum(n, complex_kind):
    h = 2 * math.pi / n
    tau = 0.3 * h * h
    nodes = np.arange(1, n) * h
    for theta in (lambda x: np.cos(x) ** 2 + 1.0, lambda x: np.exp(1.5 * x)):
        fits = [fit_interior(theta, nodes, h)]  # a node array, then single nodes
        fits += [fit_interior(theta, float(xj), h) for xj in nodes[::7]]
        for fit in fits:
            nu = fit.theta_center * tau / (h * h)
            if complex_kind:
                nu = 1j * nu
            dtype = complex if complex_kind else float
            for cut in range(4, CUT_FULL + 1):
                got = assemble_row(fit, nu, h, cut)
                for name, want in zip(FIELD_NAMES, _list_sum_row(fit, nu, h, cut)):
                    a = np.asarray(getattr(got, name), dtype)
                    assert a.shape == np.shape(fit.c1)
                    assert a.tobytes() == np.asarray(want, dtype).tobytes(), (cut, name)


def test_cut_validation():
    fit, h = random_fit()
    with pytest.raises(ValueError):
        assemble_row(fit, 1.0, h, cut=3)
    with pytest.raises(ValueError):
        assemble_row(fit, 1.0, h, cut=11)
    with pytest.raises(ValueError):
        assemble_row(fit, 1.0, -0.1)


def test_oracle_rejects_bad_steps():
    fit, h = random_fit()
    with pytest.raises(ValueError):
        derive_row_oracle(fit, 1.0, h, 0.0)
    with pytest.raises(ValueError):
        derive_row_oracle(fit, 1.0, -h, 0.1)


def test_stacks_stop_at_h9():
    fit, _ = random_fit()
    stacks = coefficient_stacks(fit, 1.0)
    assert set(stacks) == set(FIELD_NAMES)
    assert all(len(s) == CUT_FULL for s in stacks.values())
