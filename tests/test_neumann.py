"""Wall rows for the no-flux boundary.

As with the interior rows, the independent check re-derives the wall
system from scratch: monomial solutions of the local model equation,
excluding the x-linear terms that violate the wall condition.
"""

import math

import numpy as np
import pytest

from cpde.neumann import (
    BOUNDARY_BASIS,
    REDUCED_BASIS,
    BoundaryRow,
    ClassicNeumann,
    CompactThreePoint,
    MainTerms,
    ReducedTwoPoint,
    boundary_oracle,
    build_left_row,
    build_right_row,
)
from cpde.theta_fit import TWO_PI, fit_boundary_left, fit_boundary_right

rng = np.random.default_rng(40961)


def upow(base, e):
    return 1.0 if e == 0 else base**e


def wall_system(fit, nu0, h, tau, basis=BOUNDARY_BASIS, points=3):
    theta_eff = nu0 * h * h / tau
    xs = [k * h for k in range(points)]

    def gp(x):
        return fit.c1 + 2 * fit.c2 * x + 3 * fit.c3 * x**2 + 4 * fit.c4 * x**3

    rows = []
    for k1, k2 in basis:
        row = []
        for t in (tau, 0.0):
            row.extend(upow(x, k1) * upow(t, k2) for x in xs)
        for t in (tau, 0.0):
            for x in xs[:2]:
                ut = k2 * upow(x, k1) * upow(t, k2 - 1) if k2 else 0.0
                sp = 0.0
                if k1 > 0:
                    sp += k1 * gp(x) * upow(x, k1 - 1)
                if k1 > 1:
                    sp += k1 * (k1 - 1) * upow(x, k1 - 2)
                row.append(-(ut - theta_eff * math.exp(fit.g(x)) * sp * upow(t, k2)))
        rows.append(row)
    dtype = complex if isinstance(nu0, complex) else float
    return np.array(rows, dtype=dtype)


def wall_vector(row: BoundaryRow, points=3):
    return np.concatenate(
        [
            row.alpha_new[:points],
            row.alpha_old[:points],
            row.beta_new_literal[:2],
            row.beta_old_literal[:2],
        ]
    )


def random_wall_fit():
    a, b = rng.normal(scale=0.4, size=2)
    c0 = abs(rng.normal()) + 0.2
    theta = lambda x: c0 + math.exp(a * math.sin(x) + b * math.cos(2.0 * x))
    h = rng.uniform(0.03, 0.4)
    return theta, fit_boundary_left(theta, h), h


def test_constant_coefficient_closed_form():
    fit = fit_boundary_left(lambda x: 1.0, 0.1)
    nu0, tau = 2.0, 0.05
    row = build_left_row(fit, nu0, 0.1, tau, CompactThreePoint())
    assert np.allclose(row.alpha_new, [6 * nu0 + 8, 16.0, -6 * nu0])
    assert np.allclose(row.alpha_old, [6 * nu0 - 8, -16.0, -6 * nu0])
    assert np.allclose(row.beta_new, [4 * tau * nu0, 8 * tau * nu0, 0.0])
    assert np.array_equal(row.beta_new, row.beta_old)


def test_constant_coefficient_equals_main_terms():
    # the h-dependent corrections all vanish when theta is flat
    fit = fit_boundary_left(lambda x: 3.0, 0.2)
    full = build_left_row(fit, 1.5, 0.2, 0.1, CompactThreePoint())
    main = build_left_row(fit, 1.5, 0.2, 0.1, MainTerms())
    assert np.allclose(full.alpha_new, main.alpha_new, atol=1e-12)
    assert np.allclose(full.alpha_old, main.alpha_old, atol=1e-12)
    assert np.allclose(full.beta_new, main.beta_new, atol=1e-12)


def test_left_closed_form_solves_wall_system():
    worst = 0.0
    for _ in range(40):
        theta, fit, h = random_wall_fit()
        nu0 = rng.uniform(0.2, 4.0)
        tau = rng.uniform(0.01, 0.5)
        row = build_left_row(fit, nu0, h, tau, CompactThreePoint())
        system = wall_system(fit, nu0, h, tau)
        v = wall_vector(row)
        scale = np.abs(system).max() * np.abs(v).max()
        worst = max(worst, np.abs(system @ v).max() / scale)
    assert worst < 1e-12


def test_left_closed_form_matches_oracle():
    for _ in range(30):
        theta, fit, h = random_wall_fit()
        nu0 = rng.uniform(0.2, 4.0)
        tau = rng.uniform(0.01, 0.5)
        closed = build_left_row(fit, nu0, h, tau, CompactThreePoint())
        oracle = boundary_oracle(fit, nu0, h, tau)
        for attr in ("alpha_new", "alpha_old", "beta_new", "beta_old"):
            a = getattr(closed, attr)
            b = getattr(oracle, attr)
            assert np.abs(a - b).max() < 1e-8 * max(np.abs(a).max(), 1.0), attr


def test_left_closed_form_matches_oracle_imaginary_nu():
    theta, fit, h = random_wall_fit()
    tau = 0.07
    for nu0 in (0.5j, 3.0j):
        closed = build_left_row(fit, nu0, h, tau, CompactThreePoint())
        oracle = boundary_oracle(fit, nu0, h, tau)
        for attr in ("alpha_new", "alpha_old", "beta_new"):
            a = getattr(closed, attr)
            b = getattr(oracle, attr)
            assert np.abs(a - b).max() < 1e-8 * max(np.abs(a).max(), 1.0)


def test_oracle_wall_layers_differ_by_four_times_the_forcing_side():
    # the identity the compact wall row is built from, on a derived row
    for _ in range(10):
        theta, fit, h = random_wall_fit()
        tau = rng.uniform(0.01, 0.5)
        for nu0 in (rng.uniform(0.2, 4.0), 1j * rng.uniform(0.2, 4.0)):
            row = boundary_oracle(fit, nu0, h, tau)
            tol = 1e-8 * np.abs(row.alpha_new).max()
            assert np.abs(row.beta_new - row.beta_old).max() < tol * abs(nu0 * tau)
            gap = row.alpha_new - row.alpha_old - 4 * row.beta_new / (nu0 * tau)
            assert np.abs(gap).max() < tol


def test_right_row_solves_mirrored_system():
    """The right wall is the left wall of the reflected problem."""
    for _ in range(20):
        a, b = rng.normal(scale=0.4, size=2)
        c0 = abs(rng.normal()) + 0.2
        theta = lambda x: c0 + math.exp(a * math.sin(x) + b * math.cos(2.0 * x))
        h = rng.uniform(0.03, 0.3)
        tau = rng.uniform(0.01, 0.4)
        nu_n = rng.uniform(0.2, 4.0)
        fit_r = fit_boundary_right(theta, h)
        row = build_right_row(fit_r, nu_n, h, tau, CompactThreePoint())
        reflected = fit_boundary_left(lambda s: theta(TWO_PI - s), h)
        system = wall_system(reflected, nu_n, h, tau)
        v = wall_vector(row)
        scale = np.abs(system).max() * np.abs(v).max()
        assert np.abs(system @ v).max() < 1e-12 * scale


def test_right_row_matches_mirrored_oracle():
    theta = lambda x: 1.0 + 0.4 * math.cos(x)
    h, tau, nu_n = 0.12, 0.04, 1.7
    fit_r = fit_boundary_right(theta, h)
    row = build_right_row(fit_r, nu_n, h, tau, CompactThreePoint())
    mirrored = fit_boundary_left(lambda s: theta(TWO_PI - s), h)
    oracle = boundary_oracle(mirrored, nu_n, h, tau)
    for attr in ("alpha_new", "alpha_old", "beta_new", "beta_old"):
        assert np.allclose(getattr(row, attr), getattr(oracle, attr), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("nu0", [1.1, 37.5, 1j, 100j])
@pytest.mark.parametrize("n", [10, 100, 2000])
def test_reduced_two_point_row(n, nu0):
    theta = lambda x: 0.7 + math.exp(0.3 * math.sin(x) - 0.2 * math.cos(2.0 * x))
    h, tau = TWO_PI / n, 0.06
    fit = fit_boundary_left(theta, h)
    row = build_left_row(fit, nu0, h, tau, ReducedTwoPoint())
    # third entries are structurally zero in the two-point variant
    assert row.alpha_new[2] == 0.0 and row.alpha_old[2] == 0.0
    assert row.beta_new[2] == 0.0
    system = wall_system(fit, nu0, h, tau, basis=REDUCED_BASIS, points=2)
    v = np.concatenate(
        [row.alpha_new[:2], row.alpha_old[:2], row.beta_new_literal[:2], row.beta_old_literal[:2]]
    )
    scale = np.abs(system).max() * np.abs(v).max()
    assert np.abs(system @ v).max() < 1e-10 * scale
    assert np.linalg.matrix_rank(system, tol=1e-9 * np.abs(system).max()) == 7
    # The SVD row carries rounding that grows with |nu0|: 5.0e-12 |nu0|
    # relative at most on this coefficient, 1.6e-11 |nu0| over 200 random
    # ones (2.2e-13 at nu0 = 1.1).  The closed form meets the system above
    # to 1e-16 or better.
    oracle = boundary_oracle(fit, nu0, h, tau, REDUCED_BASIS, points=2)
    tol = 3e-11 * max(abs(nu0), 1.0)
    for attr in ("alpha_new", "alpha_old", "beta_new", "beta_old"):
        a, b = getattr(row, attr), getattr(oracle, attr)
        assert np.abs(a - b).max() <= tol * np.abs(a).max(), attr


def test_classic_wall_row():
    row = build_left_row(None, 0.9, 0.1, 0.05, ClassicNeumann(0.25))
    assert np.allclose(row.alpha_new, [-0.25, 0.25, 0.0])
    assert np.allclose(row.alpha_old, [-0.75, 0.75, 0.0])
    assert np.allclose(row.beta_new, 0.0)


def test_classic_epsilon_validation():
    with pytest.raises(ValueError, match="epsilon"):
        ClassicNeumann(0.0)
    with pytest.raises(ValueError, match="epsilon"):
        ClassicNeumann(1.5)
    ClassicNeumann(1.0)  # inclusive at the top


def test_beta_literal_scaling():
    theta, fit, h = random_wall_fit()
    nu0 = 2.5
    row = build_left_row(fit, nu0, h, 0.1, CompactThreePoint())
    assert np.allclose(row.beta_new_literal * nu0, row.beta_new)


def test_oracle_rejects_bad_point_count():
    theta, fit, h = random_wall_fit()
    with pytest.raises(ValueError, match="2 or 3"):
        boundary_oracle(fit, 1.0, h, 0.1, points=4)


def test_unknown_variant_rejected():
    theta, fit, h = random_wall_fit()
    with pytest.raises(TypeError):
        build_left_row(fit, 1.0, h, 0.1, "3pt")
    with pytest.raises(TypeError):
        build_right_row(fit, 1.0, h, 0.1, 42)
