"""The local coefficient model: exponential of a quartic.

The closed-form fits are checked against a dense Vandermonde solve and
against cases where the model is exact by construction.
"""

import math

import numpy as np
import pytest

from cpde.theta_fit import (
    CoefficientDomainError,
    fit_boundary_left,
    fit_boundary_right,
    fit_interior,
    sample_theta,
    TWO_PI,
)

rng = np.random.default_rng(91)


def quartic_theta(t0, cs, center):
    def theta(x):
        y = x - center
        return t0 * math.exp(y * (cs[0] + y * (cs[1] + y * (cs[2] + y * cs[3]))))

    return theta


def vandermonde_fit(theta, offsets, center):
    t0 = theta(center)
    a = np.array([[y, y**2, y**3, y**4] for y in offsets])
    b = np.array([math.log(theta(center + y) / t0) for y in offsets])
    return np.linalg.solve(a, b)


def test_interior_exact_on_model():
    for _ in range(25):
        cs = rng.normal(scale=0.5, size=4)
        t0 = math.exp(rng.normal())
        xj = rng.uniform(0.3, 6.0)
        h = rng.uniform(0.02, 0.4)
        fit = fit_interior(quartic_theta(t0, cs, xj), xj, h)
        assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], cs, rtol=1e-9, atol=1e-9)
        assert fit.theta_center == pytest.approx(t0)


def test_interior_matches_dense_solve():
    theta = lambda x: 1.0 + 0.5 * math.sin(x) ** 2
    for h in (0.3, 0.05):
        xj = 2.0
        fit = fit_interior(theta, xj, h)
        ref = vandermonde_fit(theta, (-h, -0.5 * h, 0.5 * h, h), xj)
        assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], ref, rtol=1e-8, atol=1e-10)


def test_interior_ratios():
    theta = lambda x: math.exp(x)
    fit = fit_interior(theta, 1.0, 0.2)
    assert fit.r_minus == pytest.approx(math.exp(0.2))
    assert fit.r_plus == pytest.approx(math.exp(-0.2))


def test_boundary_left_exact_on_model():
    for _ in range(25):
        cs = rng.normal(scale=0.5, size=4)
        t0 = math.exp(rng.normal())
        h = rng.uniform(0.02, 0.4)
        fit = fit_boundary_left(quartic_theta(t0, cs, 0.0), h)
        assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], cs, rtol=1e-8, atol=1e-8)


def test_boundary_left_matches_dense_solve():
    theta = lambda x: 2.0 + math.cos(x)
    h = 0.1
    fit = fit_boundary_left(theta, h)
    ref = vandermonde_fit(theta, (0.5 * h, h, 1.5 * h, 2.0 * h), 0.0)
    assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], ref, rtol=1e-7, atol=1e-9)


def test_boundary_ratios_are_model_values():
    theta = lambda x: 2.0 + math.cos(x)
    h = 0.1
    fit = fit_boundary_left(theta, h)
    assert fit.r_plus == pytest.approx(math.exp(-fit.g(h)))
    assert fit.r_minus == pytest.approx(math.exp(-fit.g(-h)))
    # the inward ratio reproduces the sampled one to fit accuracy
    assert fit.r_plus == pytest.approx(theta(0.0) / theta(h), rel=1e-6)


def test_boundary_right_is_reflection():
    theta = lambda x: 1.0 + 0.3 * math.sin(x)
    h = 0.15
    right = fit_boundary_right(theta, h)
    mirrored = fit_boundary_left(lambda s: theta(TWO_PI - s), h)
    assert right.c1 == pytest.approx(-mirrored.c1)
    assert right.c2 == pytest.approx(mirrored.c2)
    assert right.c3 == pytest.approx(-mirrored.c3)
    assert right.c4 == pytest.approx(mirrored.c4)
    assert right.theta_center == pytest.approx(theta(TWO_PI))


def test_boundary_right_is_the_mirrored_left_fit_bitwise():
    theta = lambda x: 1.0 + 0.3 * math.sin(x) + 0.1 * math.cos(3.0 * x)
    for h in (0.3, 0.05):
        reflected = fit_boundary_left(lambda s: theta(TWO_PI - s), h)
        assert fit_boundary_right(theta, h) == reflected.mirrored()


def test_mirrored_flips_odd_coefficients_and_swaps_ratios():
    fit = fit_interior(lambda x: 1.0 + 0.3 * math.sin(x), 1.3, 0.1)
    m = fit.mirrored()
    assert (m.c1, m.c2, m.c3, m.c4) == (-fit.c1, fit.c2, -fit.c3, fit.c4)
    assert (m.theta_center, m.r_minus, m.r_plus) == (fit.theta_center, fit.r_plus, fit.r_minus)
    assert m.mirrored() == fit


def test_interior_fit_over_a_node_array_matches_each_node():
    theta = lambda x: 1.0 + 0.5 * math.sin(x) ** 2
    xs = np.linspace(0.5, 5.5, 9)
    fits = fit_interior(theta, xs, 0.1)
    for i, x in enumerate(xs):
        one = fit_interior(theta, float(x), 0.1)
        for field in ("c1", "c2", "c3", "c4", "theta_center", "r_minus", "r_plus"):
            want = getattr(one, field)
            assert getattr(fits, field)[i] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_boundary_right_exact_on_model():
    cs = np.array([0.2, -0.1, 0.05, 0.01])
    theta = quartic_theta(1.5, cs, TWO_PI)
    fit = fit_boundary_right(theta, 0.1)
    assert np.allclose([fit.c1, fit.c2, fit.c3, fit.c4], cs, rtol=1e-8, atol=1e-9)


def test_constant_coefficient_gives_zero_exponent():
    fit = fit_interior(lambda x: 3.0, 1.0, 0.1)
    assert fit.c1 == fit.c2 == fit.c3 == fit.c4 == 0.0
    assert fit.r_minus == 1.0 and fit.r_plus == 1.0


def test_nonpositive_coefficient_raises_with_abscissa():
    theta = lambda x: 1.0 - x  # crosses zero at x = 1
    with pytest.raises(CoefficientDomainError, match="x=1.0"):
        fit_interior(theta, 1.0, 0.1)
    with pytest.raises(CoefficientDomainError, match="x=1.2"):
        fit_interior(lambda x: 1.2 - x, 1.1, 0.1)


def test_negative_at_wall_raises():
    with pytest.raises(CoefficientDomainError):
        fit_boundary_left(lambda x: -1.0, 0.1)


def test_negative_at_right_wall_names_the_physical_abscissa():
    with pytest.raises(CoefficientDomainError, match=f"x={TWO_PI}"):
        fit_boundary_right(lambda x: -1.0, 0.1)


X_GRID = np.array([[0.0, 1.0, 2.5], [3.0, 4.5, 6.0]])


def _recorded(theta):
    calls = []
    return calls, lambda x: calls.append(type(x)) or theta(x)


def test_sample_theta_calls_a_numpy_theta_once_on_the_array():
    calls, theta = _recorded(lambda x: np.cos(x) ** 2 + 1.0)
    vals = sample_theta(theta, X_GRID)
    # one array call, then spot checks at the first and last abscissa
    assert calls == [np.ndarray, float, float]
    assert vals.shape == X_GRID.shape
    assert np.array_equal(vals, np.cos(X_GRID) ** 2 + 1.0)


def test_sample_theta_calls_a_math_closure_once_per_float():
    calls, theta = _recorded(lambda x: math.cos(x) ** 2 + 1.0)
    vals = sample_theta(theta, X_GRID)
    assert calls == [np.ndarray] + [float] * X_GRID.size
    assert vals.tolist() == [[math.cos(x) ** 2 + 1.0 for x in row] for row in X_GRID.tolist()]


def _on_arrays(misbehaviour):
    """2 + sin x on a float, ``misbehaviour`` on an array."""
    return lambda x: 2.0 + np.sin(x) if np.ndim(x) == 0 else misbehaviour(x)


@pytest.mark.parametrize("misbehaviour", [
    lambda x: 3.0 if x > 7.0 else 2.0,  # ValueError: an array's truth value
    lambda x: x[7],  # IndexError
    lambda x: (2.0 + np.sin(x)).T,  # the wrong shape
    lambda x: np.full(x.shape, 2.0 + np.sin(x.flat[0])),  # agrees at the first abscissa only
    lambda x: (2.0 + np.sin(x)).astype(complex),  # not real
], ids=["raises", "index", "shape", "disagrees", "complex"])
def test_sample_theta_falls_back_to_floats(misbehaviour):
    calls, theta = _recorded(_on_arrays(misbehaviour))
    vals = sample_theta(theta, X_GRID)
    assert calls[0] is np.ndarray and calls[-X_GRID.size:] == [float] * X_GRID.size
    assert vals.tolist() == [[float(2.0 + np.sin(x)) for x in row] for row in X_GRID.tolist()]


def test_sample_theta_broadcasts_a_constant():
    vals = sample_theta(lambda x: 2.5, X_GRID)
    assert vals.shape == X_GRID.shape and (vals == 2.5).all()
    vals[0, 0] = 1.0  # a writable array of its own


@pytest.mark.parametrize("bad_at", [2.5, 0.0, 6.0], ids=["inside", "first", "last"])
def test_coefficient_error_names_the_same_abscissa_on_both_paths(bad_at):
    def scalar(x):
        return math.nan if x == bad_at else -1.0 if x > bad_at else 1.0

    def array(x):
        return np.where(x == bad_at, np.nan, np.where(x > bad_at, -1.0, 1.0))

    for theta in (scalar, array):
        with pytest.raises(CoefficientDomainError, match=f"not finite, got nan at x={bad_at}"):
            sample_theta(theta, X_GRID)
