"""Grids and the manufactured-solution catalogue.

Every stored forcing is re-derived here from the stored derivative
callables through the equation itself; a sign slip in any hand-written
forcing shows up immediately.
"""

import dataclasses
import math

import numpy as np
import pytest

from cpde.core import (
    Dirichlet,
    Neumann,
    ScalarKind,
    TwoModeForcing,
    TwoModeWall,
    grid_for,
    grid_nodes,
    make_grid,
    sample_solution,
    theta_grid_max,
)
from cpde.steppers import _FORCING_CHUNK, Compact, _block_steps, _engine, _march_affine, run
from cpde.theta_fit import CoefficientDomainError, TWO_PI

rng = np.random.default_rng(3203)


# ---------------------------------------------------------------------------
# grids


def test_make_grid_basic():
    g = make_grid(100, 1.0, 1.0, 2.0)
    assert g.h == pytest.approx(TWO_PI / 100)
    assert g.x.shape == (101,)
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(TWO_PI)
    # raw tau = h^2/2 gives 506.6 steps, snapped up to 507
    assert g.n_steps == 507
    assert g.tau * g.n_steps == pytest.approx(1.0)
    raw = g.h * g.h / 2.0
    assert g.tau <= raw * (1.0 + 1e-9)


def test_make_grid_single_step():
    # raw tau beyond the horizon collapses to one step
    g = make_grid(10, 5.0, 1.0, 1.0)
    assert g.n_steps == 1 and g.tau == 1.0


def test_make_grid_snapping_is_exact():
    for n in (10, 20, 50):
        for nu in (0.5, 1.0, 100.0):
            g = make_grid(n, nu, 1.0, 3.7)
            assert g.n_steps >= 1
            assert g.n_steps * g.tau == pytest.approx(g.t_final, rel=1e-15)


def test_make_grid_complex_courant_uses_magnitude():
    a = make_grid(20, 2.0, 1.0, 1.0)
    b = make_grid(20, 2.0j, 1.0, 1.0)
    assert a.tau == b.tau and a.n_steps == b.n_steps


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(10, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(10, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(10, 0.0, 1.0, 1.0)
    for courant in (math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            make_grid(10, courant, 1.0, 1.0)
    for t_final in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            make_grid(10, 1.0, t_final, 1.0)
    for courant in (-1.0, -1j, complex(-1.0, 1.0), complex(1.0, -1.0)):
        with pytest.raises(ValueError, match="negative"):
            make_grid(10, courant, 1.0, 1.0)


def test_a_non_integer_interval_count_is_named_as_such():
    for n in (10.0, "10"):
        with pytest.raises(ValueError, match=f"the interval count must be an integer, got {n!r}"):
            make_grid(n, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="need at least 4 intervals, got 3"):
        grid_nodes(3)


def test_theta_grid_max():
    x = np.linspace(0.0, TWO_PI, 33)
    assert theta_grid_max(lambda v: math.cos(v) ** 2 + 1.0, x) == pytest.approx(2.0)


def test_theta_grid_max_rejects_nonpositive():
    x = np.linspace(0.0, TWO_PI, 9)
    with pytest.raises(CoefficientDomainError, match="positive"):
        theta_grid_max(lambda v: math.cos(v), x)


def test_theta_grid_max_rejects_overflow():
    x = np.linspace(0.0, TWO_PI, 9)
    with pytest.raises(CoefficientDomainError, match="not finite"):
        theta_grid_max(lambda v: math.inf if v > 1.0 else 1.0, x)


def test_grid_for_uses_sampled_max():
    s = sample_solution("s1")
    g = grid_for(s, 20, 1.0, 1.0)
    direct = make_grid(20, 1.0, 1.0, 2.0)  # max of cos^2+1 on the nodes
    assert g.tau == direct.tau


# ---------------------------------------------------------------------------
# manufactured solutions


ALL_SAMPLES = [
    ("s1", {}),
    ("s2", {"k": 2}),
    ("s2", {"k": 3}),
    ("s2", {"k": 4}),
    ("s3", {"a": 1, "b": 1, "omega": 1}),
    ("s3", {"a": 1, "b": 2, "omega": 10}),
    ("sn", {}),
    ("snll", {}),
]


def residual(sample, kind, t, x):
    """forcing minus (u_t - kappa * (theta' u_x + theta u_xx))."""
    kp = kind.kappa
    theta = np.array([sample.problem.theta(float(v)) for v in x])
    lhs = sample.problem.forcing(t, x)
    rhs = sample.exact_dt(t, x) - kp * (
        sample.theta_dx(x) * sample.exact_dx(t, x) + theta * sample.exact_dxx(t, x)
    )
    return np.max(np.abs(lhs - rhs))


@pytest.mark.parametrize("name,params", ALL_SAMPLES)
def test_forcing_matches_chain_rule(name, params):
    sample = sample_solution(name, **params)
    kind = sample.problem.kind
    x = rng.uniform(0.0, TWO_PI, size=40)
    for t in (0.0, 0.37, 1.0):
        scale = max(1.0, np.max(np.abs(sample.problem.forcing(t, x))))
        assert residual(sample, kind, t, x) < 1e-10 * scale


@pytest.mark.parametrize("name,params", ALL_SAMPLES)
def test_forcing_matches_chain_rule_other_kind(name, params):
    """The same field must satisfy the other equation kind as well."""
    sample = sample_solution(name, **params)
    flipped = (
        ScalarKind.REAL
        if sample.problem.kind is ScalarKind.COMPLEX
        else ScalarKind.COMPLEX
    )
    other = sample_solution(name, kind=flipped, **params)
    x = rng.uniform(0.0, TWO_PI, size=24)
    scale = max(1.0, np.max(np.abs(other.problem.forcing(0.6, x))))
    assert residual(other, flipped, 0.6, x) < 1e-10 * scale


def both_kinds(name, params):
    """The sample in its own kind, then in the other kind."""
    own = sample_solution(name, **params)
    other = ScalarKind.REAL if own.problem.kind is ScalarKind.COMPLEX else ScalarKind.COMPLEX
    return own, sample_solution(name, kind=other, **params)


@pytest.mark.parametrize("name,params", ALL_SAMPLES)
def test_forcing_block_rows_match_scalar_calls(name, params):
    """A (k, 1) time column against a (1, m) node row gives the k scalar rows,
    bit for bit."""
    times = np.linspace(0.0, 3.0, 9)
    x = rng.uniform(0.0, TWO_PI, size=33)
    for sample in both_kinds(name, params):
        block = sample.problem.forcing(times[:, None], x[None, :])
        assert block.shape == (times.size, x.size)
        for k, t in enumerate(times):
            assert np.array_equal(block[k], sample.problem.forcing(t, x))


@pytest.mark.parametrize("t_shape,x_shape", [
    ((9,), (33,)), ((9,), (1, 33)), ((9, 1), (33,)), ((9, 1), (2, 33)), ((1, 9), (1, 33)),
    ((9, 2), (1, 33)), ((9, 1, 1), (1, 33)), ((9, 1), (1, 1, 33))])
def test_two_mode_forcing_refuses_other_call_forms(t_shape, x_shape):
    """Only a scalar time, or a (k, 1) time column with a (1, m) node row."""
    forcing = sample_solution("s1").problem.forcing
    with pytest.raises(ValueError, match="two-mode forcing takes"):
        forcing(np.zeros(t_shape), np.zeros(x_shape))
    assert forcing(np.zeros(t_shape[:1] + (1,)), np.zeros((1, 33))).shape == (t_shape[0], 33)
    assert forcing(0.5, np.zeros(x_shape)).shape == x_shape


@pytest.mark.parametrize("name,params", ALL_SAMPLES)
def test_run_evaluates_sample_forcings_in_blocks(name, params):
    """One forcing call per input block plus one scalar check, never one per
    step or per chunk."""
    grid = make_grid(10, 1.0, 600 * (TWO_PI / 10) ** 2, 1.0)
    assert grid.n_steps == 600
    for sample in both_kinds(name, params):
        time_dims = []

        def spy(t, x, forcing=sample.problem.forcing):
            time_dims.append(np.ndim(t))
            return forcing(t, x)

        run(dataclasses.replace(sample.problem, forcing=spy), grid, Compact())
        assert len(time_dims) == math.ceil(grid.n_steps / _block_steps(grid.n + 1)) + 1
        assert time_dims.count(0) == 1


def counting(forcing):
    """A copy of the two-mode ``forcing`` whose modes count their calls."""
    calls = {"f_c": 0, "f_s": 0}

    def counted(name):
        def mode(x):
            calls[name] += 1
            return getattr(forcing, name)(x)

        return mode

    return TwoModeForcing(forcing.omega, counted("f_c"), counted("f_s")), calls


def plain(forcing, t, x):
    """The two-mode formula, with f_c and f_s evaluated on every call."""
    return np.cos(forcing.omega * t) * forcing.f_c(x) + np.sin(forcing.omega * t) * forcing.f_s(x)


@pytest.mark.parametrize("kind", list(ScalarKind))
def test_opaque_march_evaluates_the_modes_once_per_node_row(kind):
    """A three-chunk opaque march calls f_c and f_s once: its (1, m) block rows
    and the (m,) row of its scalar-time check share one node row.  It ends
    bitwise where the plain formula does."""
    s = sample_solution("s3", a=2.0, kind=kind)
    forcing, calls = counting(s.problem.forcing)
    grid = make_grid(10, 1.0, 600 * (TWO_PI / 10) ** 2, 1.0)
    problem = dataclasses.replace(s.problem, forcing=lambda t, x: forcing(t, x))
    assert grid.n_steps > 2 * _FORCING_CHUNK and _engine(problem, grid) is _march_affine
    got = run(problem, grid, Compact()).final_state
    assert calls == {"f_c": 1, "f_s": 1}
    formula = dataclasses.replace(s.problem, forcing=lambda t, x: plain(s.problem.forcing, t, x))
    assert np.array_equal(got, run(formula, grid, Compact()).final_state)


@pytest.mark.parametrize("kind", list(ScalarKind))
def test_kept_modes_serve_only_an_equal_node_row(kind):
    """Kept modes give bitwise the plain formula for a column-by-row call and a
    scalar-time call, and one kept row serves both forms on the same nodes.
    A new row of the same shape is evaluated again, and so are the same
    array refilled in place and a replaced mode."""
    s = sample_solution("s1", kind=kind)
    forcing, calls = counting(s.problem.forcing)
    times, x = np.linspace(0.0, 3.0, 9)[:, None], rng.uniform(0.0, TWO_PI, size=(1, 33))

    def check(t, row):
        assert np.array_equal(forcing(t, row), plain(s.problem.forcing, t, row))

    for _ in range(3):
        check(times, x)
        check(0.7, x[0])
    assert calls == {"f_c": 1, "f_s": 1}
    y = x + 0.5
    check(times, y)
    assert calls == {"f_c": 2, "f_s": 2}
    y[:] = rng.uniform(0.0, TWO_PI, size=y.shape)
    check(times, y)
    check(0.7, y)
    assert calls == {"f_c": 3, "f_s": 3}
    forcing.f_s = np.zeros_like  # a replaced mode is read anew
    assert np.array_equal(forcing(0.7, y), plain(TwoModeForcing(forcing.omega, forcing.f_c,
                                                                np.zeros_like), 0.7, y))
    assert calls == {"f_c": 5, "f_s": 3}


def central_difference(f, x, h, order):
    """Fourth-order central difference of f at x: first or second derivative."""
    f2, f1, f0, g1, g2 = (f(x + k * h) for k in (-2, -1, 0, 1, 2))
    if order == 1:
        return (f2 - 8.0 * f1 + 8.0 * g1 - g2) / (12.0 * h)
    return (-f2 + 16.0 * f1 - 30.0 * f0 + 16.0 * g1 - g2) / (12.0 * h * h)


@pytest.mark.parametrize("name,params", ALL_SAMPLES)
def test_stored_derivatives_match_the_field(name, params):
    """exact_dt, exact_dx and exact_dxx against finite differences of exact."""
    h = 1e-3
    x = rng.uniform(0.0, TWO_PI, size=24)
    for sample in both_kinds(name, params):
        for t in (0.0, 0.37, 1.0):
            checks = (
                (sample.exact_dt(t, x), central_difference(lambda s: sample.exact(s, x), t, h, 1)),
                (sample.exact_dx(t, x), central_difference(lambda s: sample.exact(t, s), x, h, 1)),
                (sample.exact_dxx(t, x), central_difference(lambda s: sample.exact(t, s), x, h, 2)),
            )
            for stored, approx in checks:
                scale = max(1.0, np.abs(stored).max())
                assert np.abs(stored - approx).max() <= 1e-8 * scale


def test_initial_state_matches_exact():
    for name, params in ALL_SAMPLES:
        s = sample_solution(name, **params)
        x = np.linspace(0.0, TWO_PI, 17)
        assert np.allclose(s.problem.initial(x), s.exact(0.0, x), atol=1e-14)


def test_dirichlet_walls_track_exact():
    s = sample_solution("s1")
    bc = s.problem.boundary
    assert isinstance(bc, Dirichlet)
    for t in (0.0, 0.5, 1.0):
        assert bc.left(t) == pytest.approx(complex(s.exact(t, np.array([0.0]))[0]))
        assert bc.right(t) == pytest.approx(complex(s.exact(t, np.array([TWO_PI]))[0]))


@pytest.mark.parametrize("name,params", ALL_SAMPLES + [("s3", {"a": 2, "omega": 0})])
def test_samples_declare_their_modes(name, params):
    """Every catalogue forcing and Dirichlet wall carries (omega, cos mode, sin
    mode), and the declared wall modes give u(t, 0) and u(t, 2 pi) to rounding."""
    t = np.linspace(0.0, 3.0, 31)
    for sample in both_kinds(name, params):
        forcing, bc = sample.problem.forcing, sample.problem.boundary
        assert isinstance(forcing, TwoModeForcing)
        walls = (bc.left, bc.right) if isinstance(bc, Dirichlet) else ()
        for wall, x in zip(walls, (0.0, TWO_PI)):
            assert isinstance(wall, TwoModeWall) and wall.omega == forcing.omega
            want = sample.exact(t, x)
            assert np.abs(wall(t) - want).max() <= 1e-15 * np.abs(want).max()


def test_neumann_samples_have_flat_walls():
    for name in ("sn", "snll"):
        s = sample_solution(name)
        assert isinstance(s.problem.boundary, Neumann)
        walls = np.array([0.0, TWO_PI])
        for t in (0.0, 0.4, 1.0):
            assert np.max(np.abs(s.exact_dx(t, walls))) < 1e-13


def test_sample_kinds():
    assert sample_solution("s1").problem.kind is ScalarKind.REAL
    assert sample_solution("snll").problem.kind is ScalarKind.COMPLEX
    assert sample_solution("s1", kind=ScalarKind.COMPLEX).problem.kind is ScalarKind.COMPLEX


def test_unknown_sample():
    with pytest.raises(ValueError, match="unknown sample"):
        sample_solution("nope")


@pytest.mark.parametrize("name,params,match", [
    ("s1", {"bogus": 3}, "unknown parameter 'bogus' for sample 's1'; it takes no parameters"),
    ("snll", {"k": 2}, "unknown parameter 'k'"),
    ("s2", {"a": 1.0}, "it takes k"),
    ("s3", {"k": 2}, "it takes a, b, omega"),
    ("s2", {"k": 2.5}, "must be an integer"),
    ("s2", {"k": math.inf}, "k must be finite"),
    ("s3", {"omega": math.nan}, "omega must be finite"),
    ("s3", {"a": -math.inf}, "a must be finite"),
    ("s3", {"b": math.inf}, "b must be finite"),
])
def test_sample_rejects_parameters_it_cannot_honour(name, params, match):
    with pytest.raises(ValueError, match=match):
        sample_solution(name, **params)


def test_integral_float_power_is_accepted():
    assert sample_solution("s2", k=3.0).params == {"k": 3}
    assert sample_solution("s3", a=2, b=1, omega=0).params == {"a": 2.0, "b": 1.0, "omega": 0.0}


def test_s2_k_changes_field():
    a = sample_solution("s2", k=2)
    b = sample_solution("s2", k=4)
    x = np.array([1.3])
    assert not np.allclose(a.exact(0.5, x), b.exact(0.5, x))


def test_s3_theta_is_exponential():
    s = sample_solution("s3", a=2, b=1, omega=1)
    assert s.problem.theta(1.0) == pytest.approx(math.exp(2.0))
