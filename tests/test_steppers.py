"""One-step and full-march behaviour of both schemes.

The central check compares the optimized banded step (fused layers,
corner elimination, Thomas solve) against a literal dense evaluation of
the two-layer form

    A_new u1 + A_old u0 = tau * (B_old f0 + B_new f1)

for every boundary treatment that has a nodal matrix representation.
"""

import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest

from cpde.core import (
    Dirichlet,
    Neumann,
    ProblemSpec,
    ScalarKind,
    TwoModeForcing,
    TwoModeWall,
    grid_for,
    make_grid,
    sample_solution,
)
from cpde.interior import assemble_row
from cpde.linalg import (
    SingularMatrixError,
    Tridiag,
    TridiagLU,
    factor_tridiag,
    solve_dense,
    solve_tridiag,
)
from cpde.neumann import ClassicNeumann, CompactThreePoint, MainTerms, ReducedTwoPoint
from cpde import analysis, steppers
from cpde.steppers import (
    Classic,
    ClassicRhsVariant,
    Compact,
    _march_affine,
    _march_closed,
    _march_stepwise,
    _step,
    assemble_classic,
    assemble_compact,
    c_norm_error,
    run,
)
from cpde.theta_fit import TWO_PI, CoefficientDomainError, fit_interior
from reference import dense_operators

rng = np.random.default_rng(777)


def dense_step(mats, problem, u0, f0, f1, t1):
    a_new, a_old, b_new, b_old = dense_operators(mats)
    tau = mats.grid.tau
    rhs = tau * (b_old @ f0 + b_new @ f1) - a_old @ u0
    if isinstance(problem.boundary, Dirichlet):
        rhs[0] = problem.boundary.left(t1)
        rhs[-1] = problem.boundary.right(t1)
    return solve_dense(a_new, rhs)


def walls_at(problem, t):
    """The Dirichlet data of ``problem`` at time t, or None for Neumann walls."""
    bc = problem.boundary
    return (bc.left(t), bc.right(t)) if isinstance(bc, Dirichlet) else None


def dirichlet_problem(kind=ScalarKind.REAL):
    s = sample_solution("s1", kind=kind)
    return s.problem


def neumann_problem(kind=ScalarKind.REAL):
    name = "snll" if kind is ScalarKind.COMPLEX else "sn"
    return sample_solution(name).problem


CASES = [
    ("compact dirichlet", dirichlet_problem(), lambda p, g: assemble_compact(p, g)),
    (
        "compact neumann 3pt",
        neumann_problem(),
        lambda p, g: assemble_compact(p, g, neumann_variant=CompactThreePoint()),
    ),
    (
        "compact neumann reduced",
        neumann_problem(),
        lambda p, g: assemble_compact(p, g, neumann_variant=ReducedTwoPoint()),
    ),
    (
        "compact neumann main",
        neumann_problem(),
        lambda p, g: assemble_compact(p, g, neumann_variant=MainTerms()),
    ),
    (
        "classic dirichlet pointwise",
        dirichlet_problem(),
        lambda p, g: assemble_classic(p, g),
    ),
    (
        "classic dirichlet threepoint",
        dirichlet_problem(),
        lambda p, g: assemble_classic(p, g, rhs=ClassicRhsVariant.THREE_POINT),
    ),
    (
        "classic neumann half",
        neumann_problem(),
        lambda p, g: assemble_classic(p, g, neumann_variant=ClassicNeumann(0.5)),
    ),
    (
        "classic neumann skew",
        neumann_problem(),
        lambda p, g: assemble_classic(p, g, neumann_variant=ClassicNeumann(0.8)),
    ),
]


@pytest.mark.parametrize("label,problem,assemble", CASES, ids=[c[0] for c in CASES])
def test_step_matches_dense_two_layer_form(label, problem, assemble):
    grid = make_grid(12, 1.0, 1.0, 2.0)
    mats = assemble(problem, grid)
    dtype = mats.kind.dtype
    u0 = np.asarray(problem.initial(grid.x), dtype=dtype)
    f0 = np.asarray(problem.forcing(0.0, grid.x), dtype=dtype)
    f1 = np.asarray(problem.forcing(grid.tau, grid.x), dtype=dtype)
    got = _step(mats, u0, f0, f1, bc_vals=walls_at(problem, grid.tau))
    want = dense_step(mats, problem, u0, f0, f1, grid.tau)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() < 1e-11 * scale


def test_step_matches_dense_complex_kind():
    problem = dirichlet_problem(ScalarKind.COMPLEX)
    grid = make_grid(10, 1.0, 0.5, 2.0)
    mats = assemble_compact(problem, grid)
    u0 = np.asarray(problem.initial(grid.x), dtype=np.complex128)
    f0 = np.asarray(problem.forcing(0.0, grid.x), dtype=np.complex128)
    f1 = np.asarray(problem.forcing(grid.tau, grid.x), dtype=np.complex128)
    got = _step(mats, u0, f0, f1, bc_vals=walls_at(problem, grid.tau))
    want = dense_step(mats, problem, u0, f0, f1, grid.tau)
    assert np.abs(got - want).max() < 1e-11 * max(1.0, np.abs(want).max())


BANDS = ("lower", "diag", "upper")


def layer_gap(mats):
    """Entries of A_new - A_old - 4B on the bands and at the wall corners
    (B has none: beta_2 = 0), without the Dirichlet wall rows.  Read off
    the bands, since the dense layers at N = 2000 take hundreds of MB."""
    lower, diag, upper = (
        getattr(mats.a_new, band) - getattr(mats.a_old, band) - 4.0 * getattr(mats.b, band)
        for band in BANDS
    )
    if mats.walls is None:
        lower, diag, upper = lower[:-1], diag[1:-1], upper[1:]
    corners = [w.alpha_new[2] - w.alpha_old[2] for w in mats.walls or ()]
    return np.concatenate((lower, diag, upper, corners))


@pytest.mark.parametrize("kind", [ScalarKind.REAL, ScalarKind.COMPLEX])
def test_layer_difference_identity_compact(kind):
    """A_new - A_old equals 4B on every row for compact assemblies.

    Every compact wall row is one closed form whose two forcing layers
    coincide bitwise, so B holds one beta per wall, and the layers meet
    the identity to rounding.
    """
    cases = [(dirichlet_problem(kind), CompactThreePoint())] + [
        (neumann_problem(kind), variant)
        for variant in (CompactThreePoint(), ReducedTwoPoint(), MainTerms())
    ]
    for problem, variant in cases:
        for n in (14, 200, 2000):
            mats = assemble_compact(problem, make_grid(n, 1.0, 1.0, 2.0), neumann_variant=variant)
            walls = mats.walls or ()
            scale = max(np.abs(np.concatenate([getattr(mats.a_new, b) for b in BANDS])).max(),
                        max((abs(w.alpha_new[2]) for w in walls), default=0.0))
            assert np.abs(layer_gap(mats)).max() <= 1e-13 * scale, (variant, n)
            for w in walls:
                assert np.array_equal(w.beta_new, w.beta_old), (variant, n)


def test_compact_walls_make_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("null_space_1d called")

    monkeypatch.setattr("cpde.neumann.null_space_1d", no_svd)
    for kind in (ScalarKind.REAL, ScalarKind.COMPLEX):
        for variant in (CompactThreePoint(), ReducedTwoPoint(), MainTerms()):
            for n in (10, 200, 2000):
                assemble_compact(neumann_problem(kind), make_grid(n, 1.0, 1.0, 2.0),
                                 neumann_variant=variant)


def test_layer_difference_identity_classic():
    grid = make_grid(14, 1.0, 1.0, 2.0)
    mats = assemble_classic(dirichlet_problem(), grid)
    a_new, a_old, _, _ = dense_operators(mats)
    diff = (a_new - a_old - np.eye(grid.n + 1))[1:-1]
    assert np.abs(diff).max() < 1e-12


def test_mul_counts():
    problem_d = dirichlet_problem()
    problem_n = neumann_problem()
    for n in (10, 40):
        grid = make_grid(n, 1.0, 1.0, 2.0)
        assert assemble_compact(problem_d, grid).muls_per_step == 8 * n + 2
        assert assemble_compact(problem_n, grid).muls_per_step == 8 * n + 4
        assert assemble_classic(problem_d, grid).muls_per_step == 5 * n + 1
        # the epsilon = 1/2 classic wall is fused, costing nothing extra
        assert (
            assemble_classic(problem_n, grid, neumann_variant=ClassicNeumann(0.5)).muls_per_step
            == 5 * n + 1
        )
        # a skewed epsilon forces a two-entry patch at each wall
        assert (
            assemble_classic(problem_n, grid, neumann_variant=ClassicNeumann(0.8)).muls_per_step
            == 5 * n + 5
        )
        # on the compact step a classic closure is always patched: the
        # epsilon = 1/2 patch has no nonzero entry, the skewed one two per wall
        half = assemble_compact(problem_n, grid, neumann_variant=ClassicNeumann(0.5))
        assert half._patch and half.muls_per_step == 8 * n + 2
        skew = assemble_compact(problem_n, grid, neumann_variant=ClassicNeumann(0.8))
        assert skew.muls_per_step == 8 * n + 2 + 4
    # the two-point closure rides inside the B4 apply at every grid size
    for n in (10, 50, 100, 200):
        grid = analysis._matrix_grid(n, 100.0, problem_n.theta)
        mats = assemble_compact(problem_n, grid, neumann_variant=ReducedTwoPoint())
        assert mats.muls_per_step == 8 * n + 2, n


def test_run_reports_constant_cost():
    s = sample_solution("s1")
    grid = grid_for(s, 10, 1.0, 1.0)
    rep = run(s.problem, grid, Compact())
    assert rep.steps == grid.n_steps
    assert rep.muls_per_step == 8 * 10 + 2


def test_constant_state_is_preserved():
    const = 0.75
    for boundary in (
        Dirichlet(lambda t: const, lambda t: const),
        Neumann(),
    ):
        problem = ProblemSpec(
            theta=lambda x: 1.0 + 0.5 * math.sin(x) ** 2,
            forcing=lambda t, x: np.zeros_like(x),
            initial=lambda x: np.full_like(x, const),
            boundary=boundary,
            kind=ScalarKind.REAL,
        )
        grid = make_grid(16, 1.0, 0.25, 1.5)
        rep = run(problem, grid, Compact())
        assert np.abs(rep.final_state - const).max() < 1e-12


def test_linear_in_time_state_is_exact():
    # u = c*t solves u_t = div(theta grad u) + c for any theta
    c = 1.3
    problem = ProblemSpec(
        theta=lambda x: 2.0 + math.cos(x),
        forcing=lambda t, x: np.full_like(x, c),
        initial=lambda x: np.zeros_like(x),
        boundary=Neumann(),
        kind=ScalarKind.REAL,
    )
    grid = make_grid(12, 1.0, 1.0, 3.0)
    rep = run(problem, grid, Compact())
    assert np.abs(rep.final_state - c * grid.t_final).max() < 1e-10


def test_pointwise_forcing_fallback_matches_vectorized():
    """Closures that reject array times must produce identical runs."""
    s = sample_solution("s1")
    base = s.problem

    def scalar_only_forcing(t, x):
        if np.ndim(t) != 0:
            raise TypeError("scalar time only")
        return base.forcing(t, x)

    awkward = ProblemSpec(
        theta=base.theta,
        forcing=scalar_only_forcing,
        initial=base.initial,
        boundary=base.boundary,
        kind=base.kind,
    )
    grid = grid_for(s, 10, 1.0, 0.5)
    a = run(opaque(base), grid, Compact())
    b = run(awkward, grid, Compact())
    assert np.array_equal(a.final_state, b.final_state)
    assert a.muls_per_step == b.muls_per_step


def test_scalar_wall_callables_match_vectorized():
    s = sample_solution("s1")
    base = s.problem
    exact = s.exact

    bc = Dirichlet(
        left=lambda t: float(exact(float(t), 0.0)),
        right=lambda t: float(exact(float(t), TWO_PI)),
    )
    awkward = ProblemSpec(
        theta=base.theta,
        forcing=base.forcing,
        initial=base.initial,
        boundary=bc,
        kind=base.kind,
    )
    grid = grid_for(s, 10, 1.0, 0.5)
    a = run(opaque(base), grid, Compact())
    b = run(awkward, grid, Compact())
    assert np.abs(a.final_state - b.final_state).max() < 1e-14


def test_five_point_march_runs():
    s = sample_solution("s1")
    grid = grid_for(s, 10, 1.0, 0.25)
    rep = run(s.problem, grid, Classic(rhs=ClassicRhsVariant.FIVE_POINT))
    err = c_norm_error(rep.final_state, s.exact(grid.t_final, grid.x))
    assert err < 0.5  # second order, coarse grid; just a sanity bound


def test_compact_beats_classic_on_one_grid():
    s = sample_solution("s1")
    grid = grid_for(s, 20, 1.0, 1.0)
    exact = s.exact(grid.t_final, grid.x)
    e_compact = c_norm_error(run(s.problem, grid, Compact()).final_state, exact)
    e_classic = c_norm_error(run(s.problem, grid, Classic()).final_state, exact)
    assert e_compact < 0.1 * e_classic


def test_c_norm_error():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.5, 2.0])
    assert c_norm_error(a, b) == 0.5
    z = np.array([1.0 + 1.0j])
    assert c_norm_error(z, np.zeros(1)) == pytest.approx(math.sqrt(2.0))


def test_unknown_scheme_descriptor():
    s = sample_solution("s1")
    grid = grid_for(s, 8, 1.0, 0.5)
    with pytest.raises(TypeError):
        run(s.problem, grid, "compact")


def with_steps(grid, n_steps):
    """``grid`` with its step tau kept and ``n_steps`` steps."""
    return dataclasses.replace(grid, n_steps=n_steps, t_final=n_steps * grid.tau)


def opaque(problem):
    """``problem`` with its forcing and Dirichlet walls behind plain closures,
    which hide any declared modes: ``run`` then picks the opaque march or
    the stepwise engine."""
    forcing, boundary = problem.forcing, problem.boundary
    if isinstance(boundary, Dirichlet):
        left, right = boundary.left, boundary.right
        boundary = Dirichlet(lambda t: left(t), lambda t: right(t))
    return dataclasses.replace(problem, forcing=lambda t, x: forcing(t, x), boundary=boundary)


def takes_affine(problem, grid):
    return steppers._engine(problem, grid) is _march_affine


def assemble(problem, grid, scheme):
    if isinstance(scheme, Compact):
        return assemble_compact(problem, grid, scheme.cut, scheme.neumann)
    return assemble_classic(problem, grid, scheme.rhs, scheme.neumann)


def march_with(march, problem, grid, scheme):
    """The final state of ``march`` with the set-up ``run`` gives it."""
    mats = assemble(problem, grid, scheme)
    u = np.asarray(problem.initial(grid.x), dtype=mats.kind.dtype).copy()
    return march(mats, u, problem, grid.n_steps)


def engine_deviation(problem, grid, scheme, *marches):
    """Largest relative max deviation of ``marches`` (default: the affine
    march) from the stepwise march."""
    ref = march_with(_march_stepwise, problem, grid, scheme)
    assert np.isfinite(ref).all()
    return max(
        np.abs(march_with(march, problem, grid, scheme) - ref).max() / np.abs(ref).max()
        for march in marches or (_march_affine,)
    )


WALL_SCHEMES = {
    "compact": Compact(),
    "compact-cut5": Compact(cut=5),
    "classic-pointwise": Classic(),
    "classic-threepoint": Classic(rhs=ClassicRhsVariant.THREE_POINT),
    "classic-fivepoint": Classic(rhs=ClassicRhsVariant.FIVE_POINT),
}
NEUMANN_SCHEMES = {
    **WALL_SCHEMES,
    "compact-reduced": Compact(neumann=ReducedTwoPoint()),
    "compact-main": Compact(neumann=MainTerms()),
    "classic-skew": Classic(neumann=ClassicNeumann(0.8)),
}
ENGINE_CASES = [
    pytest.param(name, kind, scheme, id=f"{name}-{kind.value}-{label}")
    for name in ("s1", "s2", "s3")
    for kind in ScalarKind
    for label, scheme in WALL_SCHEMES.items()
] + [
    pytest.param(name, None, scheme, id=f"{name}-{label}")
    for name in ("sn", "snll")
    for label, scheme in NEUMANN_SCHEMES.items()
]


@pytest.mark.parametrize(
    "name,kind,scheme,n_steps",
    [pytest.param(*p.values, 300, id=p.id) for p in ENGINE_CASES]
    + [pytest.param(*p.values, n, id=f"{p.id}-{n}-steps") for n in (2075, 261, 288, 271)
       for p in ENGINE_CASES],
)
def test_affine_engine_matches_stepwise(name, kind, scheme, n_steps):
    """300 steps cross one forcing-chunk boundary.  2075 (the benchmark's
    stiff part) end in a 27-step chunk and 261 in a 5-step one: partial
    chunks of more and of fewer steps than one block of powers.  288 end in
    a chunk of two whole blocks, with no leftover steps for the state's
    own powers, and 271 in one of 15 leftover steps, the most there are."""
    s = sample_solution(name, kind=kind)
    grid = with_steps(grid_for(s, 16, 1.0, 1.0), n_steps)
    assert engine_deviation(s.problem, grid, scheme) <= 1e-12


def on_both_parities(n):
    """ENGINE_CASES on n intervals, an even n (an odd node count, with a
    middle node), under their own ids, then on n - 1 (an even node count)
    with ids ending in -N<n-1>."""
    return [pytest.param(*p.values, n, id=p.id) for p in ENGINE_CASES] + [
        pytest.param(*p.values, n - 1, id=f"{p.id}-N{n - 1}") for p in ENGINE_CASES]


@pytest.mark.parametrize("name,kind,scheme,n", on_both_parities(16))
def test_closed_form_matches_stepwise(name, kind, scheme, n):
    s = sample_solution(name, kind=kind)
    grid = with_steps(grid_for(s, n, 1.0, 1.0), 300)
    assert steppers._engine(s.problem, grid) is _march_closed
    assert engine_deviation(s.problem, grid, scheme, _march_closed) <= 1e-11


@pytest.mark.parametrize("name,kind,scheme,n", on_both_parities(50))
def test_closed_form_matches_stepwise_over_2000_steps(name, kind, scheme, n):
    """N=50: measured up to 8.1e-13 apart (snll, compact cut 5); N=49: up to
    1.7e-13 (snll, compact)."""
    s = sample_solution(name, kind=kind)
    grid = with_steps(grid_for(s, n, 1.0, 1.0), 2000)
    assert engine_deviation(s.problem, grid, scheme, _march_closed) <= 1e-12


def extended_power(problem, grid, scheme):
    """G^n y_0 in long double from the float64 G that ``_march_closed`` powers."""
    mats = assemble(problem, grid, scheme)
    u = np.asarray(problem.initial(grid.x), dtype=mats.kind.dtype)
    wide = np.clongdouble if mats.kind is ScalarKind.COMPLEX else np.longdouble
    step_map = steppers._closed_map(mats, problem, u.dtype).astype(wide)
    y, n = np.concatenate((u, (1.0, 0.0))).astype(wide), grid.n_steps
    while n:
        if n & 1:
            y = step_map @ y
        n >>= 1
        if n:
            step_map = step_map @ step_map
    return y[:-2]


LONG_CLOSED_CASES = [
    # criterion 3's stiff row at N=20: 29,054 steps, measured 8.2e-13
    pytest.param("s3", {"a": 2.0}, None, Compact(), 20, 100.0, None, 1e-12,
                 id="s3-a2-N20-courant100"),
    # a unimodular spectrum keeps every rounding of 100,000 steps: measured
    # 2.0e-12, where the stepwise march is 4.9e-12 from the same reference
    pytest.param("snll", {}, None, Compact(), 20, 1j, 100_000, 5e-12, id="snll-N20-100k-steps"),
]


@pytest.mark.parametrize(
    "name,params,kind,scheme,n,courant,n_steps,bound",
    [pytest.param(name, {}, kind, scheme, n, 1.0, 2000, 1e-12, id=p.id)
     for p in on_both_parities(50) for name, kind, scheme, n in [p.values]] + LONG_CLOSED_CASES,
)
def test_closed_form_matches_an_extended_precision_power(
    name, params, kind, scheme, n, courant, n_steps, bound
):
    """The binary power's own rounding, against the same power in long double.
    The N=50 cases measured up to 7.4e-13, where the stepwise march is up to
    9.2e-13 from the same references, and the N=49 ones up to 5.1e-14."""
    s = sample_solution(name, kind=kind, **params)
    grid = grid_for(s, n, courant, 1.0)
    grid = with_steps(grid, n_steps) if n_steps else grid
    assert steppers._engine(s.problem, grid) is _march_closed
    want = extended_power(s.problem, grid, scheme)
    assert relative_gap(march_with(_march_closed, s.problem, grid, scheme), want) <= bound


def test_affine_engine_matches_stepwise_long_complex_march():
    s = sample_solution("snll")
    grid = with_steps(grid_for(s, 20, 1j, 1.0), 2048)
    assert engine_deviation(s.problem, grid, Compact()) <= 1e-12


@pytest.fixture
def solve_calls(monkeypatch):
    """The solver type (``Tridiag`` or ``TridiagLU``) of each ``solve_tridiag``
    call of the steppers."""
    calls = []
    solve = steppers.solve_tridiag

    def counting_solve(t, rhs):
        calls.append(type(t))
        return solve(t, rhs)

    monkeypatch.setattr(steppers, "solve_tridiag", counting_solve)
    return calls


def test_opaque_and_closed_marches_match_stepwise_over_the_stiff_march():
    """All 29,054 steps of the s3 a=2 courant-100 march at N=20, for the opaque
    march and the closed form (measured 1.5e-13 and 2.4e-13)."""
    s = sample_solution("s3", a=2.0)
    grid = grid_for(s, 20, 100.0, 1.0)
    assert grid.n_steps == 29054
    assert engine_deviation(s.problem, grid, Compact(), _march_affine, _march_closed) <= 1e-12


def test_opaque_and_closed_marches_match_stepwise_over_100k_complex_steps():
    """snll at courant i, where max|lambda| is 1 + O(eps): 100,000 steps, for the
    opaque march and the closed form (measured 1.3e-13 and 2.9e-12)."""
    s = sample_solution("snll")
    grid = with_steps(grid_for(s, 20, 1j, 1.0), 100_000)
    assert engine_deviation(s.problem, grid, Compact(), _march_affine, _march_closed) <= 1e-11


def test_closed_form_stays_accurate_at_resonance():
    """A forcing whose mu = e^(i omega tau) sits within 1e-12 of a mode of P."""
    s = sample_solution("snll")
    grid = with_steps(grid_for(s, 16, 1j, 1.0), 2000)
    m = grid.n + 1
    lam = np.linalg.eigvals(steppers._probe(assemble_compact(s.problem, grid), range(m)).T)
    j = np.argmin(np.abs(np.angle(lam) - 1.0))
    omega = (np.angle(lam[j]) + 1e-12) / grid.tau
    assert abs(np.exp(1j * omega * grid.tau) - lam[j]) < 2e-12
    f = s.problem.forcing
    problem = dataclasses.replace(s.problem, forcing=TwoModeForcing(omega, f.f_c, f.f_s))
    assert engine_deviation(problem, grid, Compact(), _march_closed) <= 1e-11


@pytest.mark.parametrize(
    "name,courant,hidden",
    [pytest.param("s3", 100.0, False, id="s3-100.0"),
     pytest.param("snll", 1j, False, id="snll-1j"),
     pytest.param("s3", 100.0, True, id="s3-100.0-opaque")],
)
def test_closed_form_makes_no_eigensolve_or_inverse(monkeypatch, solve_calls, name, courant,
                                                    hidden):
    """One batched probe and matrix products only, on either kind, and so for
    the opaque march of a problem that hides its modes."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the march called a dense eigensolve or inverse")

    for fn in ("eig", "eigvals", "inv"):
        monkeypatch.setattr(np.linalg, fn, forbidden)
    s = sample_solution(name)
    problem = opaque(s.problem) if hidden else s.problem
    grid = with_steps(grid_for(s, 20, courant, 1.0), 600)
    assert steppers._engine(problem, grid) is (_march_affine if hidden else _march_closed)
    got = run(problem, grid, Compact()).final_state
    assert len(solve_calls) == 1
    ref = march_with(_march_stepwise, problem, grid, Compact())
    assert relative_gap(got, ref) <= 1e-12


def test_closed_form_flush_moves_no_result(monkeypatch):
    """s3 a=2 at N=200: the probed G has entries below 1e-150 of their
    column's largest, and zeroing them leaves the final state as it was."""
    s = sample_solution("s3", a=2.0)
    grid = grid_for(s, 200, 100.0, 1.0)
    top = np.abs(steppers._closed_map(assemble_compact(s.problem, grid), s.problem, float)[:-2])
    assert ((top > 0) & (top < steppers._CLOSED_FLUSH * top.max(axis=0))).any()
    flushed = run(s.problem, grid, Compact()).final_state
    monkeypatch.setattr(steppers, "_CLOSED_FLUSH", 0.0)
    assert relative_gap(run(s.problem, grid, Compact()).final_state, flushed) <= 1e-15


# ---------------------------------------------------------------------------
# the closed form of mirror-symmetric real Dirichlet problems


@pytest.fixture
def probe_heights(monkeypatch):
    """The number of unit states of each ``_probe`` call of the steppers."""
    heights = []
    probe = steppers._probe

    def spy(mats, states, *inputs):
        heights.append(len(states))
        return probe(mats, states, *inputs)

    monkeypatch.setattr(steppers, "_probe", spy)
    return heights


@pytest.mark.parametrize("kind", list(ScalarKind))
@pytest.mark.parametrize("n", [20, 100])
def test_a_half_probe_has_the_full_probes_bits(n, kind):
    """A row's bits depend only on its own state and inputs: the probe of the
    first ceil(m/2) unit states and two inputs is bitwise the full probe's
    rows for them, which keeps the probed half of a mirrored G at the full
    probe's bits.  Below ``_BLOCKED_MIN_NODES`` a real row also has the bits
    of its state stepped alone (measured: every row of a complex one, and of
    either kind at N=100, differs from it in the last digits)."""
    s = sample_solution("s1", kind=kind)
    mats = assemble_compact(s.problem, grid_for(s, n, 1.0 if kind is ScalarKind.REAL else 1j, 1.0))
    m, dtype = n + 1, kind.dtype
    half = m - m // 2
    local = np.random.default_rng(n)
    f0, f1, g = (local.normal(size=shape).astype(dtype) for shape in ((2, m), (2, m), (2, 2)))
    full = steppers._probe(mats, range(m), f0, f1, g)
    got = steppers._probe(mats, range(half), f0, f1, g)
    assert np.array_equal(got[:half], full[:half]) and np.array_equal(got[half:], full[m:])
    if m < steppers._BLOCKED_MIN_NODES and kind is ScalarKind.REAL:
        zero = np.zeros(m, dtype)
        alone = [_step(mats, np.eye(m, dtype=dtype)[j], zero, zero, bc_vals=(0.0, 0.0))
                 for j in range(half)]
        assert np.array_equal(np.array(alone), got[:half])


@pytest.mark.parametrize("n", [15, 16, 100])
def test_a_mirrored_map_fills_p_by_the_exchange(n):
    """P e_(m-1-j) = J P e_j for the columns the half probe leaves out; the
    probed columns, the middle one of an odd m among them, are the probe's."""
    s = sample_solution("s1")
    mats = assemble_compact(s.problem, grid_for(s, n, 1.0, 1.0))
    step_map = steppers._closed_map(mats, s.problem, float)
    m, k = n + 1, (n + 1) // 2
    assert steppers._mirrored(mats)
    assert np.array_equal(step_map[:m, m - k : m], step_map[:m, :k][::-1, ::-1])
    assert np.array_equal(step_map[:m, : m - k], steppers._probe(mats, range(m - k)).T)


@pytest.mark.parametrize("n", [49, 50])
@pytest.mark.parametrize("label", WALL_SCHEMES)
@pytest.mark.parametrize("name", ["s1", "s2"])
def test_mirrored_real_dirichlet_marches_probe_half_in_one_solve(probe_heights, solve_calls,
                                                                 name, label, n):
    """s1 and s2 (theta = cos^2 x + 1) of the real kind on every wall scheme:
    one probe of ceil(m/2) unit states, one solve, and the stepwise state."""
    s = sample_solution(name)
    scheme = WALL_SCHEMES[label]
    grid = with_steps(grid_for(s, n, 1.0, 1.0), 600)
    assert steppers._mirrored(assemble(s.problem, grid, scheme))
    got = run(s.problem, grid, scheme).final_state
    assert probe_heights == [n + 1 - (n + 1) // 2] and len(solve_calls) == 1
    assert relative_gap(got, march_with(_march_stepwise, s.problem, grid, scheme)) <= 1e-12


def bumped_near_the_left_wall(problem):
    """``problem`` with theta scaled by 1 + 1e-9 exp(-(x/0.3)^2): no longer
    symmetric about pi, by far more than the band test's tolerance."""
    theta = problem.theta
    return dataclasses.replace(problem, theta=lambda x: theta(x) * (1.0 + 1e-9 * np.exp(-(x / 0.3) ** 2)))


FULL_PROBE_CASES = [
    pytest.param(name, kind, scheme, bump, id=f"{name}-{kind.value if kind else 'own'}-{label}")
    for name, kind, bump in [("s3", ScalarKind.REAL, False), ("s3", ScalarKind.COMPLEX, False),
                             ("s1", ScalarKind.COMPLEX, False), ("s2", ScalarKind.COMPLEX, False),
                             ("sn", None, False), ("snll", None, False)]
    for label, scheme in [("compact", Compact()), ("classic", Classic())]
] + [pytest.param("s1", ScalarKind.REAL, scheme, True, id=f"s1-real-bumped-{label}")
     for label, scheme in [("compact", Compact()), ("classic", Classic())]]


@pytest.mark.parametrize("name,kind,scheme,bumped", FULL_PROBE_CASES)
def test_other_closed_form_marches_keep_the_full_probe(monkeypatch, probe_heights, solve_calls,
                                                       name, kind, scheme, bumped):
    """s3, the complex kind, Neumann walls and a theta off mirror symmetry by
    a 1e-9 bump: one probe of all m unit states in one solve, and bitwise
    the state of a run whose mirror predicate is forced false."""
    s = sample_solution(name, kind=kind)
    problem = bumped_near_the_left_wall(s.problem) if bumped else s.problem
    grid = with_steps(grid_for(s, 40, 1.0 if s.problem.kind is ScalarKind.REAL else 1j, 1.0), 600)
    assert steppers._engine(problem, grid) is _march_closed
    assert not steppers._mirrored(assemble(problem, grid, scheme))
    got = run(problem, grid, scheme).final_state
    assert probe_heights == [41] and len(solve_calls) == 1
    monkeypatch.setattr(steppers, "_mirrored", lambda mats: False)
    assert np.array_equal(run(problem, grid, scheme).final_state, got)


def test_mirrored_closed_form_matches_stepwise_on_a_fine_grid():
    """s1 compact at N=400 and courant 1, 8106 steps: the even and odd blocks
    measured 3.2e-13 from the stepwise march, the full G 1.6e-13."""
    s = sample_solution("s1")
    grid = grid_for(s, 400, 1.0, 1.0)
    assert grid.n_steps == 8106 and steppers._engine(s.problem, grid) is _march_closed
    assert steppers._mirrored(assemble_compact(s.problem, grid))
    assert engine_deviation(s.problem, grid, Compact(), _march_closed) <= 1e-12


@pytest.mark.parametrize(
    "declared,n,n_steps,solves,kind",
    [
        pytest.param(*case, ScalarKind.REAL, id="-".join(map(str, case)))
        for case in [
            (False, 20, 2048, 1),
            (False, 20, 20, 20),
            (False, 20, 21, 1),
            (False, 200, 2048, 2048),
            (True, 20, 16, 1),
            (True, 20, 15, 15),
            (True, 200, 2048, 1),
            (True, 200, 600, 600),
            (True, 400, 2600, 1),
            (True, 400, 2400, 2400),
            (False, 127, 512, 1),
            (False, 100, 204, 204),
            (False, 100, 205, 1),
            (False, 127, 327, 327),
            (False, 127, 328, 1),
        ]
    ]
    + [
        pytest.param(False, n, n_steps, solves, ScalarKind.COMPLEX,
                     id=f"complex-{n}-{n_steps}-{solves}")
        for n, n_steps, solves in [(20, 20, 20), (20, 21, 1), (100, 404, 1), (100, 340, 340),
                                   (100, 341, 1), (127, 512, 512), (127, 546, 546), (127, 547, 1)]
    ],
)
def test_run_picks_engine_by_grid_and_step_count(solve_calls, declared, n, n_steps, solves,
                                                  kind):
    """The opaque and closed-form engines solve only in their one batched
    probe, the stepwise one once per step.  A problem that declares its modes
    is advanced in closed form from max(16, m^2 / 64) steps, on any grid; an
    opaque one marches by chunks on grids of at most 128 nodes with m steps,
    and m^2 / 50 of the real kind, m^2 / 30 of the complex one, which bite
    above 50 and 30 nodes."""
    s = sample_solution("s3", a=2.0, kind=kind)
    grid = with_steps(grid_for(s, n, 100.0, 1.0), n_steps)
    run(s.problem if declared else opaque(s.problem), grid, Compact())
    assert len(solve_calls) == solves


class UncalledForcing(TwoModeForcing):
    def __call__(self, t, x):
        raise AssertionError("the closed form evaluates no forcing block")


class UncalledWall(TwoModeWall):
    def __call__(self, t):
        raise AssertionError("the closed form evaluates no wall data")


def test_closed_form_evaluates_no_time_series():
    """Only the modes are read: f_c and f_s once each on the nodes."""
    s = sample_solution("s3", a=2.0)
    f, bc = s.problem.forcing, s.problem.boundary
    reads = []
    problem = dataclasses.replace(
        s.problem,
        forcing=UncalledForcing(f.omega, lambda x: reads.append(x) or f.f_c(x), f.f_s),
        boundary=Dirichlet(*(UncalledWall(g.omega, g.c, g.s) for g in (bc.left, bc.right))),
    )
    grid = grid_for(s, 50, 100.0, 1.0)
    assert grid.n_steps == 181588
    got = run(problem, grid, Compact()).final_state
    assert len(reads) == 1 and reads[0] is not None
    assert np.array_equal(got, run(s.problem, grid, Compact()).final_state)


def test_closed_form_non_finite_result_raises():
    s = sample_solution("s1")
    f = s.problem.forcing
    problem = dataclasses.replace(
        s.problem, forcing=TwoModeForcing(f.omega, lambda x: np.full_like(x, np.inf), f.f_s)
    )
    grid = with_steps(grid_for(s, 10, 1.0, 1.0), 600)
    assert steppers._engine(problem, grid) is _march_closed
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match="between steps 1 and 600"
    ):
        run(problem, grid, Compact())


def test_closed_form_keeps_constant_and_linear_states_exact():
    """omega = 0: the mirrors of the constant and linear-in-time tests above."""
    const, c = 0.75, 1.3
    theta = lambda x: 1.0 + 0.5 * math.sin(x) ** 2
    walls = Dirichlet(TwoModeWall(0.0, const, 0.0), TwoModeWall(0.0, const, 0.0))
    zeros = TwoModeForcing(0.0, np.zeros_like, np.zeros_like)
    for boundary, forcing, initial, final in (
        (walls, zeros, const, lambda t: const),
        (Neumann(), zeros, const, lambda t: const),
        (Neumann(), TwoModeForcing(0.0, lambda x: np.full_like(x, c), np.zeros_like), 0.0,
         lambda t: c * t),
    ):
        problem = ProblemSpec(theta, forcing, lambda x: np.full_like(x, initial), boundary,
                              ScalarKind.REAL)
        grid = make_grid(16, 1.0, 3.0, 1.5)
        assert steppers._engine(problem, grid) is _march_closed
        rep = run(problem, grid, Compact())
        assert np.abs(rep.final_state - final(grid.t_final)).max() < 1e-10


@pytest.mark.parametrize("march", [_march_stepwise, _march_affine])
def test_non_finite_state_raises(march):
    s = sample_solution("s1")
    base = s.problem
    grid = with_steps(grid_for(s, 10, 1.0, 1.0), 600)
    t_bad = 300.5 * grid.tau

    def blows_up(t, x):
        return np.where(np.asarray(t) > t_bad, np.inf, base.forcing(t, x))

    problem = dataclasses.replace(base, forcing=blows_up)
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match="between steps 257 and 512"
    ):
        march_with(march, problem, grid, Compact())


def test_a_forcing_infinite_at_the_first_block_end_stays_vectorized():
    """The scalar check at the first block's last time matches equal
    infinities, as np.allclose does, so a forcing that is infinite there
    keeps its block calls and the march still stops at the first bad chunk."""
    s = sample_solution("s1")
    grid = with_steps(grid_for(s, 10, 1.0, 1.0), 600)
    t_bad, calls = 300.5 * grid.tau, []

    def blows_up(t, x):
        calls.append(np.ndim(t))
        return np.where(np.asarray(t) > t_bad, np.inf, s.problem.forcing(t, x))

    assert steppers._block_steps(grid.n + 1) >= grid.n_steps
    with pytest.raises(FloatingPointError, match="between steps 257 and 512"):
        run(dataclasses.replace(s.problem, forcing=blows_up), grid, Compact())
    assert calls == [2, 0]


@pytest.mark.parametrize("n,march", [(200, _march_closed), (200, _march_stepwise),
                                     (100, _march_affine)])
def test_a_blow_up_raises_without_numpy_warnings(n, march):
    """Classic steps with an eps = 0.3 Neumann wall grow without bound over
    2027 steps.  ``run`` reports that as FloatingPointError on every engine,
    and numpy's overflow warnings, errors in this suite, stay out."""
    s = sample_solution("sn")
    grid = with_steps(grid_for(s, n, 1.0, 1.0), 2027)
    problem = s.problem if march is _march_closed else opaque(s.problem)
    assert steppers._engine(problem, grid) is march
    with pytest.raises(FloatingPointError, match="non-finite between steps"):
        run(problem, grid, Classic(neumann=ClassicNeumann(0.3)))


@pytest.mark.parametrize("given", ["forcing", "initial state", "wall"])
@pytest.mark.parametrize("march", [_march_closed, _march_affine, _march_stepwise])
def test_complex_inputs_on_the_real_kind_raise(march, given):
    """A complex forcing, initial state or wall value on the real kind raises
    ValueError naming it, on every engine, where a cast to float64 would drop
    its imaginary part.  The complex kind takes the same inputs."""
    s = sample_solution("s1")
    closed = march is _march_closed
    problem = s.problem if closed else opaque(s.problem)
    f, bc = problem.forcing, problem.boundary
    if given == "forcing":
        forcing = (TwoModeForcing(f.omega, lambda x: (1 + 1j) * f.f_c(x), f.f_s) if closed
                   else lambda t, x: (1 + 1j) * f(t, x))
        problem = dataclasses.replace(problem, forcing=forcing)
    elif given == "initial state":
        problem = dataclasses.replace(problem, initial=lambda x: (1 + 1j) * s.problem.initial(x))
    else:
        left = (TwoModeWall(bc.left.omega, 1j, bc.left.s) if closed
                else lambda t: (1 + 1j) * bc.left(t))
        problem = dataclasses.replace(problem, boundary=Dirichlet(left, bc.right))
    grid = with_steps(grid_for(s, 80 if march is _march_stepwise else 10, 1.0, 1.0),
                      20 if march is _march_stepwise else 600)
    assert steppers._engine(problem, grid) is march
    message = f"the [a-z ]*{given}[a-z ]* is complex, but the problem is of the real kind"
    with pytest.raises(ValueError, match=message):
        run(problem, grid, Compact())
    complex_kind = dataclasses.replace(problem, kind=ScalarKind.COMPLEX)
    assert np.isfinite(run(complex_kind, grid, Compact()).final_state).all()


@pytest.mark.parametrize("march", [_march_closed, _march_affine, _march_stepwise])
def test_an_initial_state_is_broadcast_to_the_nodes_or_raises(march):
    """A scalar initial state marches as that value at every node, on every
    engine; a (3,) or a (1, m) one does not broadcast to the m nodes and
    raises ValueError naming the initial state."""
    s = sample_solution("s1")
    problem = s.problem if march is _march_closed else opaque(s.problem)
    grid = with_steps(grid_for(s, 20, 1.0, 1.0), 10 if march is _march_stepwise else 64)
    assert steppers._engine(problem, grid) is march

    def final(initial):
        return run(dataclasses.replace(problem, initial=initial), grid, Compact()).final_state

    got = final(lambda x: 0.5)
    assert got.shape == grid.x.shape
    assert np.array_equal(got, final(lambda x: np.full_like(x, 0.5)))
    for shape in ((3,), (1, grid.n + 1)):
        message = re.escape(f"the initial state has shape {shape}, which does not broadcast")
        with pytest.raises(ValueError, match=message):
            final(lambda x, shape=shape: np.zeros(shape))


def test_forcing_reading_only_the_first_block_time_falls_back():
    """A closure that broadcasts f(times[0]) over a block must not corrupt the run."""
    s = sample_solution("s1")
    base = s.problem

    def first_time_only(t, x):
        return base.forcing(np.ravel(t)[0], x)

    grid = with_steps(grid_for(s, 10, 1.0, 1.0), 600)
    assert takes_affine(opaque(base), grid)
    honest = run(opaque(base), grid, Compact()).final_state
    got = run(dataclasses.replace(base, forcing=first_time_only), grid, Compact()).final_state
    assert np.abs(got - honest).max() <= 1e-12 * np.abs(honest).max()


def wall_spy(g, calls):
    def wall(t):
        calls.append(np.array(t, dtype=float))
        return g(t)

    return wall


def test_wall_data_come_in_bounded_blocks(monkeypatch):
    """Each wall call sees at most one block of times i * tau, sized by the
    input block rule for the (b, 2) wall rows, and the march equals, bit for
    bit, the one with all wall data in a single block."""
    s = sample_solution("s3", a=2.0)
    block = steppers._block_steps(2)
    grid = with_steps(grid_for(s, 20, 100.0, 1.0), 2 * block + 300)

    def march():
        calls = ([], [])
        walls = Dirichlet(
            wall_spy(lambda t: np.sin(3.0 * t), calls[0]), wall_spy(np.cos, calls[1])
        )
        problem = dataclasses.replace(opaque(s.problem), boundary=walls)
        assert takes_affine(problem, grid)
        return run(problem, grid, Compact()).final_state, calls

    got, calls = march()
    levels = np.arange(1, grid.n_steps + 1) * grid.tau
    for wall in calls:
        assert [c.size for c in wall] == [block, 1, block, 300]
        assert np.array_equal(np.concatenate([c for c in wall if c.ndim]), levels)
    monkeypatch.setattr(steppers, "_BLOCK_ENTRIES", 2**40)
    ref, calls = march()
    assert [c.size for c in calls[0]] == [grid.n_steps, 1]
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", ["s3", "snll"])
@pytest.mark.parametrize("march", [_march_affine, _march_stepwise])
def test_input_block_budget_moves_no_state(monkeypatch, name, march):
    """Input blocks of one chunk, of the default budget and of the whole march
    give bitwise the same final state, on Dirichlet (real) and Neumann
    (complex) walls."""
    s = sample_solution(name, a=2.0) if name == "s3" else sample_solution(name)
    grid = with_steps(grid_for(s, 20, 100.0 if name == "s3" else 1j, 1.0), 3072 + 300)
    problem = opaque(s.problem)
    assert steppers._block_steps(grid.n + 1) == 3072

    def final(budget):
        monkeypatch.setattr(steppers, "_BLOCK_ENTRIES", budget)
        return march_with(march, problem, grid, Compact())

    got = final(steppers._BLOCK_ENTRIES)
    for budget in (1, 2**40):
        assert np.array_equal(final(budget), got)


def input_spies(problem):
    """``problem`` behind closures that record the time shape of every
    forcing call, the times of every forcing block call and the time count
    of every wall call."""
    forcing, boundary = problem.forcing, problem.boundary
    shapes = {"f": [], "levels": [], "g": []}

    def spy_forcing(t, x):
        shapes["f"].append(np.shape(t))
        if np.ndim(t):
            shapes["levels"].append(np.ravel(t))
        return forcing(t, x)

    def spy_wall(g):
        return lambda t: shapes["g"].append(np.size(t)) or g(t)

    if isinstance(boundary, Dirichlet):
        boundary = Dirichlet(spy_wall(boundary.left), spy_wall(boundary.right))
    return dataclasses.replace(problem, forcing=spy_forcing, boundary=boundary), shapes


@pytest.mark.parametrize("budget", [None, 2**12])
@pytest.mark.parametrize("name,scheme", [
    ("s3", Compact()), ("s3", Classic(ClassicRhsVariant.FIVE_POINT)), ("snll", Compact())])
@pytest.mark.parametrize("march", [_march_affine, _march_stepwise])
def test_no_input_call_exceeds_the_block_rule(monkeypatch, budget, name, scheme, march):
    """Each stream makes one call per block and one scalar check.  A forcing
    call takes at most a block of ``_block_steps`` steps and the level before
    it, on the node or half-node row, and so holds at most ``_BLOCK_ENTRIES``
    entries unless one chunk alone holds more; a wall call takes at most a
    block of the (b, 2) wall rows.  The forcing's block calls, in order,
    take the levels 0..n with none repeated: the level before each block
    after the first is carried from the block before."""
    if budget is not None:
        monkeypatch.setattr(steppers, "_BLOCK_ENTRIES", budget)
    budget, chunk = steppers._BLOCK_ENTRIES, steppers._FORCING_CHUNK
    s = sample_solution(name, a=2.0) if name == "s3" else sample_solution(name)
    grid = with_steps(grid_for(s, 20, 1.0, 1.0), 3500)
    problem, shapes = input_spies(s.problem)
    march_with(march, problem, grid, scheme)
    width = steppers._forcing_grid(assemble(s.problem, grid, scheme)).size
    block = steppers._block_steps(width)
    assert block % chunk == 0 and (block == chunk or (block + 1) * width <= budget)
    rows = [k for k, _ in filter(None, shapes["f"])]
    assert shapes["f"].count(()) == 1 and shapes["f"].count(()) + len(rows) == len(shapes["f"])
    assert len(rows) == math.ceil(grid.n_steps / block) and max(rows) <= block + 1
    assert max(rows) * width <= max(budget, (chunk + 1) * width)
    levels = np.concatenate(shapes["levels"])
    assert np.array_equal(levels, np.arange(grid.n_steps + 1) * grid.tau)
    if name == "s3":
        block = steppers._block_steps(2)
        assert shapes["g"].count(1) == 2 and 2 * block <= budget
        sizes = [size for size in shapes["g"] if size != 1]
        assert len(sizes) == 2 * math.ceil(grid.n_steps / block) and max(sizes) <= block
    else:
        assert shapes["g"] == []


def test_wall_reading_only_the_first_block_time_falls_back():
    """A wall callable that broadcasts g(times[0]) over a block is caught by the
    scalar check on the first block, as a forcing is."""
    s = sample_solution("s1")
    honest = Dirichlet(lambda t: np.sin(3.0 * t), np.cos)
    first_time_only = Dirichlet(
        lambda t: np.sin(3.0 * np.ravel(t)[0]), lambda t: np.cos(np.ravel(t)[0])
    )
    grid = with_steps(grid_for(s, 10, 1.0, 1.0), 600)
    a, b = (
        run(dataclasses.replace(opaque(s.problem), boundary=bc), grid, Compact()).final_state
        for bc in (honest, first_time_only)
    )
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_scalar_fallbacks_match_vectorized_on_affine_grid():
    """The forcing and wall fallbacks of the tests above, on a grid for the affine engine."""
    s = sample_solution("s1")
    base = s.problem
    exact = s.exact

    def scalar_only_forcing(t, x):
        if np.ndim(t) != 0:
            raise TypeError("scalar time only")
        return base.forcing(t, x)

    scalar_walls = Dirichlet(
        left=lambda t: float(exact(float(t), 0.0)),
        right=lambda t: float(exact(float(t), TWO_PI)),
    )
    grid = with_steps(grid_for(s, 10, 1.0, 0.5), 600)
    assert takes_affine(opaque(base), grid)
    a = run(opaque(base), grid, Compact())
    b = run(dataclasses.replace(base, forcing=scalar_only_forcing), grid, Compact())
    assert np.array_equal(a.final_state, b.final_state)
    assert a.muls_per_step == b.muls_per_step
    c = run(dataclasses.replace(base, boundary=scalar_walls), grid, Compact())
    assert np.abs(a.final_state - c.final_state).max() < 1e-14


# ---------------------------------------------------------------------------
# factored, blocked solve of A_new


SOLVE_CASES = [
    pytest.param(name, params, kind, scheme, id=f"{name}-{kind.value}-{label}")
    for name, params in (("s1", {}), ("s2", {"k": 3}), ("s3", {"a": 2.0}))
    for kind in ScalarKind
    for label, scheme in WALL_SCHEMES.items()
] + [
    pytest.param(name, {}, None, scheme, id=f"{name}-{label}")
    for name in ("sn", "snll")
    for label, scheme in NEUMANN_SCHEMES.items()
]


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name,params,kind,scheme", SOLVE_CASES)
def test_factored_solve_matches_the_sweep_on_every_assembly(name, params, kind, scheme):
    """Exact (16, 64) and padded last blocks, up to the fine grid's 2001 nodes."""
    s = sample_solution(name, kind=kind, **params)
    for m in (16, 17, 64, 65, 201, 2001):
        mats = assemble(s.problem, grid_for(s, m - 1, 100.0, 1.0), scheme)
        rhs = rng.normal(size=m).astype(mats.kind.dtype)
        if mats.kind is ScalarKind.COMPLEX:
            rhs += 1j * rng.normal(size=m)
        ref, _ = solve_tridiag(mats._solver, rhs)
        got, _ = solve_tridiag(factor_tridiag(mats._solver), rhs)
        assert relative_gap(got, ref) <= 1e-13, m


def test_reduced_two_point_walls_assemble_on_fine_grids_and_converge_at_third_order():
    """The reduced closure's wall derivation keeps its rank at N=2000.

    Without equilibration the wall system loses rank from N=800 up (6 or 5 of 7).
    """
    s = sample_solution("sn")
    variant = ReducedTwoPoint()
    assemble_compact(s.problem, grid_for(s, 2000, 1.0, 1.0), neumann_variant=variant)
    errors = []
    for n in (200, 400, 800, 1600):
        grid = grid_for(s, n, 1.0, 0.02)
        state = run(s.problem, grid, Compact(neumann=variant)).final_state
        errors.append(c_norm_error(state, s.exact(grid.t_final, grid.x)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders > 2.9) & (orders < 3.1)), orders


@pytest.mark.parametrize("name,courant", [("s2", 1.0), ("snll", 1j)])
def test_factored_march_matches_the_swept_march(monkeypatch, name, courant):
    """A whole N=200 stepwise march of each kind, against one forced onto the sweep."""
    problem = opaque(sample_solution(name).problem)
    grid = grid_for(sample_solution(name), 200, courant, 0.15)
    assert grid.n_steps > steppers._FORCING_CHUNK
    assert steppers._engine(problem, grid) is _march_stepwise
    got = run(problem, grid, Compact()).final_state
    monkeypatch.setattr(steppers, "_BLOCKED_MIN_NODES", 10**9)
    ref = run(problem, grid, Compact()).final_state
    assert not np.array_equal(got, ref)  # the two solves round differently
    assert relative_gap(got, ref) <= 1e-11


def test_step_hands_single_states_the_factor_and_stacks_the_sweep(solve_calls):
    s = sample_solution("s3", a=2.0)
    grid = grid_for(s, 200, 100.0, 1.0)
    mats = assemble_compact(s.problem, grid)
    dense_operators(mats)
    assert mats._built.factored is None  # matrix-only use builds no factor
    u = np.asarray(s.problem.initial(grid.x))
    f, walls = np.zeros_like(u), walls_at(s.problem, grid.tau)
    _step(mats, u, f, f, bc_vals=walls)
    factor = mats._built.factored
    _step(mats, u, f, f, bc_vals=walls)
    _step(mats, np.stack((u, 2.0 * u)), f, f, bc_vals=walls)
    assert solve_calls == [TridiagLU, TridiagLU, Tridiag]
    assert mats._built.factored is factor  # built once


@pytest.mark.parametrize("n,solver", [(20, Tridiag), (200, TridiagLU)])
def test_stepwise_march_picks_the_solver_by_node_count(solve_calls, n, solver):
    s = sample_solution("s3", a=2.0)
    grid = with_steps(grid_for(s, n, 100.0, 1.0), 20)
    assert steppers._engine(opaque(s.problem), grid) is _march_stepwise
    run(opaque(s.problem), grid, Compact())
    assert solve_calls == [solver] * 20


def near_singular(m):
    """A tridiagonal whose sweep meets the pivot 2^-50 at row 1: nonzero, and
    far below 1e-14 of its unit band entries."""
    diag = np.ones(m)
    diag[1] += 2.0**-50
    return Tridiag(np.ones(m - 1), diag, np.ones(m - 1))


def test_single_state_sweep_rejects_a_relatively_tiny_pivot():
    s = sample_solution("s1")
    grid = grid_for(s, 20, 1.0, 1.0)
    mats = dataclasses.replace(assemble_compact(s.problem, grid), _solver=near_singular(21),
                               _built=steppers._Built())
    u = np.asarray(s.problem.initial(grid.x))
    for _ in range(2):  # every step checks, not only an operator's first
        with pytest.raises(SingularMatrixError, match="pivot .* at row 1 is below 1e-14"):
            _step(mats, u, np.zeros_like(u), np.zeros_like(u),
                  bc_vals=walls_at(s.problem, grid.tau))


# ---------------------------------------------------------------------------
# the states of a march in blocks (``_states``)


def demo_grid(n, t_final=1.0):
    """The conservation demo's problem and grid (max theta is 2, at x = 0)."""
    return analysis.conservation_problem(), make_grid(n, 1j, t_final, 2.0)


def state_columns(states, problem, grid, scheme=Compact()):
    """Every state ``states`` yields after the start, as the columns of one array."""
    mats = assemble(problem, grid, scheme)
    u = np.asarray(problem.initial(grid.x), dtype=mats.kind.dtype)
    return np.column_stack(list(states(mats, u, problem, grid.n_steps)))


@pytest.mark.parametrize("n", [16, 25, 50, 100, 200])
def test_blocked_demo_series_matches_the_stepwise_one(n):
    """Per-step I of the closed form's blocks against the stepwise march:
    measured up to 5.0e-13 apart (N=200)."""
    problem, grid = demo_grid(n)
    got = state_columns(steppers._closed_states, problem, grid)
    ref = state_columns(steppers._stepwise_states, problem, grid)
    assert got.shape == ref.shape == (n + 1, grid.n_steps)
    for quadrature in ("trapezoid", "simpson")[: 2 - n % 2]:
        gap = analysis.first_integral(got, grid.h, quadrature) - [
            analysis.first_integral(v, grid.h, quadrature) for v in ref.T]
        assert np.abs(gap).max() <= 1e-12


def test_blocked_states_match_an_extended_precision_power():
    """Each state against the same float64 G stepped in long double: measured
    5.2e-15, where the stepwise march is 7.7e-15 from the same reference."""
    problem, grid = demo_grid(50)
    mats = assemble_compact(problem, grid)
    u = np.asarray(problem.initial(grid.x), dtype=complex)
    step_map = steppers._closed_map(mats, problem, complex).astype(np.clongdouble)
    y, want = np.concatenate((u, (1.0, 0.0))).astype(np.clongdouble), []
    for _ in range(grid.n_steps):
        y = step_map @ y
        want.append(y[:-2])
    got = state_columns(steppers._closed_states, problem, grid)
    assert relative_gap(got, np.column_stack(want)) <= 1e-12


@pytest.mark.parametrize("name,kind", [("s1", ScalarKind.COMPLEX), ("snll", None)])
def test_blocked_states_of_a_forced_problem_match_the_stepwise_ones(name, kind):
    """omega != 0, so the phase rows E and R of G enter: 300 steps, five
    blocks, measured 1.7e-14 (s1) and 1.6e-14 (snll)."""
    s = sample_solution(name, kind=kind)
    grid = with_steps(grid_for(s, 20, 1j, 1.0), 300)
    assert s.problem.forcing.omega != 0.0
    got = state_columns(steppers._closed_states, s.problem, grid)
    ref = state_columns(steppers._stepwise_states, s.problem, grid)
    assert relative_gap(got, ref) <= 1e-12


def closed_floor(m):
    """The fewest steps the closed form takes on m nodes."""
    return max(steppers._CLOSED_MIN_STEPS,
               math.ceil(steppers._CLOSED_STEPS_PER_NODE_SQUARED * m * m))


CAP = steppers._STATES_MAX_NODES


@pytest.mark.parametrize(
    "n,n_steps,solves",
    [
        (50, closed_floor(51), 1),
        (50, closed_floor(51) - 1, closed_floor(51) - 1),
        (CAP - 1, closed_floor(CAP), 1),
        (CAP, closed_floor(CAP + 1), closed_floor(CAP + 1)),
    ],
)
def test_states_take_the_closed_form_up_to_the_cap(solve_calls, n, n_steps, solves):
    """The closed form's blocks make one solve, the probe; stepping makes one
    per state."""
    problem, grid = demo_grid(n)
    grid = with_steps(grid, n_steps)
    got = state_columns(steppers._states, problem, grid)
    assert got.shape == (n + 1, n_steps) and len(solve_calls) == solves


def test_closed_states_check_each_block_before_yielding_it(monkeypatch):
    """G scaled by 1e12 overflows the state near step 26: blocks 1, 2-3, 4-7
    and 8-15 are yielded, the doubling's block 16-31 raises."""
    closed_map = steppers._closed_map
    monkeypatch.setattr(steppers, "_closed_map", lambda *args: 1e12 * closed_map(*args))
    problem, grid = demo_grid(50)
    states = steppers._states(assemble_compact(problem, grid), problem.initial(grid.x),
                              problem, grid.n_steps)
    yielded = []
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match="non-finite between steps 16 and 31"
    ):
        yielded.extend(block.shape[1] for block in states)
    assert yielded == [1, 2, 4, 8]


def test_run_marches_the_conservation_demo_in_closed_form():
    problem, grid = demo_grid(50)
    assert steppers._engine(problem, grid) is _march_closed
    ref = march_with(_march_stepwise, problem, grid, Compact())
    assert relative_gap(run(problem, grid, Compact()).final_state, ref) <= 1e-12


@pytest.mark.parametrize("name", ["sn", "snll"])
def test_corner_eliminated_neumann_solver_factors(name):
    s = sample_solution(name)
    mats = assemble_compact(s.problem, grid_for(s, 200, 1.0, 1.0))
    assert [(i, j) for i, j, k in mats._corners if k != 0.0] == [(0, 1), (-1, -2)]
    assert factor_tridiag(mats._solver).size == 201


MIRROR_SCHEMES = {
    "compact-3pt": Compact(),
    "compact-reduced": Compact(neumann=ReducedTwoPoint()),
    "compact-main": Compact(neumann=MainTerms()),
    "compact-classic": Compact(neumann=ClassicNeumann(0.8)),
    **{f"classic-{v.value}": Classic(v, ClassicNeumann(0.8)) for v in ClassicRhsVariant},
}


@pytest.mark.parametrize("n", [16, 40])
@pytest.mark.parametrize("kind", list(ScalarKind))
@pytest.mark.parametrize("label", MIRROR_SCHEMES)
def test_the_right_wall_is_the_mirror_of_the_left(label, kind, n):
    """A Neumann problem reflected through x -> 2 pi - x marches to the
    original's final state reversed.  theta is not symmetric about pi, so a
    wall row, corner or patch read in the wrong orientation shows."""
    scale = 1.0 + 0.5j if kind is ScalarKind.COMPLEX else 1.0
    theta = lambda x: 1.5 + np.sin(x - 0.3)
    forcing = lambda t, x: scale * np.cos(2.0 * t) * np.exp(np.cos(x - 1.0))
    initial = lambda x: scale * np.exp(np.sin(x + 0.7))
    grid = make_grid(n, 1.0, 1.0, 2.5)
    finals = []
    for reflect in (lambda x: x, lambda x: TWO_PI - x):
        problem = ProblemSpec(lambda x: theta(reflect(x)), lambda t, x: forcing(t, reflect(x)),
                              lambda x: initial(reflect(x)), Neumann(), kind)
        finals.append(run(problem, grid, MIRROR_SCHEMES[label]).final_state)
    assert relative_gap(finals[1][::-1], finals[0]) <= 1e-12


# ---------------------------------------------------------------------------
# assembly over node arrays


VIEW_SAMPLES = [("s1", {}), ("s2", {"k": 3}), ("s3", {"a": 2}), ("sn", {}), ("snll", {})]


@pytest.mark.parametrize("name,params", VIEW_SAMPLES)
@pytest.mark.parametrize("kind", [ScalarKind.REAL, ScalarKind.COMPLEX])
@pytest.mark.parametrize("n", [10, 200])
def test_assembled_bands_match_the_scalar_row_at_every_node(name, params, kind, n):
    s = sample_solution(name, kind=kind, **params)
    grid = grid_for(s, n, 1.0, 1.0)
    h, tau, theta = grid.h, grid.tau, s.problem.theta
    fits = [fit_interior(theta, float(x), h) for x in grid.x[1:n]]
    nus = [kind.kappa * f.theta_center * tau / (h * h) for f in fits]
    for cut in range(4, 11):
        mats = assemble_compact(s.problem, grid, cut)
        rows = [assemble_row(f, nu, h, cut) for f, nu in zip(fits, nus)]
        for band, (lo, d, up) in (
            (mats.a_new, ("b_l1", "a_1", "b_r1")),
            (mats.a_old, ("b_l0", "a_0", "b_r0")),
            (mats.b, ("q_l1", "p_1", "q_r1")),
            (mats.b, ("q_l0", "p_0", "q_r0")),
        ):
            for got, field in ((band.lower[: n - 1], lo), (band.diag[1:n], d),
                               (band.upper[1:n], up)):
                want = np.array([getattr(r, field) for r in rows])
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (cut, field)


def test_assembly_samples_theta_in_one_array_call():
    s = sample_solution("s1")
    grid = grid_for(s, 20, 1.0, 1.0)
    calls = []
    theta = lambda x: calls.append(np.shape(x)) or s.problem.theta(x)
    assemble_compact(dataclasses.replace(s.problem, theta=theta), grid)
    # five abscissae per interior node, then the two scalar spot checks
    assert calls == [(19, 5), (), ()]


def test_assembly_samples_a_math_theta_five_times_per_node():
    s = sample_solution("s1")
    grid = grid_for(s, 20, 1.0, 1.0)
    calls = []
    theta = lambda x: calls.append(type(x)) or math.cos(x) ** 2 + 1.0
    assemble_compact(dataclasses.replace(s.problem, theta=theta), grid)
    assert calls == [np.ndarray] + [float] * (5 * 19)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_classic_assembly_rejects_a_bad_half_node_value(bad):
    # theta is fine on every node and bad at one half node only
    grid = make_grid(10, 1.0, 1.0, 1.0)
    x_bad = float(grid.x[3]) + 0.5 * grid.h
    theta = lambda x: bad if x == x_bad else 1.0
    problem = dataclasses.replace(sample_solution("s1").problem, theta=theta)
    with pytest.raises(CoefficientDomainError, match=f"x={x_bad}"):
        assemble_classic(problem, grid)


# ---------------------------------------------------------------------------
# operator reuse


@pytest.mark.parametrize("label,problem,assemble", CASES, ids=[c[0] for c in CASES])
def test_assembled_bands_are_read_only(label, problem, assemble):
    mats = assemble(problem, make_grid(12, 1.0, 1.0, 2.0))
    tridiags = [t for t in (mats.a_new, mats.a_old, mats.b, mats._b4, mats._solver)
                if t is not None]
    assert len(tridiags) == (5 if mats.classic_rhs is None else 4)
    for t in tridiags:
        for band in (t.lower, t.diag, t.upper):
            with pytest.raises(ValueError, match="read-only"):
                band[0] = 1.0


NEUMANN_CLOSURES = {
    "3pt": CompactThreePoint(),
    "reduced": ReducedTwoPoint(),
    "main": MainTerms(),
    "classic": ClassicNeumann(0.5),
}
CLASSIC_RHS = {f"classic-{v.value}": Classic(rhs=v) for v in ClassicRhsVariant}
REUSE_CASES = [
    pytest.param(name, params, kind, scheme, id=f"{name}-{kind.value}-{label}")
    for name, params in (("s1", {}), ("s2", {"k": 3}), ("s3", {"a": 2.0}))
    for kind in ScalarKind
    for label, scheme in {"compact": Compact(), "compact-cut5": Compact(cut=5),
                          **CLASSIC_RHS}.items()
] + [
    pytest.param(name, {}, None, scheme, id=f"{name}-{label}")
    for name in ("sn", "snll")
    for label, scheme in {
        **{f"compact-{c}": Compact(neumann=v) for c, v in NEUMANN_CLOSURES.items()},
        **{f"compact-cut5-{c}": Compact(cut=5, neumann=v) for c, v in NEUMANN_CLOSURES.items()},
        **CLASSIC_RHS,
    }.items()
]


@pytest.mark.parametrize("name,params,kind,scheme", REUSE_CASES)
def test_a_reused_operator_gives_bitwise_the_cold_result(name, params, kind, scheme):
    """Each engine on an operator that other runs built pieces of, against
    the same engine on a freshly assembled one."""
    s = sample_solution(name, kind=kind, **params)
    grid = with_steps(grid_for(s, 16, 1.0, 1.0), 300)
    problems = {_march_closed: s.problem, _march_affine: opaque(s.problem),
                _march_stepwise: s.problem}
    cold = {}
    for march, problem in problems.items():
        steppers._last_operator.clear()
        cold[march] = march_with(march, problem, grid, scheme)
    steppers._last_operator.clear()
    built = assemble(s.problem, grid, scheme)._built
    # the closed form probes afresh each time, the opaque march builds P's
    # powers and its unit responses, and the second round reuses them
    for march in (_march_closed, _march_affine, _march_stepwise, _march_closed, _march_affine):
        got = march_with(march, problems[march], grid, scheme)
        assert np.array_equal(got, cold[march]), march.__name__
    assert assemble(s.problem, grid, scheme)._built is built


def test_a_changed_theta_parameter_reassembles():
    """The key holds theta's samples, not the callable, which is the same
    object before and after its parameter changes."""
    s = sample_solution("s1")
    param = {"a": 2.0}
    problem = dataclasses.replace(s.problem, theta=lambda x: param["a"] + math.cos(x))
    grid = grid_for(s, 16, 1.0, 1.0)
    before = run(problem, grid, Compact()).final_state
    param["a"] = 3.0
    warm = run(problem, grid, Compact()).final_state
    steppers._last_operator.clear()
    cold = run(problem, grid, Compact()).final_state
    assert np.array_equal(warm, cold)
    assert not np.allclose(warm, before)


def other_data(problem):
    """``problem`` with the same theta but other walls, forcing and initial state."""
    f, bc, u0 = problem.forcing, problem.boundary, problem.initial
    return dataclasses.replace(
        problem,
        forcing=lambda t, x: 2.0 * f(t, x) + 1.0,
        initial=lambda x: 3.0 * u0(x),
        boundary=Dirichlet(lambda t: bc.left(t) - t, lambda t: bc.right(t) + 0.5 * t),
    )


@pytest.mark.parametrize("march", [_march_closed, _march_affine, _march_stepwise])
def test_problems_sharing_an_operator_each_get_their_own_answer(march):
    s = sample_solution("s2", k=3)
    grid = with_steps(grid_for(s, 16, 1.0, 1.0), 300)
    first = s.problem if march is _march_closed else opaque(s.problem)
    second = other_data(s.problem)
    if march is _march_closed:  # keep the second problem's modes declared
        f, bc = s.problem.forcing, s.problem.boundary
        second = dataclasses.replace(
            s.problem,
            forcing=TwoModeForcing(f.omega, lambda x: 2.0 * f.f_c(x), f.f_s),
            initial=lambda x: 3.0 * s.problem.initial(x),
            boundary=Dirichlet(*(TwoModeWall(g.omega, g.c + 0.5, -g.s) for g in (bc.left, bc.right))),
        )
    colds = []
    for problem in (first, second):
        steppers._last_operator.clear()
        colds.append(march_with(march, problem, grid, Compact()))
    steppers._last_operator.clear()
    warms = [march_with(march, problem, grid, Compact()) for problem in (first, second)]
    assert not np.allclose(colds[0], colds[1])
    for warm, cold in zip(warms, colds):
        assert np.array_equal(warm, cold)


def test_step_on_a_shared_operator_reads_its_own_walls():
    s = sample_solution("s1")
    grid = make_grid(12, 1.0, 1.0, 2.0)
    first, second = s.problem, other_data(s.problem)
    mats_first = assemble_compact(first, grid)
    mats = assemble_compact(second, grid)
    assert mats._built is mats_first._built
    u0 = np.asarray(second.initial(grid.x))
    f0, f1 = (np.asarray(second.forcing(t, grid.x)) for t in (0.0, grid.tau))
    walls = walls_at(second, grid.tau)
    got = _step(mats, u0, f0, f1, bc_vals=walls)
    want = dense_step(mats, second, u0, f0, f1, grid.tau)
    assert np.abs(got - want).max() < 1e-11 * max(1.0, np.abs(want).max())
    steppers._last_operator.clear()
    assert np.array_equal(got, _step(assemble_compact(second, grid), u0, f0, f1, bc_vals=walls))


def test_every_part_of_the_key_can_miss():
    """A repeated assembly reuses the operator, a change of any key part
    misses, and only the newest operator is kept."""
    s = sample_solution("sn")
    problem, grid = s.problem, grid_for(s, 16, 1.0, 1.0)
    compact, classic = (problem, grid, Compact()), (problem, grid, Classic())
    pairs = {
        "tau": (compact, (problem, grid_for(s, 16, 2.0, 1.0), Compact())),
        "n": (compact, (problem, grid_for(s, 20, 1.0, 1.0), Compact())),
        "kind": (compact, (dataclasses.replace(problem, kind=ScalarKind.COMPLEX), grid, Compact())),
        "walls": (compact, (dataclasses.replace(problem, boundary=Dirichlet(math.sin, math.sin)),
                            grid, Compact())),
        "cut": (compact, (problem, grid, Compact(cut=5))),
        "closure": (compact, (problem, grid, Compact(neumann=MainTerms()))),
        "scheme": (compact, classic),
        "classic rhs": (classic, (problem, grid, Classic(rhs=ClassicRhsVariant.THREE_POINT))),
        "classic closure": (classic, (problem, grid, Classic(neumann=ClassicNeumann(0.8)))),
    }
    for label, (base, other) in pairs.items():
        steppers._last_operator.clear()
        first = assemble(*base)
        assert assemble(*base)._built is first._built, label
        assert assemble(*other)._built is not first._built, label
        assert assemble(*base)._built is not first._built, label


def test_only_operators_of_at_most_128_nodes_are_kept():
    """A larger operator is not kept, so its powers of P are freed
    when the caller drops it, and it replaces the last small one."""
    s = sample_solution("s1")
    small, large = grid_for(s, 127, 1.0, 1.0), grid_for(s, 128, 1.0, 1.0)
    first = assemble_compact(s.problem, small)
    assert assemble_compact(s.problem, small)._built is first._built
    assert assemble_compact(s.problem, large)._built is not first._built
    assert steppers._last_operator == []
    assert assemble_compact(s.problem, large)._built is not assemble_compact(s.problem, large)._built


def test_threads_sharing_the_kept_operator_each_get_the_cold_result():
    """Threads that alternate two operators replace the kept one under each
    other and race to build the same operator's powers and input maps;
    every run must still give the state of a run on a fresh operator."""
    s1, s2 = sample_solution("s1"), sample_solution("s2", k=3)
    runs = [(s1.problem, with_steps(grid_for(s1, 16, 1.0, 1.0), 300)),
            (opaque(s2.problem), with_steps(grid_for(s2, 20, 1.0, 1.0), 300))]
    cold = []
    for problem, grid in runs:
        steppers._last_operator.clear()
        cold.append(run(problem, grid, Compact()).final_state)
    steppers._last_operator.clear()
    wrong = []

    def worker(offset):
        for j in range(12):
            k = (j + offset) % 2
            if not np.array_equal(run(*runs[k], Compact()).final_state, cold[k]):
                wrong.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(steppers._last_operator) == 1


def test_a_restarted_march_sets_up_once(monkeypatch):
    """Eight consecutive runs, each restarting the problem where the last one
    stopped: one assembly and one probe, and the one-call march's state."""
    s = sample_solution("s3", a=2.0)
    problem = opaque(s.problem)
    grid = grid_for(s, 20, 100.0, 1.0)
    counts = {"rows": 0, "probe": 0}
    row, probe = steppers.assemble_row, steppers._probe

    def counting_row(*args):
        counts["rows"] += 1
        return row(*args)

    def counting_probe(*args):
        counts["probe"] += 1
        return probe(*args)

    monkeypatch.setattr(steppers, "assemble_row", counting_row)
    monkeypatch.setattr(steppers, "_probe", counting_probe)

    def restarted(t0, state):
        f, bc = problem.forcing, problem.boundary
        return dataclasses.replace(
            problem,
            forcing=lambda t, x: f(t + t0, x),
            initial=lambda x: state,
            boundary=Dirichlet(lambda t: bc.left(t + t0), lambda t: bc.right(t + t0)),
        )

    state, first = problem.initial(grid.x), 0
    for j in range(8):
        steps = grid.n_steps // 8 + (j < grid.n_steps % 8)
        part = with_steps(grid, steps)
        assert takes_affine(problem, part)
        state = run(restarted(first * grid.tau, state), part, Compact()).final_state
        first += steps
    assert first == grid.n_steps
    assert counts == {"rows": 1, "probe": 1}
    steppers._last_operator.clear()
    assert relative_gap(state, run(problem, grid, Compact()).final_state) <= 1e-10
