import dataclasses
import math

import numpy as np
import pytest

from cpde import analysis
from cpde.analysis import (
    asymmetry,
    asymmetry_study,
    check_ns,
    classic_uniform_spectrum,
    conservation_problem,
    convergence_study,
    cut_study,
    diagonalization_check,
    efficiency_curve,
    endpoint_order,
    finest_pair_order,
    first_integral,
    first_integral_drift,
    first_integral_series,
    lsq_order,
    NegativityBracket,
    negativity_threshold,
    richardson,
    richardson_study,
    spectrum_report,
    transition_matrix,
)
from cpde.core import Dirichlet, Neumann, ProblemSpec, ScalarKind, make_grid, sample_solution
from cpde.linalg import SingularMatrixError, eigenvalues, mirror_blocks, solve_dense
from cpde.neumann import ClassicNeumann, CompactThreePoint, MainTerms, ReducedTwoPoint
from cpde.steppers import (
    Classic,
    ClassicRhsVariant,
    Compact,
    _dense_layers,
    assemble_classic,
    assemble_compact,
    dense_operators,
)
from cpde.theta_fit import TWO_PI
from test_linalg import eigvals_sorted, mirror_basis

rng = np.random.default_rng(60601)


# ---------------------------------------------------------------------------
# order estimators


def test_endpoint_order_exact_power():
    ns = (10, 20, 50, 100)
    errors = [3.0 * (TWO_PI / n) ** 4 for n in ns]
    assert endpoint_order(ns, errors) == pytest.approx(4.0)
    assert lsq_order(ns, errors) == pytest.approx(4.0)


def test_endpoint_order_uses_extreme_grids_only():
    ns = (10, 20, 100)
    errors = [1.0, 0.9, 1e-4]  # middle entry is pure noise
    expected = math.log(1.0 / 1e-4) / math.log(10.0)
    assert endpoint_order(ns, errors) == pytest.approx(expected)


def test_finest_pair_order_ignores_coarse_grids():
    ns = (10, 20, 50, 100)
    errors = [0.5, 1e-2, (TWO_PI / 50) ** 4, (TWO_PI / 100) ** 4]
    assert finest_pair_order(ns, errors) == pytest.approx(4.0)
    assert endpoint_order(ns, errors) != pytest.approx(4.0)
    assert math.isnan(finest_pair_order((10,), (1.0,)))
    assert math.isnan(finest_pair_order(ns, [1.0, 1.0, 0.0, 1.0]))


def test_order_scale_invariance():
    ns = (8, 16, 32)
    errors = [2.0 ** (-3 * k) for k in range(3)]
    a = endpoint_order(ns, errors)
    b = endpoint_order(ns, [1e6 * e for e in errors])
    assert a == pytest.approx(b)
    assert a == pytest.approx(3.0)


def test_check_ns():
    assert check_ns([20, 10]) == (10, 20)
    assert check_ns([16]) == (16,)
    with pytest.raises(ValueError):
        check_ns([10, 10, 20])
    with pytest.raises(ValueError):
        check_ns([15, 30])  # odd
    with pytest.raises(ValueError):
        check_ns([2, 8])  # too small
    with pytest.raises(ValueError):
        check_ns([])


# ---------------------------------------------------------------------------
# richardson


def test_richardson_cancels_synthetic_pollution():
    """Combining h and h/2 states kills an exact h^4 error term."""
    n = 16
    x_h = np.arange(n + 1) * (TWO_PI / n)
    x_h2 = np.arange(2 * n + 1) * (TWO_PI / (2 * n))
    truth = lambda x: np.sin(x) + 0.25 * np.cos(2 * x)
    pollution = lambda x: 1.0 + 0.5 * np.sin(3 * x)
    h = TWO_PI / n
    u_h = truth(x_h) + h**4 * pollution(x_h)
    u_h2 = truth(x_h2) + (h / 2) ** 4 * pollution(x_h2)
    out = richardson(u_h, u_h2, order=4)
    assert out.shape == x_h.shape
    assert np.abs(out - truth(x_h)).max() < 1e-13


def test_richardson_second_order_weighting():
    n = 8
    x_h = np.arange(n + 1) * (TWO_PI / n)
    x_h2 = np.arange(2 * n + 1) * (TWO_PI / (2 * n))
    h = TWO_PI / n
    u_h = np.cos(x_h) + h**2 * np.sin(x_h)
    u_h2 = np.cos(x_h2) + (h / 2) ** 2 * np.sin(x_h2)
    out = richardson(u_h, u_h2, order=2)
    assert np.abs(out - np.cos(x_h)).max() < 1e-13


def test_richardson_shape_guard():
    with pytest.raises(ValueError, match="refine"):
        richardson(np.zeros(5), np.zeros(8))


def test_richardson_study_runs():
    rep = richardson_study("s1", None, Compact(), (10, 20), 1.0)
    assert len(rep.entries) == 2
    for e in rep.entries:
        assert e.error_extrapolated < e.error_h


# ---------------------------------------------------------------------------
# convergence studies (small grids only; the full tables live in the
# acceptance suite)


def test_convergence_study_fourth_order():
    rep = convergence_study("s1", None, Compact(), (8, 16, 32), 1.0)
    assert 3.3 < rep.estimated_order < 4.7
    errs = [e.error for e in rep.entries]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_study_classic_second_order():
    rep = convergence_study("s1", None, Classic(), (8, 16, 32), 1.0)
    assert 1.6 < rep.estimated_order < 2.4


def test_convergence_entries_report_cost():
    rep = convergence_study("s1", None, Compact(), (8, 16), 1.0)
    assert [e.muls_per_step for e in rep.entries] == [8 * 8 + 2, 8 * 16 + 2]


# ---------------------------------------------------------------------------
# spectra


def test_classic_uniform_spectrum_closed_form():
    n, nu = 12, 0.3
    ks = np.arange(1, n)
    # interior modes sin(k x / 2): second difference eigenvalue
    # -4 sin^2(k pi / (2 n)) on the period grid
    s = np.sin(0.5 * math.pi * ks / n) ** 2
    want = (1.0 - 2.0 * nu * s) / (1.0 + 2.0 * nu * s)
    got = classic_uniform_spectrum(n, nu)
    assert np.allclose(np.sort(got), np.sort(want), atol=1e-14)


@pytest.mark.parametrize("n", [12, 40, 41])
def test_classic_transition_matches_closed_form(n):
    """Dense transition eigenvalues against the trigonometric formula; theta = 1
    makes M mirror-symmetric, so they come from its two blocks, at both parities."""
    nu = 0.3
    problem = ProblemSpec(
        theta=lambda x: 1.0,
        forcing=lambda t, x: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
        boundary=Dirichlet(lambda t: 0.0, lambda t: 0.0),
        kind=ScalarKind.REAL,
    )
    raw_tau = nu * (TWO_PI / n) ** 2
    grid = make_grid(n, nu, 10 * raw_tau, 1.0)
    # the horizon is an exact multiple of the raw step, so no snapping
    assert grid.tau == pytest.approx(nu * grid.h * grid.h, rel=1e-12)
    mats = assemble_classic(problem, grid)
    m = transition_matrix(mats)
    assert mirror_blocks(m) is not None
    vals = eigenvalues(m)
    want = classic_uniform_spectrum(n, nu)
    assert vals.shape == (n - 1,)
    assert np.allclose(np.sort(vals.real), np.sort(want), atol=1e-10)
    assert np.abs(vals.imag).max() < 1e-10
    assert np.abs(np.sort(vals.real) - np.sort(want)).max() < 1e-13


def test_spectrum_report_fields():
    rep = spectrum_report(np.diag([0.5, 0.25]))
    assert rep.max_modulus == pytest.approx(0.5)
    assert rep.max_imag_abs == 0.0
    assert rep.all_negative  # -M has all negative real parts
    rep2 = spectrum_report(np.diag([0.5, -0.25]))
    assert not rep2.all_negative


def test_diagonalization_check_defective_matrix():
    assert diagonalization_check(np.array([[1.0, 1.0], [0.0, 1.0]])) == "inconclusive"


def test_diagonalization_check_normal_matrix():
    q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    m = q @ np.diag(rng.normal(size=6)) @ q.T
    assert diagonalization_check(m) == "ok"


def test_ll_transition_is_unimodular_small():
    problem = conservation_problem()
    grid = make_grid(20, 1.0j, 1.0, 2.0)
    mats = assemble_compact(problem, grid)
    m = transition_matrix(mats)
    vals = eigenvalues(m)
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-10


def set_distance(a, b):
    """Hausdorff distance between two finite point sets in the plane."""
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


COMPACT_CLOSURES = (CompactThreePoint(), MainTerms(), ReducedTwoPoint())
# every catalogue sample in the complex kind with each compact closure its walls take,
# and the classic scheme's Dirichlet step
REVERSIBLE_CASES = [
    pytest.param(name, Compact(), id=f"{name}-compact") for name in ("s1", "s2", "s3")
] + [
    pytest.param(name, Compact(neumann=c), id=f"{name}-compact-{type(c).__name__}")
    for name in ("sn", "snll") for c in COMPACT_CLOSURES
] + [pytest.param("s1", Classic(), id="s1-classic")]


@pytest.mark.parametrize("name, scheme", REVERSIBLE_CASES)
@pytest.mark.parametrize("courant, rtol", [(1j, 1e-12), (10j, 1e-12), (100j, 1e-12), (1e4j, 1e-10)])
def test_cayley_mapped_spectrum_matches_the_complex_eigensolve(name, scheme, courant, rtol):
    problem = sample_solution(name, kind=ScalarKind.COMPLEX).problem
    for n in (10, 50, 100):
        m = transition_matrix(assemble(problem, analysis._matrix_grid(n, courant, problem.theta), scheme))
        rep = spectrum_report(m)
        assert rep.generator_imag_abs is not None, n  # the real route ran
        want = np.linalg.eigvals(m)
        assert set_distance(rep.eigenvalues, want) <= rtol * np.abs(want).max(), n
        order = np.lexsort((rep.eigenvalues.imag, rep.eigenvalues.real))
        assert np.array_equal(order, np.arange(m.shape[0])), n


def _compact_sn(closure, n, courant):
    problem = sample_solution("sn", kind=ScalarKind.COMPLEX).problem
    grid = analysis._matrix_grid(n, courant, problem.theta)
    return transition_matrix(assemble_compact(problem, grid, neumann_variant=closure))


def _cayley_map(k):
    two = 2.0 * np.eye(len(k))
    return np.linalg.solve(two + 1j * k, two - 1j * k)


def _mirror_with_a_failing_block(n):
    """Q diag(E, O) Q^T: E the Cayley map of a real K, which passes both gates;
    O = diag(-1, Cayley map), reversible, with the eigenvalue -1 that fails the
    second.  The null vector of I + Re O is e_0, on which the condition
    estimate's ramp has weight 1; the estimate can miss a null vector nearly
    orthogonal to the ramp."""
    k = n // 2
    blocks = np.zeros((n, n), complex)
    blocks[: n - k, : n - k] = _cayley_map(rng.normal(size=(n - k, n - k)))
    blocks[n - k, n - k] = -1.0
    blocks[n - k + 1:, n - k + 1:] = _cayley_map(rng.normal(size=(k - 1, k - 1)))
    q = mirror_basis(n)
    return q @ blocks @ q.T


# mirror-symmetric step maps that reach the route's gates as two blocks, one of which fails
MIRROR_FALLBACKS = [
    pytest.param(_compact_sn(ClassicNeumann(eps), n, c), id=f"ClassicNeumann({eps})-N{n}-{c}")
    for eps in (0.5, 0.75, 1.0) for n in (10, 40) for c in (1j, 100j)
] + [pytest.param(_mirror_with_a_failing_block(n), id=f"one-block-with-eigenvalue-1-n{n}") for n in (8, 9)]


@pytest.mark.parametrize(
    "m",
    MIRROR_FALLBACKS
    + [
        pytest.param(np.random.default_rng(7).normal(size=(6, 6, 2)) @ [1, 1j], id="random"),
        pytest.param(np.diag([1j, -1]), id="diag(i,-1)"),
    ],
)
def test_spectrum_report_falls_back_to_the_complex_eigensolve(m):
    """Not reversible (ClassicNeumann(0.75), (1.0), random), or an eigenvalue -1
    (ClassicNeumann(0.5), diag(i, -1), one block of the constructed matrices)."""
    rep = spectrum_report(m)
    assert rep.generator_imag_abs is None
    assert np.array_equal(rep.eigenvalues, eigenvalues(m))


def _catalogue_step_map(name, kind, n, courant, **params):
    problem = sample_solution(name, kind=kind, **params).problem
    return transition_matrix(assemble_compact(problem, analysis._matrix_grid(n, courant, problem.theta)))


@pytest.mark.parametrize("n", [50, 51, 100, 101])
@pytest.mark.parametrize("name, kind, courant", [
    ("s1", ScalarKind.REAL, 5.0), ("s2", ScalarKind.REAL, 5.0),
    ("s1", ScalarKind.COMPLEX, 1j), ("snll", ScalarKind.COMPLEX, 1j),
])
def test_split_spectra_match_the_unsplit_eigensolve(name, kind, courant, n):
    """theta = cos^2 x + 1 is symmetric about pi, so the step maps split
    (Dirichlet: N - 1 rows, Neumann: N + 1, both parities)."""
    m = _catalogue_step_map(name, kind, n, courant)
    assert mirror_blocks(m) is not None
    rep = spectrum_report(m)
    assert (rep.generator_imag_abs is not None) == (kind is ScalarKind.COMPLEX)
    want = np.linalg.eigvals(m)
    assert set_distance(rep.eigenvalues, want) <= 1e-12 * np.abs(want).max()
    assert set_distance(eigenvalues(m), want) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind, courant", [(ScalarKind.REAL, 5.0), (ScalarKind.COMPLEX, 1j)])
def test_a_non_mirror_spectrum_is_unchanged(kind, courant):
    """s3's theta = e^{ax} has no mirror symmetry: one eigensolve of M, or of K."""
    m = _catalogue_step_map("s3", kind, 40, courant, a=2.0)
    assert mirror_blocks(m) is None
    assert np.array_equal(eigenvalues(m), eigvals_sorted(m))
    rep = spectrum_report(m)
    if kind is ScalarKind.REAL:
        assert np.array_equal(rep.eigenvalues, eigvals_sorted(m))
    else:
        mu = eigvals_sorted(analysis._cayley_generator(m))
        vals = (2.0 - 1j * mu) / (2.0 + 1j * mu)
        assert np.array_equal(rep.eigenvalues, vals[np.lexsort((vals.imag, vals.real))])


@pytest.mark.parametrize("m", MIRROR_FALLBACKS)
def test_split_fallbacks_match_the_unsplit_eigensolve(m):
    assert mirror_blocks(m) is not None
    want = np.linalg.eigvals(m)
    assert set_distance(spectrum_report(m).eigenvalues, want) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 9])
def test_one_block_of_the_constructed_matrix_passes_both_gates(n):
    blocks = mirror_blocks(_mirror_with_a_failing_block(n))
    assert analysis._cayley_generator(blocks[0]) is not None
    assert analysis._cayley_generator(blocks[1]) is None


def _mirror_with_a_hidden_eigenvalue_minus_one(n, seed):
    """Q diag(E, R diag(-1, C) R^T) Q^T: E and C Cayley maps of random real
    matrices, R a random orthogonal matrix that turns the eigenvalue -1's null
    vector away from any fixed test vector."""
    gen = np.random.default_rng(seed)
    k = n // 2
    r, _ = np.linalg.qr(gen.normal(size=(k, k)))
    inner = np.zeros((k, k), complex)
    inner[0, 0] = -1.0
    inner[1:, 1:] = _cayley_map(gen.normal(size=(k - 1, k - 1)))
    blocks = np.zeros((n, n), complex)
    blocks[: n - k, : n - k] = _cayley_map(gen.normal(size=(n - k, n - k)))
    blocks[n - k:, n - k:] = r @ inner @ r.T
    q = mirror_basis(n)
    return q @ blocks @ q.T


def test_an_eigenvalue_minus_one_never_passes_the_cayley_route():
    """Over 400 such matrices the route must give every spectrum right: the
    block with the eigenvalue -1 has no K, and a K solved for anyway does not
    give M back (its residual is at least 4, against a bound below 1e-4)."""
    wrong = []
    for n in (8, 9):
        for seed in range(200):
            m = _mirror_with_a_hidden_eigenvalue_minus_one(n, seed)
            got = spectrum_report(m).eigenvalues
            if set_distance(got, np.linalg.eigvals(m)) > 1e-12:
                wrong.append((n, seed))
    assert wrong == []


def test_spectrum_report_of_a_real_matrix_is_unchanged():
    s = sample_solution("s1")
    m = transition_matrix(assemble_compact(s.problem, analysis._matrix_grid(12, 5.0, s.problem.theta)))
    vals = eigenvalues(m)
    want = analysis.SpectrumReport(
        eigenvalues=vals,
        max_modulus=float(np.abs(vals).max()),
        max_imag_abs=float(np.abs(vals.imag).max()),
        all_negative=bool(np.all((-vals).real < 0.0)),
        generator_imag_abs=None,
    )
    rep = spectrum_report(m)
    assert np.array_equal(rep.eigenvalues, want.eigenvalues)
    assert (rep.max_modulus, rep.max_imag_abs, rep.all_negative, rep.generator_imag_abs) == (
        want.max_modulus, want.max_imag_abs, want.all_negative, want.generator_imag_abs)


@pytest.mark.parametrize(
    "name, closure",
    [pytest.param("snll", CompactThreePoint(), id="snll")]
    + [pytest.param("sn", c, id=f"sn-{type(c).__name__}") for c in COMPACT_CLOSURES],
)
def test_complex_kind_spectra_make_no_complex_eigensolve(monkeypatch, name, closure):
    real_eigvals = np.linalg.eigvals

    def real_only(a):
        if np.iscomplexobj(a):
            raise AssertionError("complex eigensolve")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", real_only)
    problem = sample_solution(name, kind=ScalarKind.COMPLEX).problem
    for n in (16, 100):
        grid = analysis._matrix_grid(n, 1j, problem.theta)
        rep = spectrum_report(transition_matrix(assemble_compact(problem, grid, neumann_variant=closure)))
        assert np.abs(np.abs(rep.eigenvalues) - 1.0).max() < 1e-14
        assert rep.generator_imag_abs < 1e-8


def test_diagonalization_check_reuses_given_eigenvalues(monkeypatch):
    q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    m = q @ np.diag(np.arange(1.0, 7.0)) @ q.T
    vals = np.linalg.eigvals(m)
    defective = np.array([[1.0, 1.0], [0.0, 1.0]])
    defective_vals = np.linalg.eigvals(defective)
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a):
            calls.append((name, a.shape))
            return solver(a)

        return call

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    assert diagonalization_check(m, vals=vals) == "ok"
    assert calls == []  # distinct eigenvalues: no eigensolve at all
    assert diagonalization_check(defective, vals=defective_vals) == "inconclusive"
    assert calls == [("eig", (2, 2))]  # a cluster: the eigenvectors are computed


RHS_VARIANTS = tuple(ClassicRhsVariant)
DIRICHLET_SCHEMES = (Compact(),) + tuple(Classic(rhs) for rhs in RHS_VARIANTS)
NEUMANN_SCHEMES = tuple(
    Compact(neumann=closure) for closure in (CompactThreePoint(), ReducedTwoPoint(), MainTerms())
) + tuple(
    Classic(rhs, closure) for rhs in RHS_VARIANTS for closure in (ClassicNeumann(0.5), ClassicNeumann(0.7))
)


def assemble(problem, grid, scheme):
    if isinstance(scheme, Compact):
        return assemble_compact(problem, grid, scheme.cut, scheme.neumann)
    return assemble_classic(problem, grid, scheme.rhs, scheme.neumann)


def dense_transition(mats):
    """-A_new^{-1} A_old by the dense LU, on the interior block for Dirichlet walls."""
    a_new, a_old = _dense_layers(mats)
    if mats.dirichlet is not None:
        a_new, a_old = a_new[1:-1, 1:-1], a_old[1:-1, 1:-1]
    return -solve_dense(a_new, a_old)


def scheme_id(scheme):
    if isinstance(scheme, Compact):
        return f"compact-{type(scheme.neumann).__name__}"
    return f"classic-{scheme.rhs.value}-eps{scheme.neumann.epsilon}"


@pytest.mark.parametrize(
    "name, scheme",
    [pytest.param(name, sc, id=f"{name}-{scheme_id(sc)}")
     for name, schemes in (("s1", DIRICHLET_SCHEMES), ("s2", DIRICHLET_SCHEMES),
                           ("s3", DIRICHLET_SCHEMES), ("sn", NEUMANN_SCHEMES),
                           ("snll", NEUMANN_SCHEMES))
     for sc in schemes],
)
@pytest.mark.parametrize("kind", [ScalarKind.REAL, ScalarKind.COMPLEX])
def test_probed_transition_matches_the_dense_solve(name, scheme, kind):
    problem = sample_solution(name, kind=kind).problem
    courant = 1j if kind is ScalarKind.COMPLEX else 1.0
    for n in (10, 50, 100):
        mats = assemble(problem, analysis._matrix_grid(n, courant, problem.theta), scheme)
        got, want = transition_matrix(mats), dense_transition(mats)
        size = n - 1 if mats.dirichlet is not None else n + 1
        assert got.shape == want.shape == (size, size)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), n


def test_transition_of_a_numerically_singular_solver_raises():
    s = sample_solution("s1")
    mats = assemble_compact(s.problem, analysis._matrix_grid(20, 1.0, s.problem.theta))
    solver = mats._solver.copy()
    solver.diag[0] = 1e-16 * np.abs(solver.diag).max()  # the wall row's pivot
    with pytest.raises(SingularMatrixError, match="at row 0 is below 1e-14"):
        transition_matrix(dataclasses.replace(mats, _solver=solver))


def test_spectral_studies_make_no_dense_solve(monkeypatch):
    def no_dense_solve(*args):
        raise AssertionError("solve_dense called")

    monkeypatch.setattr(analysis, "solve_dense", no_dense_solve)
    monkeypatch.setattr("cpde.linalg.solve_dense", no_dense_solve)
    s = sample_solution("sn")
    transition_matrix(assemble_compact(s.problem, analysis._matrix_grid(16, 1.0, s.problem.theta)))
    asymmetry_study((8, 16), 1.0)
    negativity_threshold(analysis._theta_demo, Neumann, 16, [0.1, 0.2, 0.5])


# ---------------------------------------------------------------------------
# asymmetry


def test_asymmetry_of_known_matrix():
    c = np.array([[0.0, 1.0], [0.0, 0.0]])
    # ||C - C^T||_F = sqrt(2), divided by the size 2
    assert asymmetry(c) == pytest.approx(math.sqrt(2.0) / 2.0)
    sym = np.array([[2.0, 1.0], [1.0, -1.0]])
    assert asymmetry(sym) == 0.0
    herm = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    assert asymmetry(herm) == 0.0


def test_asymmetry_needs_square():
    with pytest.raises(ValueError):
        asymmetry(np.zeros((2, 3)))


def test_asymmetry_study_decays():
    rep = asymmetry_study((8, 16, 32), 1.0)
    s_t = [e.s_transition for e in rep.entries]
    s_f = [e.s_forcing for e in rep.entries]
    assert s_t[0] > s_t[-1] and s_f[0] > s_f[-1]
    assert rep.order_transition > 2.5
    assert rep.order_forcing > rep.order_transition


def two_solve_asymmetry(n):
    """The study's two columns by dense LU, as the dense route computed them."""
    grid = analysis._matrix_grid(n, 1.0, analysis._theta_demo)
    problem = analysis._matrix_problem(analysis._theta_demo, Dirichlet(analysis._zero, analysis._zero))
    a_new, a_old, _, b_old = (a[1:-1, 1:-1] for a in dense_operators(assemble_compact(problem, grid)))
    return asymmetry(solve_dense(a_new, a_old)), asymmetry(solve_dense(a_new, grid.tau * b_old))


def test_probed_asymmetry_matches_the_two_dense_solves():
    ns = (8, 16, 50, 100, 200, 400)
    rep = asymmetry_study(ns, 1.0)
    for e in rep.entries:
        s_t, s_f = two_solve_asymmetry(e.n)
        assert e.s_transition == pytest.approx(s_t, rel=1e-9, abs=0.0), e.n
        assert e.s_forcing == pytest.approx(s_f, rel=1e-9, abs=0.0), e.n
        # A_new - A_old = 4B makes tau A_new^{-1} B_old = tau (I + P) / 4
        assert e.s_forcing == pytest.approx(e.tau * e.s_transition / 4.0, rel=1e-8, abs=0.0), e.n


# ---------------------------------------------------------------------------
# negativity threshold


@pytest.mark.parametrize("n", [16, 24, 100])
@pytest.mark.parametrize("boundary", [Dirichlet, Neumann])
def test_one_eigensolve_verdicts_match_the_per_nu_spectra(n, boundary):
    """Each nu's verdict, from the eigensolve at the scan's first nu, against
    the eigenvalues of the transition matrix assembled at that nu."""
    scan = np.linspace(0.05, 1.0, 40)
    walls = Dirichlet(analysis._zero, analysis._zero) if boundary is Dirichlet else Neumann()
    problem = analysis._matrix_problem(analysis._theta_demo, walls)
    verdicts = set()
    for nu in scan:
        mats = assemble_compact(problem, analysis._matrix_grid(n, nu, analysis._theta_demo))
        top = eigenvalues(-transition_matrix(mats)).real.max()
        if abs(top) < 1e-9:  # at the threshold to within rounding
            continue
        points = [scan[0], nu] if nu > scan[0] else [nu]
        bracket = negativity_threshold(analysis._theta_demo, boundary, n, points)
        assert (bracket.upper is None) == (top < 0.0), nu
        verdicts.add(bool(top < 0.0))
    assert verdicts == {True, False}  # the scan crosses the threshold


def test_negativity_scan_assembles_and_eigensolves_once(monkeypatch):
    calls = {"assemble_compact": 0, "eigenvalues": 0}
    for name in calls:
        def counted(*args, _f=getattr(analysis, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    bracket = negativity_threshold(analysis._theta_demo, Dirichlet, 24, np.linspace(0.05, 1.0, 40))
    assert bracket.lower is not None and bracket.upper is not None
    assert calls == {"assemble_compact": 1, "eigenvalues": 1}


def test_negativity_empty_scan():
    assert negativity_threshold(analysis._theta_demo, Dirichlet, 16, []) == NegativityBracket(None, None)


@pytest.mark.parametrize("scan, message", [
    ([-0.1, 0.2], "negative part"),
    ([0.0, 0.2], "nonzero and finite"),
    ([0.1, math.inf], "nonzero and finite"),
    ([0.1, math.nan], "nonzero and finite"),
])
def test_negativity_rejects_a_bad_nu(scan, message):
    with pytest.raises(ValueError, match=message):
        negativity_threshold(analysis._theta_demo, Dirichlet, 16, scan)


def test_negativity_bracket_straddles_crossing():
    theta = lambda x: math.cos(x) ** 2 + 1.0
    bracket = negativity_threshold(theta, Dirichlet, 24, [0.2, 0.3, 0.42, 0.6, 1.0])
    assert bracket.lower is not None
    assert bracket.upper is not None
    assert bracket.lower < bracket.upper


def test_negativity_all_negative_in_range():
    theta = lambda x: math.cos(x) ** 2 + 1.0
    bracket = negativity_threshold(theta, Dirichlet, 16, [0.05, 0.1])
    assert bracket.upper is None
    assert bracket.lower == pytest.approx(0.1)


def test_negativity_grid_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        negativity_threshold(lambda x: 1.0, Dirichlet, 8, [0.3, 0.2])


# ---------------------------------------------------------------------------
# first integral


def test_first_integral_quadratures():
    n = 64
    x = np.arange(n + 1) * (TWO_PI / n)
    state = np.sin(x)
    h = TWO_PI / n
    # integral of sin^2 over a full period is pi
    assert first_integral(state, h, "trapezoid") == pytest.approx(math.pi, rel=1e-12)
    assert first_integral(state, h, "simpson") == pytest.approx(math.pi, rel=1e-12)


def test_first_integral_complex_modulus():
    state = np.full(5, 1.0 + 1.0j)
    h = 0.25
    assert first_integral(state, h, "trapezoid") == pytest.approx(2.0 * h * 4)


def test_simpson_needs_even_panel_count():
    with pytest.raises(ValueError, match="even"):
        first_integral(np.ones(6), 0.1, "simpson")


def test_first_integral_unknown_quadrature():
    with pytest.raises(ValueError):
        first_integral(np.ones(5), 0.1, "midpoint")


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_first_integral_of_a_block_is_that_of_each_column(quadrature):
    """A block sums over its node axis in another order than a 1-D state does."""
    h = TWO_PI / 50
    block = np.sin(np.arange(51)[:, None] * h) * np.exp(1j * np.arange(9)) * np.arange(1, 10)
    got = first_integral(block, h, quadrature)
    want = [first_integral(block[:, j], h, quadrature) for j in range(block.shape[1])]
    assert got.shape == (9,)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_series_rejects_an_odd_panel_count_before_any_march_work(monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled before checking the quadrature")

    monkeypatch.setattr(analysis, "assemble_compact", no_assembly)
    with pytest.raises(ValueError, match="even panel count, got 25"):
        first_integral_series(25, quadrature="simpson")


def test_conservation_series_oscillates_but_returns():
    series = first_integral_series(16, courant=1.0j, t_final=0.5)
    steps = [s for s, _, _ in series]
    assert steps[0] == 0 and len(series) == steps[-1] + 1
    values = np.array([v for _, _, v in series])
    assert values[0] == pytest.approx(math.pi, rel=1e-3)
    spread = values.max() - values.min()
    assert 0.0 < spread < 1e-3 * values[0]


def test_first_integral_series_stops_on_a_non_finite_state(monkeypatch):
    problem = dataclasses.replace(
        analysis.conservation_problem(), initial=lambda x: np.full(np.shape(x), np.nan, complex)
    )
    monkeypatch.setattr(analysis, "conservation_problem", lambda: problem)
    with pytest.raises(FloatingPointError, match="non-finite between steps 1 and"):
        first_integral_series(16, courant=1.0j, t_final=0.5)


def test_drift_report_validation():
    with pytest.raises(ValueError, match="distinct"):
        first_integral_drift((16, 16, 32))
    with pytest.raises(ValueError, match=">= 4"):
        first_integral_drift((2, 8))
    with pytest.raises(ValueError, match="even"):
        first_integral_drift((9, 16, 25, 36), quadrature="simpson")


def test_drift_rejects_an_empty_grid_list():
    with pytest.raises(ValueError, match="need at least one grid size"):
        first_integral_drift(())


def test_cut_study_rejects_an_empty_cut_list():
    with pytest.raises(ValueError, match="need at least one cut level"):
        cut_study("s1", None, (8, 16), 1.0, cuts=())


def test_drift_rejects_non_integral_grid_sizes():
    # int(25.5) would quietly run N=25
    with pytest.raises(ValueError, match="integers"):
        first_integral_drift([25.5, 50])


def test_drift_amplitude_shrinks():
    rep = first_integral_drift((8, 16, 32), t_final=0.25)
    amps = [e.amplitude for e in rep.entries]
    assert amps[0] > amps[-1]
    assert rep.slope > 2.0


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_curve_orders_and_labels():
    curves = efficiency_curve(
        "s1",
        None,
        [("compact", Compact()), ("classic", Classic())],
        (8, 16),
        1.0,
    )
    assert [label for label, _ in curves] == ["compact", "classic"]
    compact_rep = curves[0][1]
    classic_rep = curves[1][1]
    assert compact_rep.entries[0].muls_per_step > classic_rep.entries[0].muls_per_step
    assert compact_rep.entries[0].error < classic_rep.entries[0].error
