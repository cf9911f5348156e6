"""Experiment layer: convergence, extrapolation, spectra, conservation.

Everything here consumes the assembly/stepping layer and produces small
report records that the command line serializes to CSV.  Orders of
accuracy come from one of two log ratios.  The endpoint ratio

    order = log(err(N_min) / err(N_max)) / log(N_max / N_min)

is the order a reference table prints and the one the reports carry;
a check that pins a table's printed order judges it.  The finest-pair
ratio

    order = log(err(N_{k-1}) / err(N_k)) / log(N_k / N_{k-1})

leaves out the coarse, pre-asymptotic grids, so a check that states an
asymptotic rate (fourth order, or sixth after extrapolation) judges
that one.  A least-squares slope over all points is attached as a
diagnostic.
"""

from __future__ import annotations

import math
from itertools import takewhile
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    TWO_PI,
    Dirichlet,
    Grid1D,
    Neumann,
    ProblemSpec,
    SampleSolution,
    ScalarKind,
    TwoModeForcing,
    TwoModeWall,
    _theta_cos2,
    grid_for,
    grid_nodes,
    make_grid,
    sample_solution,
    theta_grid_max,
)
from .linalg import (MAX_EIGEN_SIZE, REVERSIBLE_RTOL, block_eigenvalues, eigenvalues, frobenius,
                     mirror_blocks)
from .linalg import solve_dense  # noqa: F401  unused; the benchmark's tracer test patches this binding
from .steppers import (
    Classic,
    Compact,
    SchemeDescriptor,
    SchemeMatrices,
    _probe,
    _states,
    assemble_compact,
    c_norm_error,
    run,
)


# ---------------------------------------------------------------------------
# reports


class ConvergenceEntry(NamedTuple):
    n: int
    h: float
    tau: float
    steps: int
    error: float
    muls_per_step: int


class ConvergenceReport(NamedTuple):
    entries: tuple
    estimated_order: float
    lsq_order: float


class RichardsonEntry(NamedTuple):
    n: int
    h: float
    error_h: float
    error_extrapolated: float


class RichardsonReport(NamedTuple):
    entries: tuple
    order_h: float
    order_extrapolated: float


class SpectrumReport(NamedTuple):
    eigenvalues: np.ndarray
    max_modulus: float
    max_imag_abs: float
    all_negative: bool
    # max|Im mu| of the real generator (see spectrum_report); None off that route
    generator_imag_abs: Optional[float]


class AsymmetryEntry(NamedTuple):
    n: int
    h: float
    tau: float
    s_transition: float
    s_forcing: float


class AsymmetryReport(NamedTuple):
    entries: tuple
    order_transition: float
    order_forcing: float


class NegativityBracket(NamedTuple):
    """Last all-negative nu and first violating nu (None = not seen)."""

    lower: Optional[float]
    upper: Optional[float]


class DriftEntry(NamedTuple):
    n: int
    h: float
    baseline: float
    amplitude: float


class DriftReport(NamedTuple):
    entries: tuple
    slope: float


# ---------------------------------------------------------------------------
# shared helpers


def check_ns(ns: Sequence[int]) -> tuple:
    """Validate and sort a grid-size list: even integers >= 4, distinct."""
    out = []
    for n in ns:
        k = int(n)
        if k != n or k < 4 or k % 2 != 0:
            raise ValueError(f"grid sizes must be even integers >= 4, got {n!r}")
        out.append(k)
    out.sort()
    if len(set(out)) != len(out):
        raise ValueError("grid sizes must be distinct")
    if not out:
        raise ValueError("need at least one grid size")
    return tuple(out)


def endpoint_order(ns: Sequence[int], errors: Sequence[float]) -> float:
    if len(ns) < 2 or min(errors) <= 0.0:
        return math.nan
    return math.log(errors[0] / errors[-1]) / math.log(ns[-1] / ns[0])


def finest_pair_order(ns: Sequence[int], errors: Sequence[float]) -> float:
    if len(ns) < 2 or min(errors[-2:]) <= 0.0:
        return math.nan
    return math.log(errors[-2] / errors[-1]) / math.log(ns[-1] / ns[-2])


def lsq_order(ns: Sequence[int], errors: Sequence[float]) -> float:
    if len(ns) < 2 or min(errors) <= 0.0:
        return math.nan
    logs_h = np.log(np.asarray([TWO_PI / n for n in ns], dtype=float))
    logs_e = np.log(np.asarray(errors, dtype=float))
    slope = np.polyfit(logs_h, logs_e, 1)[0]
    return float(slope)


def _require_kind(courant, kind: ScalarKind, study: str) -> None:
    """Reject a Courant number of the other kind; an imaginary one selects the complex kind."""
    if (complex(courant).imag != 0.0) != (kind is ScalarKind.COMPLEX):
        raise ValueError(f"{study} runs the {kind.value} kind, but courant {courant} selects the other")


def _resolve_sample(solution_id, params: Optional[dict], courant) -> SampleSolution:
    if isinstance(solution_id, SampleSolution):
        return solution_id
    kind = ScalarKind.COMPLEX if complex(courant).imag != 0.0 else None
    return sample_solution(str(solution_id), kind=kind, **(params or {}))


def _single_run(sample: SampleSolution, n: int, scheme, courant, t_final):
    grid = grid_for(sample, n, courant, t_final)
    report = run(sample.problem, grid, scheme)
    exact = sample.exact(grid.t_final, grid.x)
    err = c_norm_error(report.final_state, exact)
    return grid, report, err


def _matrix_grid(n: int, courant, theta: Callable[[float], float]) -> Grid1D:
    """One-step grid whose tau is exactly |courant| h^2 / max theta."""
    theta_max = theta_grid_max(theta, grid_nodes(n))
    h = TWO_PI / n
    t = abs(complex(courant)) * h * h / theta_max
    return make_grid(n, courant, t, theta_max)


def _zero(t):
    return 0.0


_theta_demo = _theta_cos2  # cos^2 x + 1, the coefficient of the asymmetry and conservation studies


def _matrix_problem(theta, boundary, kind=ScalarKind.REAL) -> ProblemSpec:
    """Minimal problem object for when only the operators matter."""
    return ProblemSpec(
        theta=theta,
        forcing=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary=boundary,
        kind=kind,
    )


# ---------------------------------------------------------------------------
# convergence and extrapolation


def convergence_study(
    solution_id,
    params: Optional[dict],
    scheme: SchemeDescriptor,
    ns: Sequence[int],
    courant,
    t_final: float = 1.0,
) -> ConvergenceReport:
    """C-norm error of a scheme against one manufactured solution."""
    ns = check_ns(ns)
    sample = _resolve_sample(solution_id, params, courant)

    def one(n: int) -> ConvergenceEntry:
        grid, report, err = _single_run(sample, n, scheme, courant, t_final)
        return ConvergenceEntry(n, grid.h, grid.tau, report.steps, err, report.muls_per_step)

    entries = [one(n) for n in ns]
    errors = [e.error for e in entries]
    return ConvergenceReport(
        entries=tuple(entries),
        estimated_order=endpoint_order(ns, errors),
        lsq_order=lsq_order(ns, errors),
    )


def richardson(u_h: np.ndarray, u_h2: np.ndarray, order: int = 4) -> np.ndarray:
    """Extrapolate two same-time states on grids N and 2N to the coarse grid.

    With u_h = u + h^p w + o(h^p) and the halved-step state carrying
    (h/2)^p w, the weighted difference (2^p u_{h/2} - u_h)/(2^p - 1)
    cancels the leading term.  order is p (4 for the compact scheme,
    2 for the classic one).
    """
    u_h = np.asarray(u_h)
    u_h2 = np.asarray(u_h2)
    if u_h2.shape[0] != 2 * u_h.shape[0] - 1:
        raise ValueError(
            f"fine grid must refine the coarse one: {u_h2.shape[0]} vs {u_h.shape[0]} nodes"
        )
    w = 2.0 ** order
    return (w * u_h2[::2] - u_h) / (w - 1.0)


def richardson_study(
    solution_id,
    params: Optional[dict],
    scheme: SchemeDescriptor,
    ns: Sequence[int],
    courant,
    t_final: float = 1.0,
) -> RichardsonReport:
    ns = check_ns(ns)
    sample = _resolve_sample(solution_id, params, courant)
    base_order = 2 if isinstance(scheme, Classic) else 4
    # each distinct grid runs once: the 2N of one entry can be the N of another
    runs = {k: _single_run(sample, k, scheme, courant, t_final)
            for k in dict.fromkeys(k for n in ns for k in (n, 2 * n))}

    def one(n: int) -> RichardsonEntry:
        grid, report, err = runs[n]
        extrap = richardson(report.final_state, runs[2 * n][1].final_state, base_order)
        exact = sample.exact(grid.t_final, grid.x)
        return RichardsonEntry(n, grid.h, err, c_norm_error(extrap, exact))

    entries = [one(n) for n in ns]
    return RichardsonReport(
        entries=tuple(entries),
        order_h=endpoint_order(ns, [e.error_h for e in entries]),
        order_extrapolated=endpoint_order(ns, [e.error_extrapolated for e in entries]),
    )


def cut_study(
    solution_id,
    params: Optional[dict],
    ns: Sequence[int],
    courant,
    t_final: float = 1.0,
    cuts: Sequence[int] = (5, 6, 7, 8, 9, 10),
) -> dict:
    """Convergence of the compact scheme with truncated coefficient powers."""
    if not cuts:
        raise ValueError("need at least one cut level")
    if len(set(cuts)) != len(cuts):
        raise ValueError(f"cut levels must be distinct, got {list(cuts)}")
    return {
        cut: convergence_study(solution_id, params, Compact(cut=cut), ns, courant, t_final)
        for cut in cuts
    }


# ---------------------------------------------------------------------------
# spectra


def transition_matrix(mats: SchemeMatrices) -> np.ndarray:
    """Dense M = -A_new^{-1} A_old on the boundary-appropriate subspace.

    Dirichlet restricts to interior nodes (u_0 = u_N = 0); Neumann keeps
    all N+1 nodes with the wall rows folded in.  M is the step map P of
    ``steppers``, read off one batched banded step on the unit states
    (``steppers._probe``): O(m^2) work and no dense solve.  A numerically
    singular A_new raises SingularMatrixError from the sweep's pivot
    check.
    """
    m = mats.grid.n + 1
    nodes = range(1, m - 1) if mats.dirichlet is not None else range(m)
    if len(nodes) > MAX_EIGEN_SIZE:
        raise ValueError(f"transition matrix of size {len(nodes)} exceeds the {MAX_EIGEN_SIZE} cap")
    # row j of the probe is the response to unit state j: column j of M
    return _probe(mats, nodes)[:, nodes.start : nodes.stop].T


def _is_dirichlet(boundary) -> bool:
    if isinstance(boundary, Dirichlet) or boundary is Dirichlet:
        return True
    if isinstance(boundary, Neumann) or boundary is Neumann:
        return False
    raise TypeError(f"not a boundary descriptor: {boundary!r}")


def _cayley_generator(m: np.ndarray) -> Optional[np.ndarray]:
    """Real K with M = (2 + iK)^{-1} (2 - iK), or None when M has no such K.

    Such a K exists iff M conj(M) = I (M is reversible: conjugating it
    inverts it) and -1 is not an eigenvalue of M.  Then
    K = -2i (I + M)^{-1} (I - M) equals its own conjugate, and the real
    part of (I + M) K = -2i (I - M) reads (I + Re M) K = -2 Im M, one
    real solve.  For a reversible M, I + Re M is singular iff I + M is.

    So M must pass two gates: ||M conj(M) - I||_F <= REVERSIBLE_RTOL n, and the K
    solved for must give M back: R = 2 (M - I) + iK (M + I) must vanish to
    ||R||_F <= n eps ||M||_F (2 + ||K||_F)^2.  The solve's rounding grows
    with the conditioning of I + Re M, which grows with ||K||, hence the
    square.  A solve that merely does not raise is not enough: at an
    eigenvalue -1 (``ClassicNeumann(0.5)`` walls) the rounded pivot is
    tiny but nonzero, Im M vanishes along the null vector, and K comes
    back O(1) wrong; R is then at least 4 along that eigenvector.  A real
    M, or one beyond the eigensolver's size cap, returns None without any
    work.
    """
    n = m.shape[0]
    if not np.iscomplexobj(m) or m.shape != (n, n) or not 0 < n <= MAX_EIGEN_SIZE:
        return None
    # m x m temporaries are updated in place: the route must not raise the peak memory
    eps = np.finfo(float).eps
    diag = np.arange(n), np.arange(n)
    defect = m @ m.conj()
    defect[diag] -= 1.0
    if not np.linalg.norm(defect) <= REVERSIBLE_RTOL * n:
        return None
    del defect
    shifted = np.array(m.real)
    shifted[diag] += 1.0
    try:
        x = np.linalg.solve(shifted, m.imag)  # K = -2x
    except np.linalg.LinAlgError:
        return None
    # R / 2 = (M - I) - ix (M + I): real part Re M - I + x Im M, imaginary
    # part Im M - x (I + Re M), up to sign
    imag = x @ shifted
    del shifted
    imag -= m.imag
    real = x @ m.imag
    real += m.real
    real[diag] -= 1.0
    half = math.hypot(np.linalg.norm(real), np.linalg.norm(imag))
    if not half <= 2.0 * n * eps * np.linalg.norm(m) * (1.0 + np.linalg.norm(x)) ** 2:
        return None
    x *= -2.0
    return x


def spectrum_report(m: np.ndarray) -> SpectrumReport:
    """Eigenvalues of a transition matrix M plus summary flags.

    A mirror-symmetric M (theta symmetric about pi) is split once into
    its two half-size blocks (``linalg.mirror_blocks``), and all below
    runs per block; any other M is one block.  A reversible complex M
    (the Schrodinger kind's step map) is the Cayley map
    M = (2 + iK)^{-1} (2 - iK) of a real K (``_cayley_generator``), so
    its eigenvalues are (2 - i mu)/(2 + i mu) for the eigenvalues mu of
    K: one real eigensolve at about half the cost of a complex one.
    They are unimodular iff every mu is real, and generator_imag_abs =
    max|Im mu| is the defect ("almost self-adjoint").  If a block fails
    either of the route's gates, M's blocks are eigensolved directly and
    generator_imag_abs is None.  The blocks' squared reversibility
    defects add up to M's, and a block has at most n/sqrt 2 rows, so an
    M that fails the full-size reversibility gate fails some block's.

    all_negative applies the sign criterion to A_new^{-1} A_old = -M:
    True when every eigenvalue of -M has negative real part.
    """
    m = np.asarray(m)
    blocks = mirror_blocks(m) or (m,)
    ks = list(takewhile(lambda k: k is not None, map(_cayley_generator, blocks)))
    if len(ks) < len(blocks):
        vals, defect = block_eigenvalues(blocks), None
    else:
        mu = block_eigenvalues(ks)
        vals = (2.0 - 1j * mu) / (2.0 + 1j * mu)
        vals, defect = vals[np.lexsort((vals.imag, vals.real))], float(np.abs(mu.imag).max())
    return SpectrumReport(
        eigenvalues=vals,
        max_modulus=float(np.abs(vals).max()),
        max_imag_abs=float(np.abs(vals.imag).max()),
        all_negative=bool(np.all((-vals).real < 0.0)),
        generator_imag_abs=defect,
    )


def diagonalization_check(m: np.ndarray, vals: Optional[np.ndarray] = None) -> str:
    """"ok" when the matrix is verifiably diagonalizable, else "inconclusive".

    Distinct eigenvalues (no two within 1e-8 of the spectral scale)
    settle it; with clusters, an eigendecomposition residual below 1e-6
    of ||m||_F still counts as ok.  vals, when given, are m's eigenvalues
    (a ``spectrum_report``'s); the eigenvectors are computed only for a
    cluster.  Never raises: callers are expected to skip rather than
    fail on "inconclusive".
    """
    if vals is None:
        vals = np.linalg.eigvals(m)
    scale = max(float(np.abs(vals).max()), 1e-300)
    sorted_vals = vals[np.lexsort((vals.imag, vals.real))]
    gaps = np.abs(np.diff(sorted_vals))
    if gaps.size == 0 or gaps.min() > 1e-8 * scale:
        return "ok"
    vals, vecs = np.linalg.eig(m)
    try:
        recon = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return "inconclusive"
    res = frobenius(recon - m) / max(frobenius(m), 1e-300)
    return "ok" if res < 1e-6 else "inconclusive"


# ---------------------------------------------------------------------------
# asymmetry


def asymmetry(c: np.ndarray) -> float:
    """Frobenius norm of C minus its conjugate transpose over the size."""
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("asymmetry needs a square matrix")
    return frobenius(c - c.conj().T) / c.shape[0]


def asymmetry_study(
    ns: Sequence[int],
    courant=1.0,
    t_final: Optional[float] = None,
) -> AsymmetryReport:
    """Decay of S(A_new^{-1} A_old) and S(A_new^{-1} B_old) with N.

    Dirichlet interior restriction, real kind (an imaginary courant
    raises ValueError).  B_old enters in literal units (tau times the
    stored scaled operator); that is what gives the forcing column its
    extra two orders of decay.  With t_final = None each grid uses the
    raw tau = |courant| h^2 / max theta; passing a horizon instead snaps
    tau to an integer number of steps first.

    Both matrices are probed from the banded step (``steppers._probe``),
    one batched step each: the responses to the interior unit states are
    P = -A_new^{-1} A_old, whose S equals that of A_new^{-1} A_old, and
    those to the interior unit forcings f^n are Q0 = tau A_new^{-1} B_old.
    Two half-width probes rather than one stacked probe keep the peak
    memory at that of the dense solves they replace.  The layer identity
    A_new - A_old = 4 B makes Q0 = tau (I + P) / 4, so s_forcing is
    tau s_transition / 4; the study measures the two apart all the same.
    """
    ns = check_ns(ns)
    _require_kind(courant, ScalarKind.REAL, "the asymmetry study")
    problem = _matrix_problem(_theta_demo, Dirichlet(_zero, _zero))

    def one(n: int) -> AsymmetryEntry:
        if t_final is None:
            grid = _matrix_grid(n, courant, _theta_demo)
        else:
            grid = make_grid(n, courant, t_final, theta_grid_max(_theta_demo, grid_nodes(n)))
        mats = assemble_compact(problem, grid)
        # the transposes P^T and Q0^T on the interior nodes, to which S is blind
        p_t = _probe(mats, range(1, n))[:, 1:n]
        q0_t = _probe(mats, (), np.eye(n - 1, n + 1, 1))[:, 1:n]
        return AsymmetryEntry(n, grid.h, grid.tau, asymmetry(p_t), asymmetry(q0_t))

    entries = [one(n) for n in ns]
    return AsymmetryReport(
        entries=tuple(entries),
        order_transition=endpoint_order(ns, [e.s_transition for e in entries]),
        order_forcing=endpoint_order(ns, [e.s_forcing for e in entries]),
    )


# ---------------------------------------------------------------------------
# negativity threshold


def negativity_threshold(
    theta: Callable[[float], float],
    boundary,
    n: int,
    nu_grid: Sequence[float],
) -> NegativityBracket:
    """Bracket the Courant value where A_new^{-1} A_old loses negativity.

    Scans nu_grid in increasing order; returns the last nu at which
    every eigenvalue real part is negative and the first nu at which
    some real part reaches zero or above.  Either side may be None when
    the transition is not seen in range.

    One assembly and one ``eigenvalues`` call (two half-size eigensolves
    for a theta symmetric about pi), at the first nu, serve the scan.
    The layers are S + 2B and S - 2B, where S is proportional to tau
    (every grid ratio theta_j tau / h^2, the walls' too) and B does not
    depend on it.  So with mu the eigenvalues of B^{-1} S on the first
    grid, those of A_new^{-1} A_old on a grid whose tau is s times the
    first one's are (s mu - 2)/(s mu + 2), and their real parts, of the
    sign of s^2 |mu|^2 - 4, are all negative iff s max|mu| < 2.
    mu = 2 (1 + lam)/(1 - lam) from the first grid's eigenvalues lam.
    """
    nus = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise ValueError("nu_grid must be strictly increasing")
    bound = Dirichlet(_zero, _zero) if _is_dirichlet(boundary) else Neumann()
    problem = _matrix_problem(theta, bound)
    last_negative = mu_max = tau0 = None
    for nu in nus:
        grid = _matrix_grid(n, nu, theta)
        if mu_max is None:
            # A_new^{-1} A_old = -M; negation is exact
            lam = eigenvalues(-transition_matrix(assemble_compact(problem, grid)))
            mu_max = float(np.abs(2.0 * (1.0 + lam) / (1.0 - lam)).max())
            tau0 = grid.tau
        if grid.tau / tau0 * mu_max < 2.0:
            last_negative = nu
        else:
            return NegativityBracket(last_negative, nu)
    return NegativityBracket(last_negative, None)


# ---------------------------------------------------------------------------
# first integral


def first_integral(state: np.ndarray, h: float, quadrature: str = "trapezoid"):
    """Composite quadrature of |state|^2 over the period; a block of states
    with the node axis first gives an array, one value per column."""
    q = np.abs(np.asarray(state)) ** 2
    out = float if q.ndim == 1 else np.asarray
    if quadrature == "trapezoid":
        return out(h * (q.sum(0) - 0.5 * q[0] - 0.5 * q[-1]))
    if quadrature == "simpson":
        panels = q.shape[0] - 1
        if panels % 2 != 0:
            raise ValueError(f"Simpson quadrature needs an even panel count, got {panels}")
        return out(h / 3.0 * (q[0] + q[-1] + 4.0 * q[1:-1:2].sum(0) + 2.0 * q[2:-2:2].sum(0)))
    raise ValueError(f"unknown quadrature {quadrature!r}")


def conservation_problem() -> ProblemSpec:
    """Free Schrodinger-type evolution of sin x with homogeneous walls, whose
    zero forcing and walls declare their modes (closed form, ``steppers``)."""
    return ProblemSpec(
        theta=_theta_demo,
        forcing=TwoModeForcing(0.0, np.zeros_like, np.zeros_like),
        initial=lambda x: np.sin(np.asarray(x, dtype=float)).astype(complex),
        boundary=Dirichlet(TwoModeWall(0.0, 0.0, 0.0), TwoModeWall(0.0, 0.0, 0.0)),
        kind=ScalarKind.COMPLEX,
    )


def first_integral_series(
    n: int,
    courant=1j,
    t_final: float = 1.0,
    quadrature: str = "trapezoid",
) -> list:
    """Per-step (step, t, I) history of the complex-kind conservation demo run,
    one quadrature call per block of ``steppers._states``."""
    _require_kind(courant, ScalarKind.COMPLEX, "the conservation demo")
    problem = conservation_problem()
    grid = make_grid(n, courant, t_final, theta_grid_max(problem.theta, grid_nodes(n)))
    u = np.asarray(problem.initial(grid.x), dtype=complex)
    out = [(0, 0.0, first_integral(u, grid.h, quadrature))]
    mats = assemble_compact(problem, grid)
    for block in _states(mats, u, problem, grid.n_steps):
        values = first_integral(block, grid.h, quadrature).tolist()
        out.extend((k, k * grid.tau, i) for k, i in enumerate(values, len(out)))
    return out


def first_integral_drift(
    ns: Sequence[int],
    courant=1j,
    t_final: float = 1.0,
    quadrature: str = "trapezoid",
) -> DriftReport:
    """Oscillation amplitude of the discrete first integral versus h.

    amplitude(N) = max_n |I^n - I^0| over the whole run.  It shrinks like
    h^4 at a fixed |courant|.  The exact integral of |u|^2 is conserved,
    so the drift is bounded by the state error, O(h^4 + tau^2) = O(h^4),
    plus the quadrature error, which is O(h^6) for both rules here: at
    the walls u = 0 and theta' = 0 force u_xx = 0, so the odd derivatives
    q' and q''' of q = |u|^2 vanish at both ends and the h^2 and h^4
    terms of the Euler-Maclaurin sum drop out.
    """
    if any(int(n) != n for n in ns):
        raise ValueError(f"grid sizes must be integers, got {list(ns)!r}")
    ns_sorted = tuple(sorted(int(n) for n in ns))
    if not ns_sorted:
        raise ValueError("need at least one grid size")
    if len(set(ns_sorted)) != len(ns_sorted) or ns_sorted[0] < 4:
        raise ValueError("grid sizes must be distinct integers >= 4")
    if quadrature == "simpson" and any(n % 2 != 0 for n in ns_sorted):
        raise ValueError("Simpson quadrature needs even panel counts")

    def one(n: int) -> DriftEntry:
        series = first_integral_series(n, courant, t_final, quadrature)
        base = series[0][2]
        amp = max(abs(i - base) for _, _, i in series)
        return DriftEntry(n, TWO_PI / n, base, amp)

    entries = [one(n) for n in ns_sorted]
    amps = [e.amplitude for e in entries]
    return DriftReport(entries=tuple(entries), slope=endpoint_order(ns_sorted, amps))


# ---------------------------------------------------------------------------
# efficiency


def efficiency_curve(
    solution_id,
    params: Optional[dict],
    schemes: Sequence,
    ns: Sequence[int],
    courant,
    t_final: float = 1.0,
) -> list:
    """Error against per-step multiplication count for labelled schemes.

    schemes is a sequence of (label, descriptor) pairs; the result is a
    list of (label, ConvergenceReport) in the given order.
    """
    out = []
    for label, scheme in schemes:
        out.append((str(label), convergence_study(solution_id, params, scheme, ns, courant, t_final)))
    return out
