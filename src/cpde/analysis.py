"""Experiment layer: convergence, extrapolation, spectra, conservation.

Everything here consumes the assembly/stepping layer and produces small
report dataclasses that the command line serializes to CSV.  Orders of
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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    TWO_PI,
    Dirichlet,
    Grid1D,
    Neumann,
    ProblemSpec,
    SampleSolution,
    ScalarKind,
    grid_for,
    make_grid,
    sample_solution,
    theta_grid_max,
)
from .linalg import eigenvalues, frobenius, solve_dense
from .steppers import (
    Classic,
    Compact,
    SchemeDescriptor,
    SchemeMatrices,
    _dense_layers,
    _step,
    assemble_compact,
    c_norm_error,
    dense_operators,
    run,
)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    h: float
    tau: float
    steps: int
    error: float
    muls_per_step: int


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple
    estimated_order: float
    lsq_order: float


@dataclass(frozen=True)
class RichardsonEntry:
    n: int
    h: float
    error_h: float
    error_extrapolated: float


@dataclass(frozen=True)
class RichardsonReport:
    entries: tuple
    order_h: float
    order_extrapolated: float


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    max_modulus: float
    max_imag_abs: float
    all_negative: bool


@dataclass(frozen=True)
class AsymmetryEntry:
    n: int
    h: float
    tau: float
    s_transition: float
    s_forcing: float


@dataclass(frozen=True)
class AsymmetryReport:
    entries: tuple
    order_transition: float
    order_forcing: float


@dataclass(frozen=True)
class NegativityBracket:
    """Last all-negative nu and first violating nu (None = not seen)."""

    lower: Optional[float]
    upper: Optional[float]


@dataclass(frozen=True)
class DriftEntry:
    n: int
    h: float
    baseline: float
    amplitude: float


@dataclass(frozen=True)
class DriftReport:
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
    h = TWO_PI / n
    x = np.arange(n + 1) * h
    theta_max = theta_grid_max(theta, x)
    t = abs(complex(courant)) * h * h / theta_max
    return make_grid(n, courant, t, theta_max)


def _zero(t):
    return 0.0


def _theta_demo(s):
    """The coefficient cos^2 x + 1 of the asymmetry and conservation studies."""
    return math.cos(s) ** 2 + 1.0


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

    def one(n: int) -> RichardsonEntry:
        grid, report, err = _single_run(sample, n, scheme, courant, t_final)
        grid2, report2, _ = _single_run(sample, 2 * n, scheme, courant, t_final)
        extrap = richardson(report.final_state, report2.final_state, base_order)
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
    return {
        cut: convergence_study(solution_id, params, Compact(cut=cut), ns, courant, t_final)
        for cut in cuts
    }


# ---------------------------------------------------------------------------
# spectra


def transition_matrix(mats: SchemeMatrices) -> np.ndarray:
    """Dense M = -A_new^{-1} A_old on the boundary-appropriate subspace.

    Dirichlet restricts to interior nodes (u_0 = u_N = 0); Neumann keeps
    all N+1 nodes with the wall rows folded in.
    """
    a_new, a_old = _dense_layers(mats)
    if mats.dirichlet is not None:
        a_new = a_new[1:-1, 1:-1]
        a_old = a_old[1:-1, 1:-1]
    if a_new.shape[0] > 512:
        raise ValueError(f"transition matrix of size {a_new.shape[0]} exceeds the 512 cap")
    return -solve_dense(a_new, a_old)


def _is_dirichlet(boundary) -> bool:
    if isinstance(boundary, Dirichlet) or boundary is Dirichlet:
        return True
    if isinstance(boundary, Neumann) or boundary is Neumann:
        return False
    raise TypeError(f"not a boundary descriptor: {boundary!r}")


def spectrum_report(m: np.ndarray) -> SpectrumReport:
    """Eigenvalues of a transition matrix M plus summary flags.

    all_negative applies the sign criterion to A_new^{-1} A_old = -M:
    True when every eigenvalue of -M has negative real part.
    """
    vals = eigenvalues(m)
    return SpectrumReport(
        eigenvalues=vals,
        max_modulus=float(np.abs(vals).max()),
        max_imag_abs=float(np.abs(vals.imag).max()),
        all_negative=bool(np.all((-vals).real < 0.0)),
    )


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


def diagonalization_check(m: np.ndarray, cluster_tol: float = 1e-8,
                          residual_tol: float = 1e-6) -> str:
    """"ok" when the matrix is verifiably diagonalizable, else "inconclusive".

    Distinct eigenvalues (no cluster within cluster_tol relative to the
    spectral scale) settle it; with clusters, a small eigendecomposition
    residual still counts as ok.  Never raises: callers are expected to
    skip rather than fail on "inconclusive".
    """
    vals, vecs = np.linalg.eig(m)
    scale = max(float(np.abs(vals).max()), 1e-300)
    sorted_vals = vals[np.lexsort((vals.imag, vals.real))]
    gaps = np.abs(np.diff(sorted_vals))
    if gaps.size == 0 or gaps.min() > cluster_tol * scale:
        return "ok"
    try:
        recon = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return "inconclusive"
    res = frobenius(recon - m) / max(frobenius(m), 1e-300)
    return "ok" if res < residual_tol else "inconclusive"


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
    """
    ns = check_ns(ns)
    _require_kind(courant, ScalarKind.REAL, "the asymmetry study")
    problem = _matrix_problem(_theta_demo, Dirichlet(_zero, _zero))

    def one(n: int) -> AsymmetryEntry:
        if t_final is None:
            grid = _matrix_grid(n, courant, _theta_demo)
        else:
            x = np.arange(n + 1) * (TWO_PI / n)
            grid = make_grid(n, courant, t_final, theta_grid_max(_theta_demo, x))
        mats = assemble_compact(problem, grid)
        a_new, a_old, _, b_old = dense_operators(mats)
        a_new = a_new[1:-1, 1:-1]
        a_old = a_old[1:-1, 1:-1]
        b_old = b_old[1:-1, 1:-1] * grid.tau
        s_a = asymmetry(solve_dense(a_new, a_old))
        s_b = asymmetry(solve_dense(a_new, b_old))
        return AsymmetryEntry(n, grid.h, grid.tau, s_a, s_b)

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
    """
    nus = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise ValueError("nu_grid must be strictly increasing")
    bound = Dirichlet(_zero, _zero) if _is_dirichlet(boundary) else Neumann()
    problem = _matrix_problem(theta, bound)
    last_negative = None
    for nu in nus:
        grid = _matrix_grid(n, nu, theta)
        # A_new^{-1} A_old = -M; negation is exact
        vals = eigenvalues(-transition_matrix(assemble_compact(problem, grid)))
        if bool(np.all(vals.real < 0.0)):
            last_negative = nu
        else:
            return NegativityBracket(last_negative, nu)
    return NegativityBracket(last_negative, None)


# ---------------------------------------------------------------------------
# first integral


def first_integral(state: np.ndarray, h: float, quadrature: str = "trapezoid") -> float:
    """Composite quadrature of |state|^2 over the period."""
    q = np.abs(np.asarray(state)) ** 2
    if quadrature == "trapezoid":
        return float(h * (q.sum() - 0.5 * q[0] - 0.5 * q[-1]))
    if quadrature == "simpson":
        panels = q.shape[0] - 1
        if panels % 2 != 0:
            raise ValueError(f"Simpson quadrature needs an even panel count, got {panels}")
        return float(h / 3.0 * (q[0] + q[-1] + 4.0 * q[1:-1:2].sum() + 2.0 * q[2:-2:2].sum()))
    raise ValueError(f"unknown quadrature {quadrature!r}")


def conservation_problem() -> ProblemSpec:
    """Free Schrodinger-type evolution of sin x with homogeneous walls."""
    return ProblemSpec(
        theta=_theta_demo,
        forcing=lambda t, x: np.zeros_like(np.asarray(x, dtype=complex)),
        initial=lambda x: np.sin(np.asarray(x, dtype=float)).astype(complex),
        boundary=Dirichlet(_zero, _zero),
        kind=ScalarKind.COMPLEX,
    )


def first_integral_series(
    n: int,
    courant=1j,
    t_final: float = 1.0,
    quadrature: str = "trapezoid",
) -> list:
    """Per-step (step, t, I) history of the complex-kind conservation demo run."""
    _require_kind(courant, ScalarKind.COMPLEX, "the conservation demo")
    problem = conservation_problem()
    x = np.arange(n + 1) * (TWO_PI / n)
    grid = make_grid(n, courant, t_final, theta_grid_max(problem.theta, x))
    mats = assemble_compact(problem, grid)
    u = np.asarray(problem.initial(grid.x), dtype=complex)
    zeros = np.zeros(n + 1, dtype=complex)
    out = [(0, 0.0, first_integral(u, grid.h, quadrature))]
    for k in range(grid.n_steps):
        t1 = (k + 1) * grid.tau
        u = _step(mats, u, zeros, zeros, t1)
        out.append((k + 1, t1, first_integral(u, grid.h, quadrature)))
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
