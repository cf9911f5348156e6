"""Acceptance sweep: one test per numbered criterion, one verdict line each.

The reference errors and order bands encoded here are the targets for
this scheme family.  Where the numbers our runs produce
genuinely miss a band, the test stays as written and fails; nothing is
loosened to force a green run.  Shared convergence runs are cached at
module scope so the sweep stays within its time budget.

Orders are judged with one of two estimators (see cpde.analysis):

- criteria 1, 2, 3 and 6 pin a reference table's printed order, so they
  use the endpoint ratio N=10 -> 100 that the table prints, and their
  centres are that ratio (criterion 1's table gives 3.826 against 3.83);
- criteria 4, 5 and 7 state an asymptotic rate, so they use the ratio of
  the two finest grids, N=50 -> 100; on the coarse grids the error is
  not yet in its asymptotic regime (at N=10 a complex run takes only six
  time steps).

Criterion 10 reads the drift report's slope over N=25..200, where every
halving of h already divides the amplitude by 16.
"""

import functools
import math
import time

import numpy as np

import test_interior as ti
import test_neumann as tn
from cpde.analysis import (
    asymmetry_study,
    conservation_problem,
    convergence_study,
    cut_study,
    finest_pair_order,
    first_integral_drift,
    richardson,
    richardson_study,
    spectrum_report,
    transition_matrix,
)
from cpde.cli import GATES, parse_courant, parse_scheme
from cpde.core import (
    Dirichlet,
    Neumann,
    ProblemSpec,
    ScalarKind,
    make_grid,
    theta_grid_max,
)
from cpde.interior import assemble_row, derive_row_oracle
from cpde.neumann import CompactThreePoint, boundary_oracle, build_left_row
from cpde.steppers import assemble_compact
from cpde.theta_fit import TWO_PI, fit_boundary_left, fit_interior

NS = (10, 20, 50, 100)


@functools.lru_cache(maxsize=None)
def conv(solution, params, scheme, courant, ns=NS, t_final=1.0):
    """Cached convergence run; params is a tuple of items, scheme a label."""
    return convergence_study(
        solution, dict(params), parse_scheme(scheme), ns, parse_courant(courant), t_final
    )


@functools.lru_cache(maxsize=None)
def rich(solution, params, scheme, courant, ns=NS):
    return richardson_study(
        solution, dict(params), parse_scheme(scheme), ns, parse_courant(courant)
    )


def finest(rep, attr="error"):
    """Finest-pair order of a report's entries, read from one error field."""
    return finest_pair_order([e.n for e in rep.entries],
                             [getattr(e, attr) for e in rep.entries])


def band(label, value, center, tol, failures):
    if not (center - tol <= value <= center + tol):
        failures.append(f"{label} = {value:.3f} outside {center} +- {tol}")


def factor(label, value, ref, fac, failures):
    if not (ref / fac <= value <= ref * fac):
        failures.append(f"{label} = {value:.3e} outside factor {fac} of {ref:.3e}")


def verdict(num, failures, note=""):
    status = "PASS" if not failures else "FAIL"
    tail = note if not failures else "; ".join(failures)
    print(f"acceptance {num}: {status}" + (f" ({tail})" if tail else ""))
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_s1_reference_row():
    failures = []
    rep = conv("s1", (), "compact", "1")
    for e, ref in zip(rep.entries, GATES["s1 reference errors"]):
        factor(f"compact N={e.n} error", e.error, ref, GATES["s1 reference error factor"],
               failures)
    band("compact order", rep.estimated_order, *GATES["s1 reference order"], failures)
    classic = conv("s1", (), "classic:pointwise", "1")
    band("classic order", classic.estimated_order, 2.09, 0.2, failures)
    verdict(
        1,
        failures,
        f"compact {rep.estimated_order:.2f}, classic {classic.estimated_order:.2f}",
    )


def test_criterion_02_s2_power_family():
    failures = []
    orders = []
    for k, ref in ((2, 3.93), (3, 3.98), (4, 3.83)):
        rep = conv("s2", (("k", k),), "compact", "1")
        orders.append(rep.estimated_order)
        band(f"k={k} compact order", rep.estimated_order, ref, 0.2, failures)
        for label in ("classic:pointwise", "classic:threepoint", "classic:fivepoint"):
            crep = conv("s2", (("k", k),), label, "1")
            band(f"k={k} {label} order", crep.estimated_order, *GATES["classic order"],
                 failures)
    verdict(2, failures, "compact orders " + ", ".join(f"{o:.2f}" for o in orders))


S3_ROWS = (
    ((("a", 1), ("b", 1), ("omega", 1)), (6.59e-1, 4.60e-2, 1.20e-3, 7.55e-5), 3.96),
    ((("a", 1), ("b", 2), ("omega", 2)), (3.73e3, 2.47e2, 6.41, 4.02e-1), 3.98),
    ((("a", 2), ("b", 1), ("omega", 1)), (9.74e-1, 6.18e-2, 1.59e-3, 9.92e-5), 3.99),
    ((("a", 1), ("b", 0.1), ("omega", 1)), (7.47e-5, 3.99e-6, 9.90e-8, 6.17e-9), 4.06),
    ((("a", 1), ("b", 2), ("omega", 10)), (2.60e3, 1.10e2, 2.71, 1.78e-1), 4.09),
)


def test_criterion_03_s3_steep_coefficient():
    failures = []
    orders = []
    for params, refs, ref_order in S3_ROWS:
        rep = conv("s3", params, "compact", "100")
        orders.append(rep.estimated_order)
        tag = ",".join(f"{k}={v}" for k, v in params)
        band(f"({tag}) order", rep.estimated_order, ref_order, 0.3, failures)
        for e, ref in zip(rep.entries, refs):
            factor(f"({tag}) N={e.n} error", e.error, ref, 3.0, failures)
    verdict(3, failures, "orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_03_stiff_row_past_n_100():
    """The a=2 row of criterion 3 on to N=200 and 400 (2.9M and 11.6M steps).

    Its problem declares its modes, so each march takes the closed form:
    the three runs take about 0.1 s, where stepping them would take minutes.
    """
    failures = []
    start = time.perf_counter()
    rep = conv("s3", S3_ROWS[2][0], "compact", "100", ns=(100, 200, 400))
    elapsed = time.perf_counter() - start
    assert [e.steps for e in rep.entries] == [726350, 2905399, 11621593]
    errors = [e.error for e in rep.entries]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for n, order in zip((200, 400), orders):
        band(f"N={n // 2}->{n} order", order, 4.0, 0.3, failures)
    if elapsed >= 1.0:
        failures.append(f"three runs took {elapsed:.2f} s")
    verdict("3 past N=100", failures,
            "orders " + ", ".join(f"{o:.2f}" for o in orders) + f" in {elapsed:.2f} s")


RICHARDSON_REFS = {
    ("s1", "classic:pointwise"): (5.76e-3, 3.13e-4, 8.60e-6, 5.36e-7),
    ("s1", "compact"): (1.31e-4, 2.35e-6, 9.30e-9, 1.44e-10),
    ("k2", "classic:pointwise"): (4.77e-1, 3.72e-2, 9.91e-4, 6.29e-5),
    ("k2", "compact"): (8.10e-3, 2.26e-4, 9.27e-7, 1.46e-8),
    ("k3", "classic:pointwise"): (2.10, 9.40e-2, 2.47e-3, 1.54e-4),
    ("k3", "compact"): (1.34e-1, 1.60e-3, 6.15e-6, 9.55e-8),
    ("k4", "classic:pointwise"): (1.94, 1.52e-1, 3.80e-3, 2.37e-4),
    ("k4", "compact"): (3.74e-2, 2.68e-3, 1.02e-5, 1.59e-7),
}


def test_criterion_04_richardson_extrapolation():
    failures = []
    summary = []
    for sol, params, key in (
        ("s1", (), "s1"),
        ("s2", (("k", 2),), "k2"),
        ("s2", (("k", 3),), "k3"),
        ("s2", (("k", 4),), "k4"),
    ):
        for scheme, (center, tol) in (
            ("classic:pointwise", GATES["extrapolated classic order"]),
            ("compact", GATES["extrapolated compact order"]),
        ):
            rep = rich(sol, params, scheme, "1")
            order = finest(rep, "error_extrapolated")
            band(f"{key} {scheme} extrapolated order", order, center, tol, failures)
            summary.append(f"{key}/{scheme.split(':')[0]} {order:.2f}")
            refs = RICHARDSON_REFS[(key, scheme)]
            for e, ref in zip(rep.entries, refs):
                # round-off floor: sub-1e-9 entries get the relaxed factor
                fac = 10.0 if (scheme == "compact" and ref < 1e-9) else 5.0
                factor(f"{key} {scheme} N={e.n} extrapolated error",
                       e.error_extrapolated, ref, fac, failures)
    verdict(4, failures, "; ".join(summary))


def test_criterion_05_cut_levels():
    failures = []
    reports = cut_study("s1", None, NS, 1.0, cuts=(5, 6, 7, 8, 9))
    orders = []
    for cut in (5, 6, 7, 8, 9):
        rep = reports[cut]
        order = finest(rep)
        orders.append(order)
        if order < GATES["cut order"]:
            failures.append(f"cut={cut} order {order:.3f} < {GATES['cut order']}")
        err = rep.entries[-1].error
        if not (2.36e-6 / 2.0 <= err <= 3.59e-6 * 2.0):
            failures.append(f"cut={cut} N=100 error {err:.3e} outside band")
    verdict(5, failures, "orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_06_asymmetry_decay():
    failures = []
    rep = asymmetry_study(NS, 1.0)
    band("transition asymmetry order", rep.order_transition,
         *GATES["transition asymmetry order"], failures)
    for e, ref in zip(rep.entries, (3.32e-3, 2.44e-4, 9.05e-6, 7.93e-7)):
        factor(f"S_transition N={e.n}", e.s_transition, ref, 3.0, failures)
    band("forcing asymmetry order", rep.order_forcing, *GATES["forcing asymmetry order"],
         failures)
    verdict(
        6,
        failures,
        f"transition {rep.order_transition:.2f}, forcing {rep.order_forcing:.2f}",
    )


def test_criterion_07_schrodinger_type_orders():
    failures = []
    summary = []
    for sol, params, ref in (
        ("s1", (), 3.99),
        ("s2", (("k", 2),), 3.99),
        ("s2", (("k", 3),), 4.00),
        ("s2", (("k", 4),), 4.00),
    ):
        key = sol if not params else f"k{params[0][1]}"
        rep = conv(sol, params, "compact", "i")
        order = finest(rep)
        band(f"{key} compact order", order, ref, 0.15, failures)
        summary.append(f"{key} {order:.2f}")
        classic_order = finest(conv(sol, params, "classic:pointwise", "i"))
        band(f"{key} classic order", classic_order, *GATES["classic order"], failures)
    for params, ref in (
        ((("a", 1), ("b", 1), ("omega", 1)), 3.94),
        ((("a", 1), ("b", 2), ("omega", 2)), 3.93),
        ((("a", 1), ("b", 0.1), ("omega", 1)), 3.96),
        ((("a", 1), ("b", 2), ("omega", 10)), 3.96),
    ):
        order = finest(conv("s3", params, "compact", "100i"))
        tag = ",".join(f"{k}={v}" for k, v in params)
        band(f"s3({tag}) compact order", order, ref, 0.3, failures)
    verdict(7, failures, "; ".join(summary))


def test_criterion_08_neumann_slopes():
    failures = []
    three = conv("sn", (), "compact", "5")
    band("three-point wall order", three.estimated_order, 4.0, 0.3, failures)
    reduced = conv("sn", (), "compact:neumann=reduced", "1")
    band("reduced wall order", reduced.estimated_order, 3.0, 0.4, failures)
    classic = conv("sn", (), "classic", "5")
    band("classic eps=0.5 wall order", classic.estimated_order, 1.0, 0.3, failures)
    verdict(
        8,
        failures,
        f"3pt {three.estimated_order:.2f}, reduced {reduced.estimated_order:.2f}, "
        f"classic {classic.estimated_order:.2f}",
    )


def _zero(t):
    return 0.0


def test_criterion_09_spectra():
    from cpde.analysis import negativity_threshold

    failures = []
    theta = lambda x: math.cos(x) ** 2 + 1.0

    # real diffusion transition at nu* = 5 on a 12-interval grid
    problem = ProblemSpec(
        theta=theta,
        forcing=lambda t, x: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
        boundary=Dirichlet(_zero, _zero),
        kind=ScalarKind.REAL,
    )
    h = TWO_PI / 12
    raw_tau = 5.0 * h * h / 2.0  # theta attains its maximum 2 at the x = 0 node
    grid = make_grid(12, 5.0, 10 * raw_tau, 2.0)
    rep = spectrum_report(transition_matrix(assemble_compact(problem, grid)))
    if rep.max_imag_abs > GATES["imaginary part"] * max(rep.max_modulus, 1e-300):
        failures.append(f"max |Im lambda| = {rep.max_imag_abs:.3e} not negligible")
    if not rep.max_modulus < 1.0:
        failures.append(f"max |lambda| = {rep.max_modulus:.6f} >= 1")

    scan = (0.20, 0.25, 0.30, 0.35, 0.40, 0.50)
    for boundary, target, name in ((Dirichlet, 1.0 / 3.0, "Dirichlet"),
                                   (Neumann, 1.0 / 4.0, "Neumann")):
        bracket = negativity_threshold(theta, boundary, 100, scan)
        if (
            bracket.lower is None
            or bracket.upper is None
            or not (bracket.lower <= target <= bracket.upper)
        ):
            failures.append(
                f"{name} bracket {bracket} does not contain {target:.4f}"
            )

    # unimodularity of the complex-kind transition at |nu*| = 1
    ll = conservation_problem()
    x = np.arange(51) * (TWO_PI / 50)
    grid = make_grid(50, 1j, 1.0, theta_grid_max(ll.theta, x))
    vals = spectrum_report(transition_matrix(assemble_compact(ll, grid))).eigenvalues
    dev = float(np.abs(np.abs(vals) - 1.0).max())
    if dev >= GATES["unimodularity"]:
        failures.append(f"max ||lambda| - 1| = {dev:.3e} >= {GATES['unimodularity']}")
    verdict(9, failures, f"max|lambda| {rep.max_modulus:.4f}, unimodular dev {dev:.1e}")


def test_criterion_10_first_integral_drift():
    failures = []
    slopes = []
    # Simpson needs even panel counts, so its coarsest grid is 26
    for quadrature, ns in (("trapezoid", (25, 50, 100, 200)),
                           ("simpson", (26, 50, 100, 200))):
        rep = first_integral_drift(ns, 1j, 1.0, quadrature)
        slopes.append(f"{quadrature} {rep.slope:.2f}")
        # fourth order: see the first_integral_drift docstring
        band(f"{quadrature} amplitude slope", rep.slope, *GATES["drift slope"], failures)
    verdict(10, failures, "; ".join(slopes))


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    failures = []
    worst_row = worst_wall = worst_resid = 0.0
    for case in range(100):
        a, b = rng.normal(scale=0.4, size=2)
        c0 = abs(rng.normal()) + 0.2
        theta = lambda x, a=a, b=b, c0=c0: c0 + math.exp(
            a * math.sin(x) + b * math.cos(2.0 * x)
        )
        xj = rng.uniform(0.4, 5.8)
        h = rng.uniform(0.03, 0.35)
        tau = rng.uniform(0.005, 0.4)
        nu = 1j * rng.uniform(0.3, 3.0) if case % 5 == 0 else rng.uniform(0.2, 6.0)

        fit = fit_interior(theta, xj, h)
        row = ti.row_vector(assemble_row(fit, nu, h))
        oracle = ti.row_vector(derive_row_oracle(fit, nu, h, tau))
        lam = np.vdot(row, oracle) / np.vdot(row, row)
        dev = float(np.abs(oracle - lam * row).max() / np.abs(oracle).max())
        worst_row = max(worst_row, dev)
        if dev > GATES["row deviation"]:
            failures.append(f"case {case}: interior row deviation {dev:.2e}")

        system = ti.build_system(fit, nu, h, tau)
        if np.linalg.matrix_rank(system) != 11:
            failures.append(f"case {case}: interior system rank != 11")
        scale = np.abs(system).max() * np.abs(row).max()
        resid = float(np.abs(system @ row).max())
        worst_resid = max(worst_resid, resid / scale)
        if resid > 1e-9 * scale:
            failures.append(f"case {case}: interior residual {resid:.2e}")

        wall_fit = fit_boundary_left(theta, h)
        closed = tn.wall_vector(
            build_left_row(wall_fit, nu, h, tau, CompactThreePoint())
        )
        derived = tn.wall_vector(boundary_oracle(wall_fit, nu, h, tau))
        lam_w = np.vdot(closed, derived) / np.vdot(closed, closed)
        dev_w = float(np.abs(derived - lam_w * closed).max() / np.abs(derived).max())
        worst_wall = max(worst_wall, dev_w)
        if dev_w > 1e-8:
            failures.append(f"case {case}: wall row deviation {dev_w:.2e}")
        wall_sys = tn.wall_system(wall_fit, nu, h, tau)
        wall_scale = np.abs(wall_sys).max() * np.abs(closed).max()
        wall_resid = float(np.abs(wall_sys @ closed).max())
        if wall_resid > 1e-9 * wall_scale:
            failures.append(f"case {case}: wall residual {wall_resid:.2e}")
    verdict(
        11,
        failures[:8],
        f"worst row dev {worst_row:.1e}, wall dev {worst_wall:.1e}, "
        f"residual {worst_resid:.1e} of scale",
    )


def test_criterion_12_exactness():
    failures = []
    c1, c2, c3, c4 = 0.31, -0.12, 0.045, -0.02
    xj, h, nu, tau = 2.1, 0.22, 1.3, 0.08
    theta = lambda x: 1.7 * math.exp(
        c1 * (x - xj) + c2 * (x - xj) ** 2 + c3 * (x - xj) ** 3 + c4 * (x - xj) ** 4
    )
    fit = fit_interior(theta, xj, h)
    row = assemble_row(fit, nu, h)
    v = ti.row_vector(row)
    system = ti.build_system(fit, nu, h, tau)
    scale = np.abs(system).max() * np.abs(v).max()
    resid = float(np.abs(system @ v).max())
    if resid > 1e-10 * scale:
        failures.append(f"monomial residual {resid:.2e} vs scale {scale:.2e}")

    sums = row.a_0 + row.b_l0 + row.b_r0 + row.a_1 + row.b_l1 + row.b_r1
    if abs(sums) > 1e-12 * np.abs(v).max():
        failures.append(f"solution-side sum {sums:.2e} does not vanish")

    n = 16
    x_h = np.arange(n + 1) * (TWO_PI / n)
    x_h2 = np.arange(2 * n + 1) * (TWO_PI / (2 * n))
    truth = lambda x: np.sin(x) + 0.25 * np.cos(2 * x)
    pollution = lambda x: 1.0 + 0.5 * np.sin(3 * x)
    step = TWO_PI / n
    u_h = truth(x_h) + step**4 * pollution(x_h)
    u_h2 = truth(x_h2) + (step / 2) ** 4 * pollution(x_h2)
    err = float(np.abs(richardson(u_h, u_h2, order=4) - truth(x_h)).max())
    if err > 1e-13:
        failures.append(f"extrapolation left {err:.2e} of a synthetic h^4 term")
    verdict(12, failures, f"residual {resid / scale:.1e} of scale")
