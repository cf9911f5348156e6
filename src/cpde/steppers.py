"""Time integration for the compact and classic schemes.

Both schemes are advanced through the same two-layer matrix form

    A_new u^{n+1} + A_old u^n = tau * B (f^n + f^{n+1})

with one forcing operator B for both layers (Dirichlet data injected on
the side).  Because the layer difference A_new - A_old equals 4*B for
the compact scheme (and the identity for the classic one, whose B is
I/4), one step reduces to a single banded apply plus one double-sweep:

    solve  A_new v = B4 (u^n + tau (f^n + f^{n+1})/4),   u^{n+1} = v - u^n,

where B4 = 4B.  This is what keeps the compact step at 8N + O(1)
multiplications against 5N + O(1) for the classic scheme.

A Neumann wall is one ``neumann.BoundaryRow`` (``SchemeMatrices.walls``).
Every compact closure meets the identity by construction, so its rows
ride inside the layers and B.  The classic step has no B apply, and the
``ClassicNeumann`` closure's layers need not differ by 4B, so a wall of
either is patched into the right-hand side from its row, at O(1) cost;
the scheme and closure types decide this, never the rows' values.  A
row's third solution entry, a corner outside the bands, is eliminated
into the solver.  One loop takes both walls, the right one through
reversed band views, wall-inward like its row.

Assembly samples theta once (``theta_fit.sample_theta``, in one array
call when theta takes arrays) and builds the interior rows of every band
as array arithmetic over the nodes: the compact scheme through one
``fit_interior``/``assemble_row`` call on the node array, the classic
one from theta at the half nodes.

theta does not depend on time, so an assembled operator is a value fixed
by theta's samples, the grid (n, h, tau), the kind, the wall type and
the scheme descriptor.  Each assembly samples theta and compares that key
with the last assembly's; when they match it returns the last operator,
else it builds a new one and keeps only that, if it has at most
``_AFFINE_MAX_NODES`` nodes.  The key never holds the theta callable
itself, whose parameters may have changed.  The operator holds no
problem data: the ``SchemeMatrices`` an assembly returns pairs
it with the caller's grid and Dirichlet walls, and forcing and initial
state come from the problem at march time.  What the operator builds on
first use is kept with it: the factored A_new, and the opaque march's
powers of P and input maps.  So a march run as consecutive ``run`` calls
sets up once, and a reused operator gives bitwise the result of a fresh
one.  Its band arrays are read-only.

The per-step cost is data on the assembled scheme: ``_finalize`` adds
up the multiplications and divisions the step performs (additions are
free by convention), and ``run`` reports that figure.  Forcing
evaluation and right-hand-side preparation are not counted (they are
not part of the linear-algebra cost the efficiency comparison is
about).

The solve is the Python double sweep on small grids and on stacks of
states.  A single state on a grid of at least ``_BLOCKED_MIN_NODES``
nodes is solved with A_new factored once per assembly
(``linalg.factor_tridiag``), in 16-row blocks with no Python loop: one
batched product over the blocks and one matrix-vector product per sweep
for the values carried between them.  The factor is built by the first
such ``_step``, so an assembly that is never stepped does not build it.

``run`` marches with one of three engines.  The stepwise one takes the
step above per time level.  theta does not depend on time, so the step
is a fixed affine map u <- P u + Q0 f^n + Q1 f^{n+1} + W g^{n+1} (g the
Dirichlet data), and one ``_step`` on a stack of unit states and inputs
gives P and the responses to the inputs.

- The closed form serves a problem that declares its modes: a
  ``core.TwoModeForcing`` and, for Dirichlet walls, ``core.TwoModeWall``
  data with the same omega.  Step k's inputs are then cos(k omega tau)
  and sin(k omega tau) times two fixed ones, so (u, cos, sin) advances by
  one (m + 2)-square map G, and the march is G^n applied to the start:
  one probe and floor(log2 n) squarings (``_march_closed``), in the
  kind's own arithmetic.  It runs from
  ``max(_CLOSED_MIN_STEPS, K m^2)`` steps on any grid, K from
  ``_CLOSED_STEPS_PER_NODE_SQUARED``: a squaring costs O(m^3), the
  stepwise march O(steps).
- The opaque march serves any other problem on grids of at most
  ``_AFFINE_MAX_NODES`` nodes with at least m steps, and m^2/50 for the
  real kind, m^2/30 for the complex one (``_march_affine``).
  From one probe it builds two stacks of 16, the input map times P^15..I
  and P^256, P^240, ..., P^16, in the kind's own arithmetic, and advances
  a whole 256-step chunk at a time by one GEMM of the chunk's inputs and
  one GEMV.  It makes no eigensolve.
- Everything else steps.

The first-integral series reads every state off ``_states``, in blocks
with the node axis first: where ``run`` takes the closed form on at most
``_STATES_MAX_NODES`` nodes, 64 powers of G per GEMM (``_closed_states``),
O(n m^2) work at BLAS speed against O(n m) stepping.  At n = m^2/64 steps
the demo's series takes, blocked / stepwise, 1.3 / 2.5 ms at m = 51, 4.3 /
7.1 at 101, 18 / 29 at 201, 37 / 51 at 257, 61 / 68 at 301, 106 / 106 at 351.

The stepwise and opaque marches take the forcing and wall data by
256-step chunks, views into blocks of whole chunks that one rule sizes
for both streams (``_block_steps``: at most 2^16 entries, and never less
than one chunk); each block is one call of the forcing and one of each
wall.  No engine holds an array that grows with the step count.
``muls_per_step`` is the analytic cost of the banded step whichever
engine runs, not the work executed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from .core import Dirichlet, Grid1D, ProblemSpec, ScalarKind, TwoModeForcing, TwoModeWall, _Frozen
from .interior import CUT_FULL, assemble_row
from .linalg import SingularMatrixError, Tridiag, factor_tridiag, solve_tridiag
from .neumann import (
    ClassicNeumann,
    CompactThreePoint,
    NeumannVariant,
    build_left_row,
    build_right_row,
)
from .theta_fit import fit_boundary_left, fit_boundary_right, fit_interior, interior_points
from .theta_fit import sample_theta, wall_points


class ClassicRhsVariant(Enum):
    POINTWISE = "pointwise"
    THREE_POINT = "threepoint"
    FIVE_POINT = "fivepoint"


class Compact(_Frozen):
    """Compact scheme descriptor: cut level and Neumann closure variant."""

    __slots__ = ("cut", "neumann")

    def __init__(self, cut: int = CUT_FULL, neumann: NeumannVariant = CompactThreePoint()):
        super().__init__(cut, neumann)


class Classic(_Frozen):
    """Classic implicit (Crank-Nicolson type) scheme descriptor."""

    __slots__ = ("rhs", "neumann")

    def __init__(self, rhs: ClassicRhsVariant = ClassicRhsVariant.POINTWISE,
                 neumann: NeumannVariant = ClassicNeumann(0.5)):
        super().__init__(rhs, neumann)


SchemeDescriptor = Union[Compact, Classic]


class StepReport:
    __slots__ = ("final_state", "muls_per_step", "steps")

    def __init__(self, final_state: np.ndarray, muls_per_step: int, steps: int):
        self.final_state, self.muls_per_step, self.steps = final_state, muls_per_step, steps


class _Built:
    """The pieces of an operator built on first use."""

    __slots__ = ("factored", "powers")

    def __init__(self):
        self.factored = None  # the solver, factored: a TridiagLU
        self.powers = None  # the opaque march's powers of P and input maps


@dataclass
class SchemeMatrices:
    """Assembled operators plus everything one step needs.

    a_new, a_old and b are the two layers and the forcing operator B
    (scaled: the literal forcing operator is tau*b), rows 0 and N the
    wall rows.  The layers share B, and for the compact scheme they differ
    by 4B; five-point classic forcing has no B (None).  ``walls`` is the
    (left, right) pair of Neumann ``BoundaryRow``s, entries wall-inward,
    or None for Dirichlet walls: their alpha_2 are the corners outside
    the bands (column 2 and column N-2), and beta_2 = 0 in every closure.
    ``grid`` and ``dirichlet`` are the caller's; every other field, and
    ``_built``, is shared by all assemblies that reuse the operator.
    """

    grid: Grid1D
    kind: ScalarKind
    a_new: Tridiag
    a_old: Tridiag
    b: Optional[Tridiag]
    dirichlet: Optional[Dirichlet]
    classic_rhs: Optional[ClassicRhsVariant]
    walls: Optional[tuple] = None
    muls_per_step: int = 0
    _b4: Optional[Tridiag] = None
    _solver: Optional[Tridiag] = None
    _built: _Built = field(default_factory=_Built)
    # (wall row, the row inside it, multiplier) of each eliminated corner
    _corners: tuple = ()
    # each wall's right-hand-side patch (alpha_new - alpha_old, literal
    # beta_new, literal beta_old), read off ``walls``; () when unpatched
    _patch: tuple = ()


# each wall's name, row, the row inside it and its three nodes, wall-inward
_SIDES = (("left", 0, 1, slice(0, 3)), ("right", -1, -2, slice(-1, -4, -1)))


def _wall_bands(t: Tridiag):
    """(diagonal, inward, outward) band views of ``t`` at each wall, indexed
    wall-inward like ``BoundaryRow``: inward[i] is row i's entry one node
    further in, outward[i] row i+1's entry one node nearer the wall."""
    return (t.diag, t.upper, t.lower), (t.diag[::-1], t.lower[::-1], t.upper[::-1])


def _mount_boundary(mats: SchemeMatrices, patched: bool):
    """Write the wall rows into the layers, and into B or the patch."""
    if patched:
        mats._patch = tuple((w.alpha_new - w.alpha_old, w.beta_new_literal, w.beta_old_literal)
                            for w in mats.walls)
    for side, w in enumerate(mats.walls):
        rows = [(mats.a_new, w.alpha_new), (mats.a_old, w.alpha_old)]
        if not patched:
            rows.append((mats.b, w.beta_new / (w.nu0 * w.tau)))
        for t, row in rows:
            diag, inward, _ = _wall_bands(t)[side]
            diag[0], inward[0] = row[0], row[1]


def _finalize(mats: SchemeMatrices):
    """Precompute the corner-eliminated solver and the step cost.

    The cost adds the counts of the operations ``_step`` performs: the
    solve (5m-4), one multiplication per eliminated corner, the B4 apply
    of the compact step (3m-2) and the wall patches' nonzero entries.  It
    is what ``run`` reports as ``muls_per_step``, whichever way the solve
    runs.

    The solver's blocked factor is left to the first ``_step`` that
    needs it: assemblies used only for their matrices, as in the
    spectral studies, would pay for it and never use it.  The band
    arrays are made read-only here, since later assemblies may share
    them.
    """
    m = mats.grid.n + 1
    a = mats.a_new
    solver = a.copy()
    corners = []
    for (side, i, j, _), w, (diag, inward, outward), (s_diag, s_inward, _) in zip(
        _SIDES, mats.walls or (), _wall_bands(a), _wall_bands(solver)
    ):
        c = w.alpha_new[2]
        if c != 0.0:
            if inward[1] == 0.0:
                raise SingularMatrixError(f"cannot eliminate {side} corner: zero pivot")
            k = c / inward[1]
            s_diag[0] = diag[0] - k * outward[0]
            s_inward[0] = inward[0] - k * diag[1]
            corners.append((i, j, k))
    mats._corners = tuple(corners)
    mats._solver = solver
    muls = 5 * m - 4 + len(corners)
    if mats.classic_rhs is None:
        b = mats.b
        mats._b4 = Tridiag(*(4.0 * band for band in (b.lower, b.diag, b.upper)))
        muls += 3 * m - 2
    muls += sum(np.count_nonzero(terms) for patch in mats._patch for terms in patch)
    mats.muls_per_step = muls
    for t in (mats.a_new, mats.a_old, mats.b, mats._b4, solver):
        if t is not None:
            for band in (t.lower, t.diag, t.upper):
                band.flags.writeable = False


def _interior_nu(kind: ScalarKind, theta_j: float, tau: float, h: float) -> complex:
    nu = theta_j * tau / (h * h)
    return kind.kappa * nu if kind is ScalarKind.COMPLEX else nu


def _fill_interior(t: Tridiag, lower, diag, upper):
    """Set the bands of rows 1..m-2, leaving the wall rows alone."""
    m = t.size
    t.lower[: m - 2], t.diag[1 : m - 1], t.upper[1 : m - 1] = lower, diag, upper


def _build_walls(problem: ProblemSpec, grid: Grid1D, variant: NeumannVariant, samples):
    h, tau = grid.h, grid.tau
    kind = problem.kind
    fit_l = fit_boundary_left(problem.theta, h, samples[0])
    fit_r = fit_boundary_right(problem.theta, h, samples[1])
    nu0 = _interior_nu(kind, fit_l.theta_center, tau, h)
    nu_n = _interior_nu(kind, fit_r.theta_center, tau, h)
    left = build_left_row(fit_l, nu0, h, tau, variant)
    right = build_right_row(fit_r, nu_n, h, tau, variant)
    return left, right


# The last assembly, as [(key, theta samples, SchemeMatrices)], or [] when it
# had more than _AFFINE_MAX_NODES nodes, so what stays alive after ``run`` is
# at most the opaque march's powers and input maps at m = 128: 9.0 MB complex,
# 4.5 MB real, 13.4 MB complex with five-point classic forcing.  Replaced by one
# slice assignment, so a thread reads one whole entry or none; never rebound, since
# the benchmark's tests compare the module's bindings before and after a run.
_last_operator: list = []


def _assemble(problem: ProblemSpec, grid: Grid1D, scheme, points, fill) -> SchemeMatrices:
    """The operator of ``problem`` on ``grid`` under ``scheme``.

    theta is sampled at ``points`` and, for Neumann walls, at the wall
    fits' points.  When these samples, the grid's n, h and tau, the kind,
    the wall type and ``scheme`` equal the last assembly's, its operator
    comes back paired with this grid and these walls.  Otherwise a new
    one replaces it: ``fill(mats, samples at points)`` sets the interior
    rows, and the walls and ``_finalize`` follow.
    """
    dirichlet = problem.boundary if isinstance(problem.boundary, Dirichlet) else None
    key = (grid.n, grid.h, grid.tau, problem.kind, dirichlet is None, scheme)
    samples = [sample_theta(problem.theta, points)]
    if dirichlet is None:
        samples.append(sample_theta(problem.theta, wall_points(grid.h)))
    for last_key, last_samples, last in _last_operator:
        if last_key == key and all(map(np.array_equal, last_samples, samples)):
            return replace(last, grid=grid, dirichlet=dirichlet)
    m, dtype = grid.n + 1, problem.kind.dtype
    classic_rhs = scheme.rhs if isinstance(scheme, Classic) else None
    b = None if classic_rhs is ClassicRhsVariant.FIVE_POINT else Tridiag.zeros(m, dtype)
    mats = SchemeMatrices(grid, problem.kind, Tridiag.zeros(m, dtype), Tridiag.zeros(m, dtype),
                          b, dirichlet, classic_rhs)
    fill(mats, samples[0])
    if dirichlet is not None:
        mats.a_new.diag[0] = mats.a_new.diag[m - 1] = 1.0
    else:
        mats.walls = _build_walls(problem, grid, scheme.neumann, samples[1])
        patched = classic_rhs is not None or isinstance(scheme.neumann, ClassicNeumann)
        _mount_boundary(mats, patched)
    _finalize(mats)
    _last_operator[:] = [(key, samples, mats)] if m <= _AFFINE_MAX_NODES else []
    return mats


def assemble_compact(
    problem: ProblemSpec,
    grid: Grid1D,
    cut: int = CUT_FULL,
    neumann_variant: NeumannVariant = CompactThreePoint(),
) -> SchemeMatrices:
    """Assemble the compact scheme operators for one problem and grid.

    This is the last assembly's operator when theta's samples, the grid,
    the kind, the wall type, ``cut`` and ``neumann_variant`` match it
    (module docstring).
    """
    n, h, tau = grid.n, grid.h, grid.tau

    def fill(mats, samples):
        fit = fit_interior(problem.theta, grid.x[1:n], h, samples)
        row = assemble_row(fit, _interior_nu(problem.kind, fit.theta_center, tau, h), h, cut)
        _fill_interior(mats.a_new, row.b_l1, row.a_1, row.b_r1)
        _fill_interior(mats.a_old, row.b_l0, row.a_0, row.b_r0)
        _fill_interior(mats.b, row.q_l1, row.p_1, row.q_r1)  # the layers share q_l, p, q_r

    scheme = Compact(cut, neumann_variant)
    return _assemble(problem, grid, scheme, interior_points(grid.x[1:n], h), fill)


def assemble_classic(
    problem: ProblemSpec,
    grid: Grid1D,
    rhs: ClassicRhsVariant = ClassicRhsVariant.POINTWISE,
    neumann_variant: NeumannVariant = ClassicNeumann(0.5),
) -> SchemeMatrices:
    """Assemble the classic implicit scheme (second order).

    Interior row j:  u^{n+1}_j - u^n_j = (tau/2) kappa * D(u^n + u^{n+1})_j
    + tau F_j with D the divided difference of theta-weighted slopes,
    theta sampled at the half nodes.  Stored in the same two-layer form
    as the compact scheme (divided by 2, so A_new - A_old = I).  A
    matching last assembly is reused as in ``assemble_compact``.
    """
    n, h = grid.n, grid.h

    def fill(mats, samples):
        thm, thp = samples.T
        sig = problem.kind.kappa * grid.tau / (4.0 * h * h)
        lower, diag, upper = -sig * thm, sig * (thm + thp), -sig * thp
        _fill_interior(mats.a_new, lower, 0.5 + diag, upper)
        _fill_interior(mats.a_old, lower, -0.5 + diag, upper)
        if mats.b is not None:
            if rhs is ClassicRhsVariant.POINTWISE:
                weights = (0.0, 0.25, 0.0)
            else:  # three-point average (f_{j-1} + 2 f_j + f_{j+1})/4, halved twice
                weights = (1.0 / 16.0, 2.0 / 16.0, 1.0 / 16.0)
            _fill_interior(mats.b, *weights)

    halves = grid.x[1:n, None] + np.array([-0.5 * h, 0.5 * h])
    return _assemble(problem, grid, Classic(rhs, neumann_variant), halves, fill)


def _node_values(f: np.ndarray, m: int) -> np.ndarray:
    """Node samples of a forcing array that may live on the half grid."""
    if f.shape[-1] == m:
        return f
    if f.shape[-1] == 2 * m - 1:
        return f[..., ::2]
    raise ValueError(f"forcing length {f.shape[-1]} matches neither grid nor half grid")


def _classic_average(variant: ClassicRhsVariant, f: np.ndarray, m: int) -> np.ndarray:
    if variant is ClassicRhsVariant.POINTWISE:
        return _node_values(f, m)
    if variant is ClassicRhsVariant.THREE_POINT:
        fn = _node_values(f, m)
        out = fn.copy()
        out[..., 1:-1] = 0.25 * (fn[..., :-2] + 2.0 * fn[..., 1:-1] + fn[..., 2:])
        return out
    if f.shape[-1] != 2 * m - 1:
        raise ValueError("five-point averaging needs forcing on the half grid")
    out = f[..., ::2].copy()
    f1, f2, f3 = f[..., 1:-3:2], f[..., 2:-2:2], f[..., 3:-1:2]
    out[..., 1:-1] = (f[..., :-4:2] + 2.0 * f1 + 2.0 * f2 + 2.0 * f3 + f[..., 4::2]) / 8.0
    return out


# A single state on a grid of at least this many nodes is solved with the
# factored A_new (``linalg.factor_tridiag``, built by the first such step)
# rather than the sweep; stacks of states, such as a probe, always sweep.
# One compact ``_step`` with the factor built, sweep / factored in us, best
# of 7 alternating runs on a 2-core Xeon with one BLAS thread, s3 a=2 at
# courant 100 (real) and snll at courant i (complex): m = 11, 14 / 16 (real)
# and 18 / 19 (complex); m = 21, 17 / 17 and 23 / 20; m = 33, 20 / 17 and
# 28 / 20; m = 41, 23 / 18 and 33 / 20; m = 65, 29 / 18 and 43 / 21; m = 201,
# 70 / 20 and 103 / 24; m = 2001, 658 / 53 and 990 / 89.  The factor costs
# 0.1-0.14 ms up to m = 65, which about 30 steps repay near the crossover at
# m = 21-33 and a dozen at m = 64, so the threshold keeps its margin.
_BLOCKED_MIN_NODES = 64


def _step(mats: SchemeMatrices, u, f_n, f_np1, t_new=None, bc_vals=None):
    """One step; u and f may be stacks of states with the node axis last."""
    m = mats.grid.n + 1
    tau = mats.grid.tau
    if mats.classic_rhs is None:
        # left unnamed, so a probe frees its m x m stack of z before the sweep
        rhs, _ = mats._b4.apply(u + 0.25 * tau * (f_n + f_np1))
    else:
        fa = _classic_average(mats.classic_rhs, f_n, m)
        fb = _classic_average(mats.classic_rhs, f_np1, m)
        rhs = u + 0.25 * tau * (fa + fb)
    if mats.dirichlet is not None:
        if bc_vals is None:
            if t_new is None:
                raise ValueError("Dirichlet stepping needs the new time level")
            bc_vals = (mats.dirichlet.left(t_new), mats.dirichlet.right(t_new))
        rhs[..., 0] = u[..., 0] + bc_vals[0]
        rhs[..., m - 1] = u[..., m - 1] + bc_vals[1]
    elif mats._patch:
        f0n = _node_values(f_n, m)
        f1n = _node_values(f_np1, m)
        for (_, i, _, nodes), (d, bn, bo) in zip(_SIDES, mats._patch):
            # an elementwise sum: np.dot rounds a state's row differently with
            # its place in a stack, and a probe must give each state the same bits
            rhs[..., i] = (d * u[..., nodes] + bn * f1n[..., nodes] + bo * f0n[..., nodes]).sum(-1)
    for i, j, k in mats._corners:
        rhs[..., i] -= k * rhs[..., j]
    solver, built = mats._solver, mats._built
    if rhs.ndim == 1 and m >= _BLOCKED_MIN_NODES:
        if built.factored is None:
            built.factored = factor_tridiag(solver)
        solver = built.factored
    v, _ = solve_tridiag(solver, rhs)
    return v - u


def step(mats: SchemeMatrices, u_n, f_n, f_np1, t_new=None) -> np.ndarray:
    """Advance one time layer; see module docstring for the algebra."""
    return _step(mats, np.asarray(u_n), np.asarray(f_n), np.asarray(f_np1), t_new)


def _forcing_grid(mats: SchemeMatrices) -> np.ndarray:
    if mats.classic_rhs is ClassicRhsVariant.FIVE_POINT:
        n = mats.grid.n
        return np.arange(2 * n + 1) * (0.5 * mats.grid.h)
    return mats.grid.x


# Forcing can easily dominate the march when theta is large (stiff tau,
# hundreds of thousands of steps).  The engines consume the inputs chunk by
# chunk, the opaque march as one GEMM each, and check the state for
# finiteness per chunk.  Each input stream is evaluated once per block of
# whole chunks, as one call with a (k, 1) time column and a (1, m) node row
# for the forcing and a (k,) time array for each wall, which amortizes the
# per-call overhead.  ``_block_steps`` sizes the blocks of both streams: the
# most whole chunks whose rows hold at most ``_BLOCK_ENTRIES`` entries, and
# never less than one chunk.  ``TwoModeForcing`` evaluates a block as one
# sum of products of its phases with its kept modes.  s3 a=2 at m = 21 and
# 41 then takes up to 3073 and 1537 rows a call, and ``stiff_march``'s 71
# restarts make 128 block calls a pass where one call per chunk made 582.  One
# ``TwoModeForcing`` call on k rows of m nodes, that sum / the formula
# cos(wt) f_c + sin(wt) f_s, in us, best of 9 on a 2-core Xeon: k = 257,
# m = 21, 15 / 23; 3073 and 21, 101 / 381; 257 and 41, 17 / 32; 1537 and
# 41, 76 / 357; 65 and 2001, 92 / 774.  A block of 2^16 entries is 512 kB
# real, 1 MB complex.
_FORCING_CHUNK = 256
_BLOCK_ENTRIES = 2**16


def _block_steps(width: int) -> int:
    """Steps per input block for rows of ``width`` entries: the most whole
    chunks whose rows, with the row of the level before them, hold at most
    ``_BLOCK_ENTRIES`` entries; never less than one chunk."""
    return _FORCING_CHUNK * max(1, (_BLOCK_ENTRIES // width - 1) // _FORCING_CHUNK)


def _levels(n_steps: int, block: int, tau: float, first: int):
    """The times of levels k + 1..k + b of each block [k, k + b) of ``block``
    steps, the first block's from level ``first`` (0 or 1) on."""
    for k in range(0, n_steps, block):
        yield (k + np.arange(1 if k else first, min(block, n_steps - k) + 1)) * tau


def _cast(value, dtype, what: str) -> np.ndarray:
    """``value`` as an array of the kind's ``dtype``.  A complex value on the
    real kind raises ValueError naming ``what``, since the cast would drop its
    imaginary part."""
    a = np.asarray(value)
    if a.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ValueError(f"the {what} is complex, but the problem is of the real kind")
    return a.astype(dtype, copy=False)


def _forcing_one(problem: ProblemSpec, t: float, xf: np.ndarray, dtype) -> np.ndarray:
    f = _cast(problem.forcing(t, xf), dtype, "forcing")
    if f.shape != xf.shape:
        f = np.broadcast_to(f, xf.shape).astype(dtype)
    return f


def _sampled(vector, scalar, time_blocks, dtype):
    """Yield vector(t) for each array t of time levels in ``time_blocks``.

    The first block is checked against scalar() at its last time.  A
    callable that raises on array times, returns a shape that does not
    broadcast, or fails that check (say, one that reads only its first
    time) is called one time level at a time from then on.
    """
    vector_ok = True
    for i, times in enumerate(time_blocks):
        rows = None
        if vector_ok:
            try:
                rows = vector(times)
            except (TypeError, ValueError, IndexError):
                rows = None
            if rows is not None and i == 0:
                ref = scalar(float(times[-1]))
                # np.allclose(rtol=1e-12, atol=1e-12 max|ref|) at a fifth of its cost;
                # like it, equal infinities match
                tol = 1e-12 * (np.abs(ref) + np.abs(ref).max())
                close = np.abs(rows[-1] - ref) <= tol
                if not (close.all() or (close | (rows[-1] == ref)).all()):
                    rows = None
            vector_ok = rows is not None
        if rows is None:
            rows = np.array([scalar(float(t)) for t in times], dtype=dtype)
        yield rows


def _wall_blocks(bc: Dirichlet, tau: float, n_steps: int, block: int, dtype):
    """Yield the (left, right) Dirichlet data at levels k+1..k+b as a (b, 2)
    array for each block [k, k + b) of ``block`` steps."""
    left, right = (
        _sampled(
            lambda t, g=g, what=what: np.broadcast_to(_cast(g(t), dtype, what), t.shape),
            lambda t, g=g, what=what: _cast(g(t), dtype, what),
            _levels(n_steps, block, tau, 1),
            dtype,
        )
        for what, g in (("left wall", bc.left), ("right wall", bc.right))
    )
    return (np.column_stack(pair) for pair in zip(left, right))


def _views(blocks, block: int, n_steps: int, first: int):
    """For each chunk [k, k + c), its rows of levels k + first..k + c, from the
    blocks of ``block`` steps that ``_levels`` times with this ``first``.  A
    chunk's rows are a view into the block that holds them; only a level
    before its block (first = 0, a block's first chunk after the first
    block) comes from the block before, carried as a copy of one row (so
    the block before is freed) and joined in front of that chunk."""
    for k in range(0, n_steps, _FORCING_CHUNK):
        at = k % block
        if at == 0:  # rows[i] is level k + shift + i
            before = rows[-1:].copy() if k else None
            rows, shift = next(blocks), (1 if k else first)
        start, end = at + first - shift, at + min(_FORCING_CHUNK, n_steps - k) + 1 - shift
        yield rows[start:end] if start >= 0 else np.concatenate((before, rows[:end]))


def _chunks(problem: ProblemSpec, mats: SchemeMatrices, n_steps: int):
    """The (k, f, g) of each chunk [k, k + c) of the march, in order.

    f holds the forcing at time levels k..k+c, and g the (left, right)
    Dirichlet data at levels k+1..k+c as a (c, 2) array, or is None for
    Neumann walls.  Both come from blocks of whole chunks, each stream's
    block evaluated once (``_block_steps``); consecutive forcing blocks
    share their boundary row, which is evaluated once and carried
    (``_views``).  Level i is at time i * tau, and no array grows with the
    step count.
    """
    tau, dtype = mats.grid.tau, mats.kind.dtype
    xf = _forcing_grid(mats)

    def vector(t):
        rows = _cast(problem.forcing(t[:, None], xf[None, :]), dtype, "forcing")
        shape = (t.size, xf.size)
        return rows if rows.shape == shape else np.broadcast_to(rows, shape)

    block = _block_steps(xf.size)
    forcing = _sampled(vector, lambda t: _forcing_one(problem, t, xf, dtype),
                       _levels(n_steps, block, tau, 0), dtype)
    f = _views(forcing, block, n_steps, 0)
    g = itertools.repeat(None)
    if mats.dirichlet is not None:
        block = _block_steps(2)
        g = _views(_wall_blocks(mats.dirichlet, tau, n_steps, block, dtype), block, n_steps, 1)
    return zip(range(0, n_steps, _FORCING_CHUNK), f, g)


# The opaque march probes the step once and builds its two stacks (35
# products of about m^3), then costs one GEMM and one GEMV per 256-step
# chunk: it wins from about m^2/50 steps (real) or m^2/30 (complex), and
# from about m on small grids, where its set-up takes about 0.5 ms.  Whole
# cold runs, stepwise / opaque in ms, medians of 15 interleaved pairs of CPU
# timings on a 2-core Xeon with one BLAS thread, s3 a=2 at courant 100
# (real) and snll at courant i (complex), the march's wins of 15 in brackets
# where it lost any: real, m = 11, 1m 0.52 / 0.52 (8), 2m 0.67 / 0.50;
# m = 21, 0.5m 0.58 / 0.62 (1), 1m 0.79 / 0.59; m = 41, 0.5m 1.04 / 1.04
# (11), 1m 1.43 / 0.80; m = 64, 1m 1.99 / 1.64; m = 101, 2m 4.81 / 4.56,
# 2.5m 5.97 / 4.77; m = 128, 2m 6.68 / 8.09 (1), 2.5m 7.70 / 7.48 (14), 3m
# 9.15 / 7.71.  Complex, m = 11, 1m 0.61 / 0.61 (8); m = 21, 1m 1.73 / 1.48;
# m = 41, 1m 3.30 / 2.75; m = 64, 1.5m 3.13 / 3.79 (0), 2m 3.80 / 3.55;
# m = 101, 3m 9.06 / 10.74 (0), 4m 11.76 / 11.02 (14); m = 128, 4m 13.93 /
# 16.27 (0), where 4.5m won 35 of 41 pairs in an earlier measurement.
_AFFINE_MIN_STEPS_PER_NODE = 1
_AFFINE_STEPS_PER_NODE_SQUARED = {ScalarKind.REAL: 1 / 50, ScalarKind.COMPLEX: 1 / 30}
# ``_march_affine`` sums a chunk as this many blocks of this many steps.
_POWER_BLOCK = math.isqrt(_FORCING_CHUNK)
# The dense maps are O(m^2) memory, 9.0 MB at m = 128 (complex; a 13.1 MB
# peak over a 600-step run, by tracemalloc).  Without a cap on the operators
# kept, the m = 201 / 2027-step richardson run of the README commands raised
# their peak RSS from 38.7 to 41.5 MB; with it, 38.5 MB.
_AFFINE_MAX_NODES = 128
# The closed form costs one probe of m + 2 states and floor(log2 n) squarings
# of an (m + 2)-square matrix; a step costs about 15-80 us.  Break-even, best
# of 3-5 on a 2-core Xeon with one BLAS thread, s1 at courant 1 (real) and
# snll at courant i (complex): 8-12 steps up to m = 51, then 25-45 / 55-90
# (real / complex) at m = 101, 150-200 / 330-650 at m = 201 and 1000-1450 /
# 1500-2500 at m = 401.  At n = m^2 / 64 the closed form is 3.1 / 2.2 times
# as fast as stepping at m = 101, 3.5 / 1.5 at m = 201 and 2.0 / 1.2 at 401.
_CLOSED_MIN_STEPS = 16
_CLOSED_STEPS_PER_NODE_SQUARED = 1 / 64
# The closed form zeroes the entries of G's top rows below this fraction of
# their column's largest, before each use until none is left.  They move no
# result by more than about m * 1e-150 of its inputs, and their products
# would be subnormal, which slows a GEMM 5-10 times: 11.6M steps of s3 a=2
# at m = 401 took 201 ms without the flush and 71 ms with it.
_CLOSED_FLUSH = 1e-150
# ``_closed_states``: timings in the module docstring (2-core Xeon, 1 thread)
_STATE_BLOCK = 64
_STATES_MAX_NODES = 256


def _check_finite(u: np.ndarray, first: int, last: int):
    if not np.isfinite(u).all():
        raise FloatingPointError(f"state became non-finite between steps {first + 1} and {last}")


def _modes(problem: ProblemSpec):
    """The problem's ``TwoModeForcing`` and ``TwoModeWall`` walls, or None.

    None unless the forcing and any Dirichlet walls declare their modes
    with one omega.
    """
    f, bc = problem.forcing, problem.boundary
    walls = (bc.left, bc.right) if isinstance(bc, Dirichlet) else ()
    if isinstance(f, TwoModeForcing) and all(
        isinstance(g, TwoModeWall) and g.omega == f.omega for g in walls
    ):
        return f, walls
    return None


def _engine(problem: ProblemSpec, grid: Grid1D):
    """The march ``run`` uses: the rule of the module docstring."""
    m, n_steps = grid.n + 1, grid.n_steps
    if _modes(problem) is not None and n_steps >= max(
        _CLOSED_MIN_STEPS, _CLOSED_STEPS_PER_NODE_SQUARED * m * m
    ):
        return _march_closed
    if m <= _AFFINE_MAX_NODES and n_steps >= m * max(
        _AFFINE_MIN_STEPS_PER_NODE, _AFFINE_STEPS_PER_NODE_SQUARED[problem.kind] * m
    ):
        return _march_affine
    return _march_stepwise


def _stepwise_states(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """Yield the state after each of ``n_steps`` banded steps from u.

    The finiteness check runs once per forcing chunk, after that chunk's
    states are yielded.
    """
    for k, f, g in _chunks(problem, mats, n_steps):
        c = f.shape[0] - 1
        for i in range(c):
            u = _step(mats, u, f[i], f[i + 1], bc_vals=None if g is None else g[i])
            yield u
        _check_finite(u, k, k + c)


def _march_stepwise(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """One banded step per time level."""
    for u in _stepwise_states(mats, u, problem, n_steps):
        pass
    return u


def _probe(mats: SchemeMatrices, states, f0=None, f1=None, g=None) -> np.ndarray:
    """The step's responses to unit states and extra inputs, one per row.

    The step is linear in (u, f^n, f^{n+1}, g^{n+1}), so one batched
    ``_step`` gives them all.  Row i is the response to the unit state at
    node ``states[i]`` with zero inputs: column states[i] of the step map
    P = -A_new^-1 A_old.  The rows after them are the responses to the
    inputs j: state 0, f^n = f0[j], f^{n+1} = f1[j] and Dirichlet data
    g[j], a missing f1 or g being zero.  A zero forcing is one broadcast
    row, so a probe of states alone makes no forcing stack.  Each row
    gets the bits it would get stepped alone.
    """
    m, dtype = mats.grid.n + 1, mats.kind.dtype
    p, k = len(states), 0 if f0 is None else f0.shape[0]
    u = np.zeros((p + k, m), dtype)
    u[range(p), states] = 1.0
    zero = np.zeros((1, _forcing_grid(mats).size), dtype)

    def padded(inputs):  # np.zeros leaves the state rows unwritten: no resident pages
        out = np.zeros((p + k, inputs.shape[1]), dtype)
        out[p:] = inputs
        return out

    f0, f1 = (zero if f is None else padded(f) for f in (f0, f1))
    bc = (0.0, 0.0) if g is None else padded(g).T
    return _step(mats, u, f0, f1, bc_vals=bc)


def _march_affine(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """Advance u <- u T + f^n Q0 + f^{n+1} Q1 + g^{n+1} W by blocked powers of T.

    States are rows here, so T = P^T.  On the operator's first use one probe
    of the m unit states and the unit inputs (``_probe``) gives T, Q0, Q1 and
    W.  With M = [Q0 + Q1 T; W], 35 products give MS = [M T^15; ...; M T; M]
    and S2 = [T^256; T^240; ...; T^16], kept with the operator beside T and
    Q1.  Then v = u - f^n Q1 steps as v <- v T + z_n M, z_n = [f^n,
    g^{n+1}], so after a chunk of c = 16 q + r steps v is v T^c + sum_j z_j
    M T^(c-1-j).  The zero-padded rows [0; z_0; ...; z_(c-1)], in q + 1
    blocks of 16, times MS give one row per block, the first one plus
    v T^r; the new v is the last row plus the others times the last q
    blocks of S2.  A chunk is one GEMM and one GEMV in the kind's own
    arithmetic, and only a last chunk of r > 0 steps adds r matrix-vector
    products.
    """
    built, m, b = mats._built, u.size, _POWER_BLOCK
    if built.powers is None:
        mf = _forcing_grid(mats).size
        unit = np.eye(2 * mf + 2, dtype=mats.kind.dtype)
        cols = _probe(mats, range(m), unit[:, :mf], unit[:, mf : 2 * mf], unit[:, 2 * mf :])
        t, (q0, q1, w) = cols[:m], np.split(cols[m:], [mf, 2 * mf])
        ms, s2 = np.empty((b, mf + 2, m), t.dtype), np.empty((b, m, m), t.dtype)
        ms[-1], s2[-1] = np.concatenate((q0 + q1 @ t, w)), t
        for i in range(b - 1, 0, -1):
            np.matmul(ms[i], t, out=ms[i - 1])
        for _ in range(b.bit_length() - 1):  # T^16 by squarings: b is a power of 2
            s2[-1] = s2[-1] @ s2[-1]
        for i in range(b - 1, 0, -1):
            np.matmul(s2[i], s2[-1], out=s2[i - 1])
        built.powers = ms.reshape(-1, m), s2.reshape(-1, m), t.copy(), q1.copy()
    ms, s2, t, q1 = built.powers
    z = np.zeros((_FORCING_CHUNK + b, q1.shape[0] + 2), u.dtype)  # refilled by each chunk
    for k, f, g in _chunks(problem, mats, n_steps):
        if k == 0:
            v = u - f[0] @ q1
        c = f.shape[0] - 1
        q, r = divmod(c, b)
        z[-(q + 1) * b : -c] = 0.0
        z[-c:, : f.shape[1]] = f[:-1]
        if g is not None:
            z[-c:, f.shape[1] :] = g
        y = z[-(q + 1) * b :].reshape(q + 1, -1) @ ms
        for _ in range(r):
            v = v @ t
        y[0] += v
        v = y[:-1].reshape(-1) @ s2[(b - q) * m :] + y[-1]
        u = v + f[-1] @ q1
        _check_finite(u, k, k + c)
    return u


def _closed_map(mats: SchemeMatrices, problem: ProblemSpec, dtype) -> np.ndarray:
    """G = [[P, E], [0, R]], the step map of y = (u, cos k theta, sin k theta).

    Step k's inputs are cos(k theta) times those of k = 0 plus sin(k theta)
    times those of omega t = pi/2, theta = omega tau, so E holds the step's
    responses to these two inputs, and the phase turns by the rotation R
    each step.  One probe gives P and E together.
    """
    forcing, walls = _modes(problem)
    theta = forcing.omega * mats.grid.tau
    cb, sb = math.cos(theta), math.sin(theta)
    xf = _forcing_grid(mats)
    f_c, f_s = (np.broadcast_to(_cast(mode(xf), dtype, "forcing"), xf.shape)
                for mode in (forcing.f_c, forcing.f_s))
    g = None
    if walls:
        g_c, g_s = np.array([w.c for w in walls]), np.array([w.s for w in walls])
        g = _cast(np.stack((cb * g_c + sb * g_s, cb * g_s - sb * g_c)), dtype, "wall data")
    f1 = np.stack((cb * f_c + sb * f_s, cb * f_s - sb * f_c))
    m = mats.grid.n + 1
    cols = _probe(mats, range(m), np.stack((f_c, f_s)), f1, g)
    step_map = np.zeros((m + 2, m + 2), dtype)  # made after the probe, so not alive during it
    step_map[:m] = cols.T
    step_map[m:, m:] = ((cb, -sb), (sb, cb))
    return step_map


def _flush(step_map: np.ndarray) -> bool:
    """Flush a power of G (``_CLOSED_FLUSH``); False when it had nothing to flush."""
    top = np.abs(step_map[:-2])
    tiny = (top < _CLOSED_FLUSH * top.max(axis=0)) & (top > 0.0)
    step_map[:-2][tiny] = 0.0
    return bool(tiny.any())


def _march_closed(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """y_n = G^n y_0 for a problem that declares its modes (``_closed_map``).

    Every factor is a power of G, so the order does not matter: floor(log2 n)
    squarings of G and one matrix-vector product per set bit of n.
    """
    step_map = _closed_map(mats, problem, u.dtype)
    y, bits, flush = np.concatenate((u, (1.0, 0.0))), n_steps, True
    while bits:
        if flush:
            flush = _flush(step_map)
        if bits & 1:
            y = step_map @ y
        bits >>= 1
        if bits:
            step_map = step_map @ step_map
    _check_finite(y, 0, n_steps)
    return y[:-2]


def _closed_states(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """Yield y_1..y_n of ``_closed_map`` in checked blocks: with y the last s
    states and G^s in hand, the next s are G^s y; y = [y_0] doubles and G^s
    squares until s = ``_STATE_BLOCK``, then each block is one GEMM."""
    power, flush = _closed_map(mats, problem, u.dtype), True
    y, k = np.concatenate((u, (1.0, 0.0)))[:, None], 0
    while k < n_steps:
        if flush:
            flush = _flush(power)
        new = power @ y
        block = new[: u.size, : n_steps - k]
        _check_finite(block, k, k + block.shape[1])
        yield block
        k += y.shape[1]
        if y.shape[1] < _STATE_BLOCK:
            new, power = np.hstack((y, new)), power @ power
        y = new


def _states(mats: SchemeMatrices, u, problem: ProblemSpec, n_steps: int):
    """The states after steps 1..n_steps from u in blocks, node axis first: the
    closed form's where ``run`` takes it, on at most ``_STATES_MAX_NODES`` nodes."""
    if u.size <= _STATES_MAX_NODES and _engine(problem, mats.grid) is _march_closed:
        return _closed_states(mats, u, problem, n_steps)
    return (v[:, None] for v in _stepwise_states(mats, u, problem, n_steps))


def run(problem: ProblemSpec, grid: Grid1D, scheme: SchemeDescriptor) -> StepReport:
    """March from t = 0 to t_final and report the final state and cost.

    Forcing and Dirichlet wall callables are evaluated in vectorized
    blocks over time when they broadcast numpy-style; anything else
    falls back to pointwise evaluation automatically.  The engine is
    chosen as the module docstring says.  A non-finite state raises
    FloatingPointError; numpy's overflow and invalid-value warnings are
    held back while the march runs.  A run on the operator of the
    previous assembly (same theta samples, grid, kind, wall type and
    scheme) skips its assembly, and on the opaque march its probe and
    powers, and gives bitwise the same state.
    """
    if isinstance(scheme, Compact):
        mats = assemble_compact(problem, grid, scheme.cut, scheme.neumann)
    elif isinstance(scheme, Classic):
        mats = assemble_classic(problem, grid, scheme.rhs, scheme.neumann)
    else:
        raise TypeError(f"unknown scheme descriptor {scheme!r}")
    u = _cast(problem.initial(grid.x), mats.kind.dtype, "initial state").copy()
    # a blow-up is reported by the march's finiteness check, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        u = _engine(problem, grid)(mats, u, problem, grid.n_steps)
    return StepReport(final_state=u, muls_per_step=mats.muls_per_step, steps=grid.n_steps)


def c_norm_error(state: np.ndarray, reference: np.ndarray) -> float:
    """Maximum nodal deviation (complex modulus for the complex kind)."""
    return float(np.max(np.abs(np.asarray(state) - np.asarray(reference))))
