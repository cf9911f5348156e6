"""Problem descriptions, grids, and the catalogue of manufactured solutions.

The solvers march

    du/dt = kappa * d/dx(theta(x) du/dx) + f(t, x),   0 < x < 2*pi,

where kappa is 1 for the diffusion (real) kind and i for the
Schrodinger-type (complex) kind.  theta is strictly positive and does
not depend on time.  Manufactured solutions pair an exact field with the
forcing that makes it solve the equation.  Every field in the catalogue
has two time modes, cos(omega t) U_c(x) + sin(omega t) U_s(x).  A sample
states U_c and U_s with their first two x derivatives, and one builder
makes from them the exact field and its t, x and xx derivatives, the
initial state U_c, and the Dirichlet walls, whose modes are U_c and U_s
at 0 and 2 pi.  The forcing modes f_c(x) and f_s(x) stay hand-written
rather than composed from the field modes, so the tests cross-check them
against the chain-rule composition of the stored derivatives.  Forcings
and Dirichlet walls declare their modes (``TwoModeForcing``,
``TwoModeWall``), which lets ``steppers.run`` sum a long march in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

import numpy as np

from .theta_fit import TWO_PI, sample_theta


class ScalarKind(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        return np.complex128 if self is ScalarKind.COMPLEX else np.float64

    @property
    def kappa(self) -> complex:
        return 1j if self is ScalarKind.COMPLEX else 1.0


# Grid1D, ProblemSpec and steppers.SchemeMatrices are cpde's only
# dataclasses, because callers copy them with ``dataclasses.replace``.
# Every other record is a plain class or a NamedTuple: a dataclass
# compiles its methods at import, in every process that imports cpde.
@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid on [0, 2*pi] x [0, t_final]."""

    n: int
    h: float
    x: np.ndarray
    tau: float
    n_steps: int
    t_final: float


def grid_nodes(n: int) -> np.ndarray:
    """The nodes j h, h = 2 pi / n, of n intervals; at least 4 are needed."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"the interval count must be an integer, got {n!r}")
    if n < 4:
        raise ValueError(f"need at least 4 intervals, got {n!r}")
    return np.arange(n + 1) * (TWO_PI / n)


def make_grid(n: int, courant: complex, t_final: float, theta_max: float) -> Grid1D:
    """Build the grid for a target grid ratio.

    The requested ratio |courant| = theta_max * tau / h^2 fixes a raw
    time step; the actual tau is that raw value shrunk so that an
    integer number of steps lands exactly on t_final.  Neither part of
    courant may be negative.
    """
    x = grid_nodes(n)
    mag = abs(courant)
    if not (math.isfinite(mag) and mag > 0.0):
        raise ValueError(f"courant number must be nonzero and finite, got {courant}")
    if min(complex(courant).real, complex(courant).imag) < 0.0:
        raise ValueError(f"courant number must not have a negative part, got {courant}")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if theta_max <= 0.0:
        raise ValueError(f"theta_max must be positive, got {theta_max}")
    h = TWO_PI / n
    raw_tau = h * h * mag / theta_max
    n_steps = max(1, math.ceil(t_final / raw_tau - 1e-9))
    tau = t_final / n_steps
    return Grid1D(n=int(n), h=h, x=x, tau=tau, n_steps=n_steps, t_final=t_final)


def theta_grid_max(theta: Callable, grid_or_x) -> float:
    """Largest coefficient value over the grid nodes, with positivity check."""
    x = grid_or_x.x if isinstance(grid_or_x, Grid1D) else grid_or_x
    return float(sample_theta(theta, x).max())


class Dirichlet(NamedTuple):
    """Prescribed end values u(t, 0) and u(t, 2*pi)."""

    left: Callable[[float], complex]
    right: Callable[[float], complex]


class _Frozen:
    """An immutable record of the fields named in its class's ``__slots__``.

    Equal only to a record of the same type with equal fields, and hashed
    alike: the scheme descriptors and wall types key the kept operator
    (``steppers._last_operator``).  The repr names the fields, and a
    record pickles as its type and field values.  A subclass that needs
    defaults or a check defines an ``__init__`` that takes the fields in
    slot order and passes them on.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash((type(self),) + self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Neumann(_Frozen):
    """Homogeneous derivative conditions u_x = 0 at both walls."""

    __slots__ = ()


BoundaryCondition = Union[Dirichlet, Neumann]


@dataclass(frozen=True)
class ProblemSpec:
    theta: Callable[[float], float]  # on an array of abscissae, or else on each float
    forcing: Callable[[float, np.ndarray], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    boundary: BoundaryCondition
    kind: ScalarKind


class SampleSolution(NamedTuple):
    """A manufactured solution: problem plus the exact field and pieces.

    exact and its derivative callables are built from the sample's two
    x-modes and their derivatives; so are the initial state and the
    Dirichlet walls.  The derivatives (and theta_dx) exist so tests can
    verify the hand-written forcing against the chain-rule composition
    exact_dt - kappa*(theta_dx*exact_dx + theta*exact_dxx).
    """

    name: str
    params: dict
    problem: ProblemSpec
    exact: Callable[[float, np.ndarray], np.ndarray]
    exact_dt: Callable[[float, np.ndarray], np.ndarray]
    exact_dx: Callable[[float, np.ndarray], np.ndarray]
    exact_dxx: Callable[[float, np.ndarray], np.ndarray]
    theta_dx: Callable[[np.ndarray], np.ndarray]


class TwoModeForcing:
    """The forcing cos(omega t) * f_c(x) + sin(omega t) * f_s(x), modes declared.

    It takes the two call forms a march makes: a scalar time t with a node
    array gives an array of the nodes' shape, and a (k, 1) time column with
    a (1, m) node row gives k rows.  Any other pairing raises ValueError.
    Both forms are one ``np.einsum`` sum of products of the phases
    (cos omega t, sin omega t), a row per time, with the stacked (2, m)
    modes, complex modes taken as their real view.  A row is the same in
    either form, since both go through the same kernel.  Where numpy's
    sum-of-products kernel does not fuse the multiply-add (checked with
    numpy 2.4 on x86-64), a row also has the plain formula's bits for
    finite modes, but for the sign of a zero (the sum starts from +0); a
    build that fuses it (FMA) may differ from the formula in the last ulp.
    f_c and f_s see x alone and are evaluated once per node row: the modes
    of the last two rows (a march's block row and its scalar-time row),
    matched by value, shape, dtype and f_c and f_s, are kept with a copy of
    the row in one tuple, which a concurrent call reads whole.
    ``steppers.run`` reads omega, f_c and f_s to march in closed form.
    """

    __slots__ = ("omega", "f_c", "f_s", "_modes")

    def __init__(self, omega: float, f_c: Callable, f_s: Callable):
        self.omega, self.f_c, self.f_s, self._modes = omega, f_c, f_s, ()

    def __call__(self, t, x):
        row, wt = np.asarray(x), self.omega * np.asarray(t)
        if wt.ndim == 0:
            phases = np.array(((np.cos(wt), np.sin(wt)),))
        elif wt.ndim == 2 and wt.shape[1] == 1 and row.ndim == 2 and row.shape[0] == 1:
            cos, sin = np.cos(wt), np.sin(wt)
            phases = np.empty((wt.shape[0], 2), cos.dtype)
            phases[:, :1], phases[:, 1:] = cos, sin
        else:
            raise ValueError(f"a two-mode forcing takes a scalar time with any node array "
                             f"or a (k, 1) time column with a (1, m) node row, not times of "
                             f"shape {np.shape(t)} with nodes of shape {row.shape}")
        key = (row.shape, row.dtype, self.f_c, self.f_s)
        for kept in self._modes:
            if kept[0] == key and np.array_equal(kept[1], row):
                break
        else:
            # filled in place, like the phases: np.stack and np.concatenate
            # each cost about 40 us on their first use in a process
            c, s = np.asarray(self.f_c(x)), np.asarray(self.f_s(x))
            modes = np.empty((2, *row.shape), np.result_type(c, s))
            modes[0], modes[1] = c, s
            kept = (key, row.copy(), modes.reshape(2, -1))
            self._modes = (kept, *self._modes[:1])
        modes = kept[2]
        # complex modes with real phases as their real view: a third of the
        # complex sum of products' cost, and its bits for finite modes where
        # the kernel does not fuse the multiply-add
        split = modes.dtype == np.complex128 and phases.dtype == np.float64
        rows = np.einsum("ki,im->km", phases, modes.view(np.float64) if split else modes)
        rows = rows.view(np.complex128) if split else rows
        return rows if wt.ndim else rows.reshape(row.shape)


class TwoModeWall:
    """The wall value cos(omega t) * c + sin(omega t) * s, modes declared."""

    __slots__ = ("omega", "c", "s")

    def __init__(self, omega: float, c: float, s: float):
        self.omega, self.c, self.s = omega, c, s

    def __call__(self, t):
        return np.cos(self.omega * t) * self.c + np.sin(self.omega * t) * self.s


def _theta_cos2(x):
    return np.cos(x) ** 2 + 1.0


def _theta_cos2_dx(x):
    return -np.sin(2.0 * x)


def _two_mode_sample(name, params, kind, omega, theta, theta_dx, modes, f_c, f_s, walls):
    """The sample cos(omega t) U_c(x) + sin(omega t) U_s(x), built from its modes.

    modes(x) returns the triples (U_c, U_c', U_c'') and (U_s, U_s', U_s'').
    They give the exact field and its t, x and xx derivatives, the initial
    state U_c and, when walls is Dirichlet, the walls TwoModeWall(omega,
    U_c, U_s) read at 0 and 2 pi; otherwise the walls are Neumann.  f_c
    and f_s stay hand-written, so the chain-rule tests compare two
    independent derivations.
    """

    def field(order):
        def at(t, x):
            cos_mode, sin_mode = modes(x)
            return np.cos(omega * t) * cos_mode[order] + np.sin(omega * t) * sin_mode[order]

        return at

    def exact_dt(t, x):
        (u_c, _, _), (u_s, _, _) = modes(x)
        return omega * (np.cos(omega * t) * u_s - np.sin(omega * t) * u_c)

    boundary = Neumann()
    if walls is Dirichlet:
        ends = (modes(0.0), modes(TWO_PI))
        boundary = Dirichlet(*(TwoModeWall(omega, float(c[0]), float(s[0])) for c, s in ends))
    problem = ProblemSpec(
        theta=theta,
        forcing=TwoModeForcing(omega, f_c, f_s),
        initial=lambda x: modes(x)[0][0],
        boundary=boundary,
        kind=kind,
    )
    return SampleSolution(name, params, problem, field(0), exact_dt, field(1), field(2), theta_dx)


def _build_s1(name: str, kind: ScalarKind, params: dict) -> SampleSolution:
    kp = kind.kappa

    def modes(x):
        s, c, s2x = np.sin(x), np.cos(x), np.sin(2.0 * x)
        cube = s**3
        return (
            (s2x, 2.0 * np.cos(2.0 * x), -4.0 * s2x),
            (cube, 3.0 * s**2 * c, 6.0 * s * c**2 - 3.0 * cube),
        )

    # (theta U_c')' = -2 sin 2x (4 cos^2 x + 1), (theta U_s')' = 3 sin x (5 cos^4 x - 1)
    def f_c(x):
        return np.sin(x) ** 3 + kp * 2.0 * np.sin(2.0 * x) * (4.0 * np.cos(x) ** 2 + 1.0)

    def f_s(x):
        return -np.sin(2.0 * x) - kp * 3.0 * np.sin(x) * (5.0 * np.cos(x) ** 4 - 1.0)

    return _two_mode_sample(
        name, params, kind, 1.0, _theta_cos2, _theta_cos2_dx, modes, f_c, f_s, Dirichlet
    )


def _build_s2(name: str, kind: ScalarKind, params: dict) -> SampleSolution:
    k = params.get("k", 2)
    if k != int(k):
        raise ValueError(f"power k must be an integer, got {k}")
    k = int(k)
    if k < 2:
        raise ValueError(f"power k must be at least 2, got {k}")
    params = {"k": k}
    kp = kind.kappa

    # a float power costs several sin calls, so each power is taken once
    def modes(x):
        s, c, e = np.sin(x), np.cos(x), np.exp(x)
        sk, dk, zero = s**k, k * s ** (k - 1) * c, 0.0 * x
        return (zero, zero, zero), (
            sk * e,
            e * (sk + dk),
            e * (sk + 2.0 * dk + k * (k - 1) * s ** (k - 2) * c**2 - k * sk),
        )

    def f_c(x):
        return np.sin(x) ** k * np.exp(x)

    def f_s(x):
        s, c = np.sin(x), np.cos(x)
        ux = s**k + k * s ** (k - 1) * c
        uxx = (1 - k) * s**k + 2.0 * k * s ** (k - 1) * c + k * (k - 1) * s ** (k - 2) * c**2
        return -kp * np.exp(x) * (-np.sin(2.0 * x) * ux + (c**2 + 1.0) * uxx)

    return _two_mode_sample(
        name, params, kind, 1.0, _theta_cos2, _theta_cos2_dx, modes, f_c, f_s, Dirichlet
    )


def _build_s3(name: str, kind: ScalarKind, params: dict) -> SampleSolution:
    a = float(params.get("a", 1.0))
    b = float(params.get("b", 1.0))
    omega = float(params.get("omega", 1.0))
    params = {"a": a, "b": b, "omega": omega}
    kp = kind.kappa

    def theta(x):
        return np.exp(a * x)

    def theta_dx(x):
        return a * np.exp(a * x)

    # U_c = sin(x/2) e^{b(2pi-x)} and U_s = sin(x/2) e^{bx}
    def modes(x):
        sh, ch = np.sin(0.5 * x), np.cos(0.5 * x)
        e_c, e_s = np.exp(b * (TWO_PI - x)), np.exp(b * x)
        return (
            (sh * e_c, e_c * (0.5 * ch - b * sh), e_c * ((b * b - 0.25) * sh - b * ch)),
            (sh * e_s, e_s * (0.5 * ch + b * sh), e_s * ((b * b - 0.25) * sh + b * ch)),
        )

    # (theta U')' = e^{ax} (a U' + U'') for each mode
    def f_c(x):
        sh, ch = np.sin(0.5 * x), np.cos(0.5 * x)
        flux = np.exp(a * x + b * (TWO_PI - x)) * (
            (b * b - a * b - 0.25) * sh + (0.5 * a - b) * ch
        )
        return omega * sh * np.exp(b * x) - kp * flux

    def f_s(x):
        sh, ch = np.sin(0.5 * x), np.cos(0.5 * x)
        flux = np.exp((a + b) * x) * ((b * b + a * b - 0.25) * sh + (0.5 * a + b) * ch)
        return -omega * sh * np.exp(b * (TWO_PI - x)) - kp * flux

    return _two_mode_sample(name, params, kind, omega, theta, theta_dx, modes, f_c, f_s, Dirichlet)


def _build_sn(name: str, kind: ScalarKind, params: dict) -> SampleSolution:
    kp = kind.kappa

    def modes(x):
        zero = 0.0 * x
        return (zero, zero, zero), (np.cos(x) ** 2, -np.sin(2.0 * x), -2.0 * np.cos(2.0 * x))

    # (theta U_s')' = sin^2 2x - 2 (cos^2 x + 1) cos 2x = 2 + 2 cos^2 x - 8 cos^4 x
    def f_c(x):
        return np.cos(x) ** 2

    def f_s(x):
        c2 = np.cos(x) ** 2
        return 2.0 * kp * (4.0 * c2 * c2 - c2 - 1.0)

    return _two_mode_sample(
        name, params, kind, 1.0, _theta_cos2, _theta_cos2_dx, modes, f_c, f_s, Neumann
    )


# name: (builder, natural kind, the parameters it takes)
_BUILDERS = {
    "s1": (_build_s1, ScalarKind.REAL, ()),
    "s2": (_build_s2, ScalarKind.REAL, ("k",)),
    "s3": (_build_s3, ScalarKind.REAL, ("a", "b", "omega")),
    "sn": (_build_sn, ScalarKind.REAL, ()),
    "snll": (_build_sn, ScalarKind.COMPLEX, ()),
}


def sample_solution(name: str, kind: ScalarKind | None = None, **params) -> SampleSolution:
    """Look up a manufactured solution by name.

    Passing kind switches the same field to the other equation kind
    (the forcing changes accordingly); by default each sample uses its
    natural kind.  Unknown names, a parameter the sample does not take,
    a parameter that is not finite and a non-integral s2 power k raise
    ValueError.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown sample {name!r}; choose from {sorted(_BUILDERS)}")
    builder, default_kind, takes = _BUILDERS[key]
    for param, value in params.items():
        if param not in takes:
            raise ValueError(f"unknown parameter {param!r} for sample {key!r}; "
                             f"it takes {', '.join(takes) or 'no parameters'}")
        if not math.isfinite(value):
            raise ValueError(f"parameter {param} must be finite, got {value}")
    return builder(key, kind or default_kind, dict(params))


def grid_for(
    sample: SampleSolution, n: int, courant: complex, t_final: float
) -> Grid1D:
    """Grid whose ratio is measured against max theta over the nodes."""
    return make_grid(n, courant, t_final, theta_grid_max(sample.problem.theta, grid_nodes(n)))
