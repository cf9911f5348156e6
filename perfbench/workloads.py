"""The four benchmark workloads: seeded inputs, operations and checks.

Each workload is a closed loop with one caller, a researcher waiting on
a batch job: the next operation starts when the previous one returns.
An operation is one grid run, one CLI command or one matrix study.  It
fails when it raises, exits non-zero, produces a non-finite result or
misses a check; the worker counts it in ``failed``.

Seed 0 reproduces the documented inputs exactly.  Other seeds vary only
inputs that leave grid sizes and step counts unchanged, in ranges narrow
enough that the accuracy metric stays comparable across seeds:

- stiff_march: s3 ``b`` in 1 +- 0.002 and ``omega`` in 1 +- 0.02 (a = 2);
- fine_grid: nothing.  Its s2 power k stays 3 because k in 2..4 moves the
  error by 25% between seeds, and its run order stays fixed because the
  order moves peak memory by 13% through allocator reuse;
- paper_tables: the order of the README commands, and ``k`` in 2..4 in
  the ``--config run.cfg`` file;
- dense_spectral: the spectral Courant numbers, 5 and i, each scaled by
  1 +- 0.01.

The program only ever receives the generated inputs.  The worker module
has already imported cpde when this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cpde import analysis, cli, core, steppers

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Tolerances for the stored seed-0 reference outputs.  A correct
# reordering of floating-point work moved states by 7e-12 and 4e-11
# absolute in the prototype engines, so states, orders and spectra are
# compared relative to their scale and small error cells with an absolute
# floor on top of a relative term.
REL_TOL = 1e-8
ABS_TOL = 1e-10
SMALL_REL_TOL = 1e-6
STATE_SAMPLES = 256

# criterion 3: s3 (a=2, b=1, omega=1) at courant 100, N = 20 reference
# error and the order band of the a=2 row
S3_REF_ERROR_N20 = 6.18e-2
S3_ORDER, S3_ORDER_TOL = 3.99, 0.3
# criterion 6 bands for the asymmetry decay orders
ASYM_TRANSITION, ASYM_TRANSITION_TOL = 3.62, 0.4
ASYM_FORCING, ASYM_FORCING_TOL = 5.62, 0.5
# criterion 9: negativity scan and the thresholds it must bracket
NEGATIVITY_SCAN = (0.20, 0.25, 0.30, 0.35, 0.40, 0.50)


@dataclass
class Op:
    """One operation: ``run`` returns an output dict that ``check`` judges.

    ``check`` returns a list of failure messages.  ``summary`` turns the
    output into the JSON form stored as reference and compared against it.
    """

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    summary: Callable[[dict], dict]


def _theta(x):
    return math.cos(x) ** 2 + 1.0


def analytic_muls(m: int, neumann: bool) -> int:
    """Multiplications per compact step at m nodes.

    One tridiagonal double sweep (5m-4) plus the banded right-hand-side
    apply (3m-2); the three-point Neumann closure adds one corner
    elimination per wall.
    """
    return 8 * m - 6 + (2 if neumann else 0)


# ---------------------------------------------------------------------------
# reference comparison


def _values(a) -> list:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.concatenate([a.real, a.imag]).tolist()
    return a.astype(float).tolist()


def _subsample(state) -> list:
    state = np.asarray(state)
    stride = max(1, (state.size - 1) // STATE_SAMPLES)
    return _values(state[::stride])


def compare(summary: dict, reference: dict) -> list:
    """Failure messages for every entry that differs beyond its tolerance.

    Entries are ``[kind, values]`` with kind ``exact`` (compared as
    stored), ``rel`` (|a - b| <= REL_TOL * max|b| + 1e-12), ``small``
    (|a - b| <= ABS_TOL + SMALL_REL_TOL |b| per cell) or ``set`` (a
    multiset of complex values as [re, im] pairs, matched to the nearest
    value in both directions within REL_TOL of the largest modulus).
    """
    fails = []
    summary = json.loads(json.dumps(summary))
    if sorted(summary) != sorted(reference):
        return [f"output keys {sorted(summary)} differ from reference {sorted(reference)}"]
    for key, (kind, ref) in reference.items():
        got_kind, got = summary[key]
        if got_kind != kind:
            fails.append(f"{key}: kind {got_kind} differs from reference {kind}")
            continue
        if kind == "exact":
            if got != ref:
                fails.append(f"{key}: {got} differs from reference {ref}")
            continue
        a = np.asarray(got, dtype=float)
        b = np.asarray(ref, dtype=float)
        if a.shape != b.shape:
            fails.append(f"{key}: shape {a.shape} differs from reference {b.shape}")
            continue
        if not np.all(np.isfinite(a)):
            fails.append(f"{key}: non-finite values")
            continue
        if kind == "rel":
            dev = float(np.abs(a - b).max()) if a.size else 0.0
            tol = REL_TOL * (float(np.abs(b).max()) if b.size else 0.0) + 1e-12
            if dev > tol:
                fails.append(f"{key}: deviation {dev:.3e} from reference exceeds {tol:.3e}")
        elif kind == "small":
            excess = np.abs(a - b) - (ABS_TOL + SMALL_REL_TOL * np.abs(b))
            if excess.size and excess.max() > 0.0:
                k = int(np.argmax(excess))
                fails.append(f"{key}[{k}]: {a.flat[k]:.6e} differs from reference {b.flat[k]:.6e}")
        elif kind == "set":
            za = a[:, 0] + 1j * a[:, 1]
            zb = b[:, 0] + 1j * b[:, 1]
            d = np.abs(za[:, None] - zb[None, :])
            dev = max(float(d.min(axis=0).max()), float(d.min(axis=1).max()))
            tol = REL_TOL * float(np.abs(zb).max())
            if dev > tol:
                fails.append(f"{key}: spectrum deviates from reference by {dev:.3e}")
        else:
            fails.append(f"{key}: unknown comparison kind {kind!r}")
    return fails


def load_reference(workload: str):
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# grid runs


def _check_march(out, grid, neumann, bounds, final=True):
    """Failure messages for one march: finite state, cost, steps, error bound.

    A march that stops before ``grid``'s end (one part of a longer march)
    is held to the upper error bound only.
    """
    if not np.all(np.isfinite(out["state"])):
        return ["non-finite final state"]
    fails = []
    want = analytic_muls(grid.n + 1, neumann)
    if out["muls"] != want:
        fails.append(f"muls_per_step {out['muls']} differs from analytic count {want}")
    if out["steps"] != out["planned"]:
        fails.append(f"ran {out['steps']} steps, planned {out['planned']}")
    lo, hi = bounds
    if not final:
        lo = 0.0
    if not (lo <= out["error"] <= hi):
        fails.append(f"error {out['error']:.4e} outside [{lo:.3e}, {hi:.3e}]")
    return fails


def _march_summary(out):
    entries = {
        "state": ["rel", _subsample(out["state"])],
        "error": ["small", [out["error"]]],
        "muls": ["exact", [out["muls"]]],
        "steps": ["exact", [out["steps"]]],
    }
    if "order" in out:
        entries["order"] = ["rel", [out["order"]]]
    return entries


def _march_op(label, sample, problem, grid, bounds, extra_check=None):
    """A steppers.run op checked against the manufactured exact solution."""
    neumann = isinstance(problem.boundary, core.Neumann)

    def run():
        report = steppers.run(problem, grid, steppers.Compact())
        state = np.asarray(report.final_state)
        exact = sample.exact(grid.t_final, grid.x)
        return {
            "state": state,
            "error": steppers.c_norm_error(state, exact),
            "muls": report.muls_per_step,
            "steps": report.steps,
            "planned": grid.n_steps,
        }

    def check(out):
        fails = _check_march(out, grid, neumann, bounds)
        if extra_check is not None:
            fails.extend(extra_check(out))
        return fails

    return Op(label, run, check, _march_summary)


def _restarted(problem, t0: float, state):
    """``problem`` with its time origin moved to ``t0`` and ``state`` as initial value."""
    forcing, boundary = problem.forcing, problem.boundary
    if isinstance(boundary, core.Dirichlet):
        left, right = boundary.left, boundary.right
        boundary = core.Dirichlet(left=lambda t: left(t + t0), right=lambda t: right(t + t0))
    return dataclasses.replace(problem, forcing=lambda t, x: forcing(t + t0, x),
                               initial=lambda x: state, boundary=boundary)


def _segmented_march_ops(label, sample, problem, grid, bounds, parts, final_check=None):
    """One march over ``grid`` as ``parts`` consecutive ``steppers.run`` calls.

    Part j restarts the problem at the time part j-1 stopped, from the
    state it returned, with the same step tau, so the parts together take
    the same steps as one call over the whole grid.  The worker times its
    host-speed probe before each operation, so parts spread those probes
    over a long march.  Only the last part's error counts in
    ``max_error``; every part's state and error are compared with the
    reference.
    """
    neumann = isinstance(problem.boundary, core.Neumann)
    carry = {}
    parts = min(parts, grid.n_steps)
    base, extra = divmod(grid.n_steps, parts)
    ops, first = [], 0
    for j in range(parts):
        steps = base + (1 if j < extra else 0)
        part = dataclasses.replace(grid, n_steps=steps, t_final=steps * grid.tau)
        last = j == parts - 1
        t_end = grid.t_final if last else (first + steps) * grid.tau

        def run(j=j, first=first, part=part, t_end=t_end, last=last):
            if j == 0:
                carry["state"] = problem.initial(grid.x)
            state = carry.pop("state")  # a part that fails leaves none for the next
            report = steppers.run(_restarted(problem, first * grid.tau, state), part,
                                  steppers.Compact())
            state = np.asarray(report.final_state)
            carry["state"] = state
            error = steppers.c_norm_error(state, sample.exact(t_end, grid.x))
            out = {"state": state, "muls": report.muls_per_step, "steps": report.steps,
                   "planned": part.n_steps, "error": error}
            if not last:
                out["part_error"] = out.pop("error")
            return out

        def check(out, last=last):
            if last:
                fails = _check_march(out, grid, neumann, bounds)
                if final_check is not None:
                    fails.extend(final_check(out))
                return fails
            return _check_march(dict(out, error=out["part_error"]), grid, neumann, bounds,
                                final=False)

        def summary(out):
            return _march_summary(dict(out, error=out.get("error", out.get("part_error"))))

        ops.append(Op(f"{label} part {j + 1}/{parts}", run, check, summary))
        first += steps
    return ops


# stiff_march cuts each march into runs of about this many steps, 0.1-0.2 s
# each: short enough to time the host-speed probe every few tenths of a
# second, long enough that their assembly stays about 1% of the workload
STIFF_PART_STEPS = 2048


def stiff_march(seed: int, tracer, tmpdir: str, reference_mode: bool = False) -> list:
    """s3 (a=2) with the compact scheme at courant 100, N = 20 and 40.

    29,054 + 116,216 steps at m = 21 and 41: per-call overhead of the
    tridiagonal solve and the step loop at small m, the acceptance
    suite's hot path.  Each march runs as consecutive parts of about
    STIFF_PART_STEPS steps (14 and 57 parts).
    """
    rng = random.Random(seed)
    b = 1.0 if seed == 0 else 1.0 + rng.uniform(-0.002, 0.002)
    omega = 1.0 if seed == 0 else 1.0 + rng.uniform(-0.02, 0.02)
    sample = core.sample_solution("s3", a=2.0, b=b, omega=omega)
    problem = tracer.wrap_forcing(sample.problem)
    errors = {}
    ops = []
    # Stated bounds hold for every seed in range; at seed 0 the N = 20
    # error must also sit in criterion 3's factor-3 band.
    bounds = {20: (1e-3, 0.1), 40: (1e-4, 0.01)}
    if seed == 0:
        bounds[20] = (S3_REF_ERROR_N20 / 3.0, S3_REF_ERROR_N20 * 3.0)
    for n in (20, 40):
        grid = core.grid_for(sample, n, 100.0, 1.0)

        def record(out, n=n):
            errors[n] = out["error"]
            if n != 40:
                return []
            if 20 not in errors:
                return ["no N=20 result to estimate the order from"]
            order = math.log(errors[20] / errors[40]) / math.log(2.0)
            out["order"] = order
            if abs(order - S3_ORDER) > S3_ORDER_TOL:
                return [f"order {order:.3f} outside {S3_ORDER} +- {S3_ORDER_TOL}"]
            return []

        parts = max(1, round(grid.n_steps / STIFF_PART_STEPS))
        ops.extend(_segmented_march_ops(f"s3 N={n}", sample, problem, grid, bounds[n],
                                        parts, record))
    return ops


def _theta_max(sample, n: int) -> float:
    return core.theta_grid_max(sample.problem.theta, np.arange(n + 1) * (core.TWO_PI / n))


def _fixed_steps_grid(sample, n: int, steps: int, courant: complex):
    """Grid at N = n with exactly ``steps`` steps of tau = |courant| h^2 / max theta."""
    theta_max = _theta_max(sample, n)
    h = core.TWO_PI / n
    return core.make_grid(n, courant, steps * abs(courant) * h * h / theta_max, theta_max)


# One grid size only: an operation at N = 8000 lasts about 2 s, which
# leaves the host-speed probe, timed between operations, seconds apart;
# one at N = 2000 lasts about 0.5 s.
FINE_N = (2000,)


def fine_grid(seed: int, tracer, tmpdir: str, reference_mode: bool = False) -> list:
    """s2 (k=3, real, Dirichlet) and snll (complex, Neumann three-point
    wall) at N = FINE_N with exactly 64 steps each.

    About 4k assembled rows against 128 solves at m = 2001: the workload
    where set-up is a large share and an O(m^2) step would show in time
    and memory (a dense step operator at m = 2001 is 32 MB real, 64 MB
    complex, against a peak of about 42 MB).
    """
    ops = []
    for name, params, bounds in (("s2", {"k": 3}, (1e-4, 1.2e-3)), ("snll", {}, (1e-6, 2e-5))):
        sample = core.sample_solution(name, **params)
        problem = tracer.wrap_forcing(sample.problem)
        for n in FINE_N:
            # courant = max theta / (64 h^2) gives tau = 1/64 and t_final = 1
            theta_max = _theta_max(sample, n)
            h = core.TWO_PI / n
            grid = core.make_grid(n, theta_max / (64 * h * h), 1.0, theta_max)
            ops.append(_march_op(f"{name} N={n}", sample, problem, grid, bounds))
    return ops


# ---------------------------------------------------------------------------
# README commands

README_COMMANDS = (
    "convergence --solution s1 --scheme compact --ns 10,20,50,100 --courant 1",
    "convergence --solution s1 --scheme classic:pointwise --ns 10,20,50,100 --courant 1",
    "richardson --solution s2 --params k:3 --scheme compact --ns 10,20,50,100 --courant 1",
    "cut --solution s1 --cuts 5,6,7,8,9 --ns 10,20,50,100 --courant 1",
    "asymmetry --ns 10,20,50,100 --courant 1",
    "spectrum --solution s1 --n 12 --courant 5 --check",
    "spectrum --n 16 --courant i --check",
    "first-integral --n 50 --courant i --t-final 1",
    "first-integral --ns 25,50,100,200 --courant i --quadrature trapezoid",
    "efficiency --solution s1 --ns 10,20,50 --courant 1",
    "derive-row --solution s1 --n 12 --node 6 --courant 1 --check",
    "convergence --config run.cfg",
)
CONFIG_TEXT = "solution = s2\nparams = k:{k}\nns = 10, 20, 50\ncourant = 1\n"

# CSV columns holding C-norm errors against the manufactured solution
ERROR_COLUMNS = ("error_cnorm", "error_h", "error_extrapolated")
SMALL_COLUMNS = ERROR_COLUMNS + ("amplitude", "s_transition", "s_forcing")
EXACT_COLUMNS = ("N", "steps", "muls_per_step", "cut", "scheme", "coefficient", "index", "step")


def csv_summary(text: str) -> dict:
    """Reference form of a CLI CSV table, one entry per column.

    Spectra are compared as sets, since eigenvalues that tie on the real
    part may swap places under a correct change of arithmetic.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV output")
    header, body = rows[0], rows[1:]
    if header == ["index", "re", "im", "modulus"]:
        return {"eigenvalues": ["set", [[float(r[1]), float(r[2])] for r in body]]}
    out = {}
    for j, col in enumerate(header):
        cells = [r[j] for r in body]
        if col in EXACT_COLUMNS:
            out[col] = ["exact", cells]
        else:
            out[col] = ["small" if col in SMALL_COLUMNS else "rel", [float(c) for c in cells]]
    return out


def _cli_op(label: str, argv: list) -> Op:
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out = {"code": code, "csv": stdout.getvalue(), "stderr": stderr.getvalue()}
        table = csv_summary(out["csv"])
        out["table"] = table
        out["error"] = max(
            (max(table[c][1]) for c in ERROR_COLUMNS if c in table and table[c][1]),
            default=None,
        )
        return out

    def check(out):
        if out["code"] != 0:
            tail = out["stderr"].strip().splitlines()[-1:] or [""]
            return [f"exit code {out['code']}: {tail[0]}"]
        for kind, values in out["table"].values():
            if kind != "exact" and not np.all(np.isfinite(np.asarray(values, dtype=float))):
                return ["non-finite cell in CSV output"]
        return []

    return Op(label, run, check, lambda out: out["table"])


def paper_tables(seed: int, tracer, tmpdir: str, reference_mode: bool = False) -> list:
    """Every README command through ``cpde.cli.main`` in-process.

    The ``--config run.cfg`` command reads its file from ``tmpdir``.  Each
    command's output does not depend on the seed, so all commands are
    compared with the stored reference at every seed.
    """
    rng = random.Random(seed)
    order = list(range(len(README_COMMANDS)))
    if seed != 0:
        rng.shuffle(order)
    ks = (2, 3, 4) if reference_mode else (2 if seed == 0 else rng.randint(2, 4),)
    ops = []
    for i in order:
        argv = README_COMMANDS[i].split()
        if "--config" not in argv:
            ops.append(_cli_op(README_COMMANDS[i], argv))
            continue
        for k in ks:
            path = os.path.join(tmpdir, f"run-k{k}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CONFIG_TEXT.format(k=k))
            label = f"{README_COMMANDS[i]} [k:{k}]"
            ops.append(_cli_op(label, argv[:-1] + [path]))
    return ops


# ---------------------------------------------------------------------------
# dense spectral studies


def _spectrum_op(label, sample, courant, check_spectrum):
    def run():
        grid = _fixed_steps_grid(sample, 400, 1, courant)
        mats = steppers.assemble_compact(sample.problem, grid)
        rep = analysis.spectrum_report(analysis.transition_matrix(mats))
        return {"report": rep}

    def check(out):
        vals = out["report"].eigenvalues
        if not np.all(np.isfinite(vals)):
            return ["non-finite eigenvalue"]
        return check_spectrum(out["report"])

    def summary(out):
        vals = out["report"].eigenvalues
        return {"eigenvalues": ["set", np.stack([vals.real, vals.imag], axis=1).tolist()]}

    return Op(label, run, check, summary)


def _real_contractive(rep):
    # Criterion 9's test for the real kind.  Courant 5 lies far above the
    # negativity threshold bracketed near 1/3, so the negativity flag must
    # be off while the spectrum stays real and inside the unit disc.
    fails = []
    if rep.max_imag_abs > 1e-8 * max(rep.max_modulus, 1e-300):
        fails.append(f"max |Im lambda| = {rep.max_imag_abs:.3e} not negligible")
    if not rep.max_modulus < 1.0:
        fails.append(f"max |lambda| = {rep.max_modulus:.6f} >= 1")
    if rep.all_negative:
        fails.append("negativity flag set above the negativity threshold")
    return fails


def _unimodular(rep):
    dev = float(np.abs(np.abs(rep.eigenvalues) - 1.0).max())
    return [] if dev < 1e-8 else [f"max ||lambda| - 1| = {dev:.3e} >= 1e-8"]


def _asymmetry_op():
    ns = (50, 100, 200, 400)

    def run():
        return {"report": analysis.asymmetry_study(ns, 1.0)}

    def check(out):
        rep = out["report"]
        fails = []
        vals = [v for e in rep.entries for v in (e.s_transition, e.s_forcing)]
        if not np.all(np.isfinite(vals)):
            return ["non-finite asymmetry"]
        for label, got, centre, tol in (
            ("transition", rep.order_transition, ASYM_TRANSITION, ASYM_TRANSITION_TOL),
            ("forcing", rep.order_forcing, ASYM_FORCING, ASYM_FORCING_TOL),
        ):
            if abs(got - centre) > tol:
                fails.append(f"{label} asymmetry order {got:.3f} outside {centre} +- {tol}")
        return fails

    def summary(out):
        rep = out["report"]
        return {
            "s_transition": ["small", [e.s_transition for e in rep.entries]],
            "s_forcing": ["small", [e.s_forcing for e in rep.entries]],
            "orders": ["rel", [rep.order_transition, rep.order_forcing]],
        }

    return Op("asymmetry ns=50,100,200,400", run, check, summary)


def _negativity_op(label, boundary, target):
    def run():
        return {"bracket": analysis.negativity_threshold(_theta, boundary, 100, NEGATIVITY_SCAN)}

    def check(out):
        br = out["bracket"]
        if br.lower is None or br.upper is None or not (br.lower <= target <= br.upper):
            return [f"bracket {br} does not contain {target:.4f}"]
        return []

    def summary(out):
        return {"bracket": ["exact", [out["bracket"].lower, out["bracket"].upper]]}

    return Op(label, run, check, summary)


def dense_spectral(seed: int, tracer, tmpdir: str, reference_mode: bool = False) -> list:
    """Dense transition matrices and their spectra; no long march.

    The asymmetry study at N up to 400, the N = 400 spectra of s1 at
    courant 5 and snll at courant i, and criterion 9's negativity scans at
    N = 100.  Two 16-step marches on the spectral grids give the workload
    its error and stepping figures at a negligible share of its time.
    """
    rng = random.Random(seed)
    scale_real = 1.0 if seed == 0 else 1.0 + rng.uniform(-0.01, 0.01)
    scale_imag = 1.0 if seed == 0 else 1.0 + rng.uniform(-0.01, 0.01)
    c_real, c_imag = 5.0 * scale_real, 1j * scale_imag
    s1 = core.sample_solution("s1")
    snll = core.sample_solution("snll")
    ops = [
        _asymmetry_op(),
        _spectrum_op("spectrum s1 N=400", s1, c_real, _real_contractive),
        _spectrum_op("spectrum snll N=400", snll, c_imag, _unimodular),
        _negativity_op("negativity dirichlet N=100", core.Dirichlet, 1.0 / 3.0),
        _negativity_op("negativity neumann N=100", core.Neumann, 1.0 / 4.0),
    ]
    for sample, courant, bounds in ((s1, c_real, (1e-10, 1e-9)), (snll, c_imag, (1e-13, 1e-11))):
        grid = _fixed_steps_grid(sample, 400, 16, courant)
        problem = tracer.wrap_forcing(sample.problem)
        ops.append(_march_op(f"march {sample.name} N=400 16 steps", sample, problem, grid, bounds))
    return ops


WORKLOADS = {
    "stiff_march": stiff_march,
    "fine_grid": fine_grid,
    "paper_tables": paper_tables,
    "dense_spectral": dense_spectral,
}
