"""Span tracer that wraps cpde's public functions from outside the package.

A Tracer replaces each target function with a wrapper that records one
span per call (name, start, end, parent span, operation id) in flat
in-memory arrays, plus a few counters read from the call's arguments and
result.  Nothing inside ``src/cpde`` changes: the wrappers are installed
on entry and every original is put back on exit.

A name imported with ``from .x import y`` is a separate binding in each
importing module, so a target is patched wherever a ``cpde`` module holds
the original object (steppers holds ``solve_tridiag`` and the fits,
analysis holds ``run`` and ``solve_dense``, cli holds the study
functions, and so on).  ``Tridiag.apply`` is patched on the class.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  The span name's first component is the
# layer, which is always the module the code lives in.
_STUDIES = (
    "convergence_study",
    "richardson_study",
    "richardson",
    "cut_study",
    "efficiency_curve",
    "asymmetry_study",
    "asymmetry",
    "negativity_threshold",
    "transition_matrix",
    "spectrum_report",
    "diagonalization_check",
    "first_integral",
    "first_integral_series",
    "first_integral_drift",
)
FULL_TARGETS = (
    [("core." + f, "cpde.core", f)
     for f in ("sample_solution", "grid_for", "make_grid", "theta_grid_max")]
    + [("theta_fit." + f, "cpde.theta_fit", f)
       for f in ("fit_interior", "fit_boundary_left", "fit_boundary_right")]
    + [("interior." + f, "cpde.interior", f) for f in ("assemble_row", "derive_row_oracle")]
    + [("neumann." + f, "cpde.neumann", f)
       for f in ("build_left_row", "build_right_row", "boundary_oracle")]
    + [("steppers." + f, "cpde.steppers", f)
       for f in ("run", "assemble_compact", "assemble_classic")]
    + [("linalg." + f, "cpde.linalg", f)
       for f in ("solve_tridiag", "solve_dense", "eigenvalues", "null_space_1d")]
    + [("linalg.apply", "cpde.linalg", "Tridiag.apply")]
    + [("analysis." + f, "cpde.analysis", f) for f in _STUDIES]
    + [("cli.main", "cpde.cli", "main")]
)
# The untraced run times only what the end-to-end metrics need: a few
# hundred spans per run, so its cost stays out of the measurement.
FAST_TARGETS = tuple(t for t in FULL_TARGETS if t[0] in (
    "steppers.run", "steppers.assemble_compact", "steppers.assemble_classic"))

LAYERS = ("core", "theta_fit", "interior", "neumann", "steppers", "linalg", "analysis", "cli")
ASSEMBLY = ("steppers.assemble_compact", "steppers.assemble_classic")


def _count_run(counts, args, result):
    grid = args[1]
    counts["steppers.steps"] += result.steps
    counts["steppers.node_steps"] += (grid.n + 1) * result.steps
    counts["steppers.muls"] += result.muls_per_step * result.steps


def _count_tridiag(counts, args, result):
    t = args[0]
    m = t.diag.size
    counts["linalg.solve_tridiag.rows"] += m
    counts["linalg.solve_tridiag.muls"] += result[1]
    # computed, not measured: three bands, the right-hand side and the
    # solution, each touched once (3m-2 + m + m entries)
    counts["linalg.solve_tridiag.bytes"] += (5 * m - 2) * result[0].itemsize


def _count_dense(counts, args, result):
    key = "linalg.solve_dense.max_n"
    counts[key] = max(counts[key], np.shape(args[0])[0])


def _count_forcing(counts, args, result):
    counts["core.forcing.rows"] += max(1, np.size(args[0]))


HOOKS = {
    "steppers.run": _count_run,
    "linalg.solve_tridiag": _count_tridiag,
    "linalg.solve_dense": _count_dense,
    "core.forcing": _count_forcing,
}


def _resolve(dotted: str, attr: str):
    owner = sys.modules[dotted]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Context manager that installs span wrappers and restores the originals.

    ``targets`` is a sequence of (span name, module, attribute) triples;
    the modules must already be imported.  ``trace_forcing`` makes
    ``wrap_forcing`` wrap the forcing callables the benchmark builds.
    """

    def __init__(self, targets=FULL_TARGETS, trace_forcing: bool = True):
        self.targets = tuple(targets)
        self.trace_forcing = trace_forcing
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: defaultdict = defaultdict(int)
        self.current_op = -1
        self._stack = [-1]
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn, errors=()):
        if span_name not in self.names:
            self.names.append(span_name)
        k = self.names.index(span_name)
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack, counts = self._stack, self.counts
        hook = HOOKS.get(span_name)
        clock = time.perf_counter
        tracer = self
        err_key = span_name.split(".")[0] + ".errors"

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(k)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[err_key] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def wrap_forcing(self, problem):
        """The problem with its forcing callable traced as ``core.forcing``."""
        if not self.trace_forcing:
            return problem
        return dataclasses.replace(problem, forcing=self._wrap("core.forcing", problem.forcing))

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        from cpde import linalg

        linalg_errors = (linalg.SingularMatrixError, linalg.RankError,
                         linalg.EigenConvergenceError)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cpde" or n.startswith("cpde."))]
        try:
            for span_name, module, attr in self.targets:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key]
                errors = linalg_errors if span_name.startswith("linalg.") else ()
                wrapper = self._wrap(span_name, original, errors)
                holders = [owner] if isinstance(owner, type) else [
                    m for m in modules if any(v is original for v in vars(m).values())]
                for holder in holders:
                    for binding, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, binding, original))
                            setattr(holder, binding, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            holder, binding, original = self._saved.pop()
            setattr(holder, binding, original)

    # -- results -----------------------------------------------------------

    def spans(self):
        """(names, name index, start, end, parent, op) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.op, dtype=np.int32).copy(),
        )

    def save(self, path):
        names, name, start, end, parent, op = self.spans()
        np.savez(path, names=np.array(names), name=name, start=start, end=end,
                 parent=parent, op=op)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, lo, hi, reach, covered = -1, 0.0, 0.0, 0.0, 0.0
    for c in order.tolist():
        p = int(parent[c])
        if p != current:
            if current >= 0:
                out[current] -= covered
            current, lo, hi = p, start[p], end[p]
            reach, covered = lo, 0.0
        s = max(start[c], reach)
        e = min(end[c], hi)
        if e > s:
            covered += e - s
            reach = e
    if current >= 0:
        out[current] -= covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer counts, self times, rates and shares from one traced pass."""
    names, name, start, end, parent, _ = tracer.spans()
    self_s = self_times(start, end, parent)
    dur = end - start
    calls = {n: int(np.count_nonzero(name == k)) for k, n in enumerate(names)}
    own = {n: float(self_s[name == k].sum()) for k, n in enumerate(names)}
    counts = tracer.counts

    def c(n):
        return calls.get(n, 0)

    def s(*ns):
        return sum(own.get(n, 0.0) for n in ns)

    def layer(prefix):
        return [n for n in names if n.split(".")[0] == prefix]

    tri = dur[name == names.index("linalg.solve_tridiag")] if "linalg.solve_tridiag" in names \
        else np.zeros(0)
    core_fns = [n for n in layer("core") if n != "core.forcing"]
    out = {
        "core.self_s": s(*core_fns),
        "core.forcing.calls": c("core.forcing"),
        "core.forcing.rows_per_call": _ratio(counts["core.forcing.rows"], c("core.forcing")),
        "core.forcing.self_s": s("core.forcing"),
        "theta_fit.calls": sum(c(n) for n in layer("theta_fit")),
        "theta_fit.self_s": s(*layer("theta_fit")),
        "interior.assemble_row.calls": c("interior.assemble_row"),
        "interior.assemble_row.self_s": s("interior.assemble_row"),
        "interior.derive_row_oracle.calls": c("interior.derive_row_oracle"),
        "interior.derive_row_oracle.self_s": s("interior.derive_row_oracle"),
        "neumann.calls": sum(c(n) for n in layer("neumann")),
        "neumann.self_s": s(*layer("neumann")),
        "steppers.assemble.calls": sum(c(n) for n in ASSEMBLY),
        "steppers.assemble.self_s": s(*ASSEMBLY),
        "steppers.run.self_s": s("steppers.run"),
        "steppers.steps": counts["steppers.steps"],
        "steppers.node_steps": counts["steppers.node_steps"],
        "steppers.muls": counts["steppers.muls"],
        "linalg.solve_tridiag.calls": c("linalg.solve_tridiag"),
        "linalg.solve_tridiag.self_s": s("linalg.solve_tridiag"),
        "linalg.solve_tridiag.p50_us": float(np.percentile(tri, 50)) * 1e6 if tri.size else 0.0,
        "linalg.solve_tridiag.p99_us": float(np.percentile(tri, 99)) * 1e6 if tri.size else 0.0,
        "linalg.solve_tridiag.bytes_computed": counts["linalg.solve_tridiag.bytes"],
        "linalg.apply.calls": c("linalg.apply"),
        "linalg.apply.self_s": s("linalg.apply"),
        "linalg.solve_dense.calls": c("linalg.solve_dense"),
        "linalg.solve_dense.self_s": s("linalg.solve_dense"),
        "linalg.solve_dense.max_n": counts["linalg.solve_dense.max_n"],
        "linalg.eigenvalues.calls": c("linalg.eigenvalues"),
        "linalg.eigenvalues.self_s": s("linalg.eigenvalues"),
        "linalg.null_space_1d.calls": c("linalg.null_space_1d"),
        "linalg.null_space_1d.self_s": s("linalg.null_space_1d"),
        "linalg.errors": counts["linalg.errors"],
        "analysis.self_s": s(*layer("analysis")),
        "analysis.first_integral.calls": c("analysis.first_integral"),
        "analysis.first_integral.self_s": s("analysis.first_integral"),
        "cli.main.calls": c("cli.main"),
        "cli.self_s": s(*layer("cli")),
    }
    out["theta_fit.us_per_row"] = _ratio(out["theta_fit.self_s"], out["theta_fit.calls"]) * 1e6
    out["interior.us_per_row"] = _ratio(
        out["interior.assemble_row.self_s"], out["interior.assemble_row.calls"]) * 1e6
    out["steppers.step_overhead_us"] = _ratio(
        out["steppers.run.self_s"], out["steppers.steps"]) * 1e6
    out["linalg.solve_tridiag.ns_per_row"] = _ratio(
        out["linalg.solve_tridiag.self_s"], counts["linalg.solve_tridiag.rows"]) * 1e9
    out["linalg.solve_tridiag.mul_rate"] = _ratio(
        counts["linalg.solve_tridiag.muls"], out["linalg.solve_tridiag.self_s"])
    for prefix in LAYERS:
        out[prefix + ".share"] = _ratio(s(*layer(prefix)), wall_s)
    return out
