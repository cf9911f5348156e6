"""Command-line experiment runner.

Every subcommand writes a CSV table (stdout by default, or --output
FILE) and a short plain-text summary with estimated orders (stderr when
the CSV goes to stdout, stdout otherwise, so the two never interleave).
Floats are printed with 17 significant digits, which makes reruns of
the same configuration byte-identical; summaries repeat the headline
errors in compact mantissa-exponent form (2.36-6) for quick eyeballing.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure
(singular matrix, rank defect, eigensolver breakdown, bad coefficient),
4 threshold violation under --check.

A configuration file of `key = value` lines (# comments allowed) can
drive any subcommand via --config.  A key is any value flag of the
subcommand without the dashes (cuts, n, node, classic-rhs, ...).  A key
that is command-line only (check, config) or that names a flag of another
subcommand exits 2; any other key is ignored with a warning on stderr, a
repeated key keeps its last value, and explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis
from .analysis import (
    Classic,
    Compact,
    asymmetry_study,
    convergence_study,
    cut_study,
    diagonalization_check,
    efficiency_curve,
    finest_pair_order,
    first_integral_drift,
    first_integral_series,
    richardson_study,
    spectrum_report,
    transition_matrix,
)
from .core import ScalarKind, grid_for
from .interior import CUT_FULL, assemble_row, derive_row_oracle, FIELD_NAMES
from .linalg import EigenConvergenceError, RankError, SingularMatrixError
from .neumann import ClassicNeumann, CompactThreePoint, MainTerms, ReducedTwoPoint
from .steppers import ClassicRhsVariant, assemble_compact
from .theta_fit import CoefficientDomainError, fit_interior


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration file


def parse_config(text: str) -> dict:
    """`key = value` lines as a dict of raw strings; a repeated key keeps
    its last value.  Conversion happens at the point of use."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


# ---------------------------------------------------------------------------
# literal parsers


def parse_courant(text) -> complex:
    """Scalar Courant literal; an i suffix marks an imaginary value."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    s = str(text).strip().lower()
    try:
        if s.endswith("i"):
            body = s[:-1]
            if body in ("", "+", "-"):
                body += "1"
            return complex(0.0, float(body))
        return complex(float(s), 0.0)
    except ValueError as exc:
        raise ConfigError(f"bad courant literal {text!r}") from exc


def format_courant(value: complex) -> str:
    if value.imag == 0.0:
        return "%.17g" % value.real
    return "%.17gi" % value.imag


def parse_ns(text: str) -> list:
    try:
        return [int(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad grid-size list {text!r}") from exc


def parse_params(text: Optional[str]) -> dict:
    """Sample parameters as `k:3,a:2.0` (colon pairs, comma separated)."""
    if not text:
        return {}
    out = {}
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ConfigError(f"bad parameter token {tok!r} (want name:value)")
        name, value = tok.split(":", 1)
        name = name.strip()
        value = value.strip()
        try:
            num = int(value)
        except ValueError:
            try:
                num = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad parameter value {value!r}") from exc
        if name in out:
            raise ConfigError(f"parameter {name!r} given twice")
        out[name] = num
    return out


def parse_cut(token: str) -> int:
    tok = str(token).strip()
    if tok == "9+":
        return CUT_FULL
    try:
        return int(tok)
    except ValueError as exc:
        raise ConfigError(f"bad cut level {token!r}") from exc


_NEUMANN_TOKENS = {
    "3pt": CompactThreePoint,
    "compact": CompactThreePoint,
    "reduced": ReducedTwoPoint,
    "2pt": ReducedTwoPoint,
    "main": MainTerms,
}


def parse_scheme(text: Optional[str]):
    """Scheme literal: `compact[:cut=7][,neumann=reduced]` or
    `classic:pointwise[,eps=0.5]` (also threepoint / fivepoint)."""
    s = (text or "compact").strip().lower()
    head, _, opt_str = s.partition(":")
    tokens = [t.strip() for t in opt_str.split(",") if t.strip()]
    options = {}
    flags = []
    for tok in tokens:
        if "=" in tok:
            k, v = tok.split("=", 1)
            options[k.strip()] = v.strip()
        else:
            flags.append(tok)
    if head == "compact":
        if flags:
            raise ConfigError(f"unknown compact option {flags[0]!r}")
        cut = parse_cut(options.pop("cut", "9+"))
        neumann_name = options.pop("neumann", "3pt")
        if neumann_name == "classic":
            variant = ClassicNeumann(float(options.pop("eps", "0.5")))
        elif neumann_name in _NEUMANN_TOKENS:
            variant = _NEUMANN_TOKENS[neumann_name]()
        else:
            raise ConfigError(f"unknown neumann variant {neumann_name!r}")
        if options:
            raise ConfigError(f"unknown compact option {sorted(options)[0]!r}")
        return Compact(cut=cut, neumann=variant)
    if head == "classic":
        rhs_name = flags[0] if flags else options.pop("rhs", "pointwise")
        if len(flags) > 1:
            raise ConfigError(f"unknown classic option {flags[1]!r}")
        try:
            rhs = ClassicRhsVariant(rhs_name)
        except ValueError:
            raise ConfigError(f"unknown classic right-hand side {rhs_name!r}") from None
        eps = float(options.pop("eps", "0.5"))
        if options:
            raise ConfigError(f"unknown classic option {sorted(options)[0]!r}")
        return Classic(rhs=rhs, neumann=ClassicNeumann(eps))
    raise ConfigError(f"unknown scheme {text!r}")


def scheme_label(scheme) -> str:
    if isinstance(scheme, Compact):
        opts = [f"cut={scheme.cut}"] if scheme.cut != CUT_FULL else []
        wall = scheme.neumann
        if isinstance(wall, ClassicNeumann):
            opts.append(f"neumann=classic,eps={wall.epsilon:g}")
        elif not isinstance(wall, CompactThreePoint):
            # the first token that parses to this wall names it
            name = next(k for k, v in _NEUMANN_TOKENS.items() if isinstance(wall, v))
            opts.append(f"neumann={name}")
        return "compact" + (":" + ",".join(opts) if opts else "")
    rhs = scheme.rhs.value
    eps = scheme.neumann.epsilon if isinstance(scheme.neumann, ClassicNeumann) else 0.5
    tail = f",eps={eps:g}" if eps != 0.5 else ""
    return f"classic:{rhs}{tail}"


# ---------------------------------------------------------------------------
# formatting


def g17(value: float) -> str:
    return "%.17g" % float(value)


def mantissa_style(value: float) -> str:
    """Compact mantissa-exponent form: 2.36e-06 prints as 2.36-6."""
    if value == 0.0 or not math.isfinite(value):
        return "%g" % value
    e = math.floor(math.log10(abs(value)))
    m = value / 10.0 ** e
    text = f"{m:.2f}"
    if abs(float(text)) >= 10.0:  # rounding pushed the mantissa over
        m /= 10.0
        e += 1
        text = f"{m:.2f}"
    return f"{text}{e:+d}"


def make_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    def fmt(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return g17(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# Every --check threshold, in one table that tests/test_acceptance.py reads
# too.  A band is (centre, half-width); a bound is one number.
GATES = {
    "compact order": (4.0, 0.5),
    "classic order": (2.0, 0.2),
    "s1 reference order": (3.83, 0.15),
    # the s1 compact errors at N = 10, 20, 50, 100, each within a factor of 2
    "s1 reference errors": (1.58e-2, 1.36e-3, 3.73e-5, 2.36e-6),
    "s1 reference error factor": 2.0,
    "extrapolated classic order": (4.0, 0.2),
    "extrapolated compact order": (6.0, 0.3),
    "cut order": 3.9,  # lower bound
    "transition asymmetry order": (3.62, 0.4),
    "forcing asymmetry order": (5.62, 0.5),
    "unimodularity": 1e-8,  # bound on max ||lambda| - 1|
    "imaginary part": 1e-8,  # bound on max |Im lambda| / max |lambda|
    "drift slope": (4.0, 0.5),
    "row deviation": 1e-8,
}


def _band(label: str, value: float, gate: str, failures: list):
    centre, half = GATES[gate]
    lo, hi = centre - half, centre + half
    if not (lo <= value <= hi):
        failures.append(f"{label} = {value:.4g} outside [{lo:.4g}, {hi:.4g}]")


# ---------------------------------------------------------------------------
# settings and output


def _parse_solution(text: str) -> str:
    name = text.strip().lower()
    return {"neumann-demo": "snll"}.get(name, name)


def _parse_classic_rhs(text: str) -> tuple:
    """(row label, Classic scheme) for a ClassicRhsVariant name, folded to
    lower case as ``parse_scheme`` folds it."""
    try:
        scheme = Classic(rhs=ClassicRhsVariant(text.strip().lower()))
    except ValueError:
        raise ConfigError(f"unknown classic right-hand side {text!r}") from None
    return scheme_label(scheme), scheme


def _parse_cuts(text: str) -> list:
    """(token, level) pairs; the token labels the level's rows."""
    return [(tok, parse_cut(tok)) for tok in (t.strip() for t in text.split(",")) if tok]


_REQUIRED = object()

# value flag -> (parser, default); a default string goes through the parser
# as a given value does, and a None default stays None
_VALUES = {
    "output": (str, None),
    "solution": (_parse_solution, "s1"),
    "params": (parse_params, ""),
    "scheme": (parse_scheme, "compact"),
    "ns": (parse_ns, _REQUIRED),
    "n": (int, _REQUIRED),
    "node": (int, None),  # derive-row takes max(1, n // 2)
    "courant": (parse_courant, "1"),
    "t-final": (float, "1"),
    "cuts": (_parse_cuts, "5,6,7,8,9,9+"),
    "quadrature": (str, "trapezoid"),
    "classic-rhs": (_parse_classic_rhs, "pointwise"),
}

# (subcommand, flag) -> default, where a subcommand's default differs
_DEFAULTS = {
    ("spectrum", "solution"): "neumann-demo",
    ("first-integral", "courant"): "i",
    ("first-integral", "n"): None,  # one of n and ns is required
    ("first-integral", "ns"): None,
    ("asymmetry", "t-final"): None,
}


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """check, and every value flag of the subcommand parsed once: the
    command-line value, else the config-file value, else the default.
    A flag's attribute has underscores for dashes (t_final)."""
    raw = {}
    flags = ("output",) + _COMMANDS[args.command][2]
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config(fh.read())
        for key in raw:
            if key in _COMMAND_LINE_ONLY:
                raise ConfigError(f"config key {key!r} can only be given on the command line")
            if key not in flags:
                if any(key in spec[2] for spec in _COMMANDS.values()):
                    raise ConfigError(f"config key {key!r} is not a setting of {args.command}")
                print(f"warning: config key {key!r} ignored", file=sys.stderr)
    settings = argparse.Namespace(check=args.check)
    for flag in flags:
        name = flag.replace("-", "_")
        parser, default = _VALUES[flag]
        value = getattr(args, name)
        if value is None:
            value = raw.get(flag, _DEFAULTS.get((args.command, flag), default))
        if value is _REQUIRED:
            raise ConfigError(f"missing required setting {flag!r}")
        setattr(settings, name, None if value is None else parser(value))
    return settings


def _emit(csv_text: str, summary_lines: list, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        stream = sys.stdout
    else:
        sys.stdout.write(csv_text)
        stream = sys.stderr
    for line in summary_lines:
        print(line, file=stream)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_convergence(s: argparse.Namespace) -> tuple:
    rep = convergence_study(s.solution, s.params, s.scheme, s.ns, s.courant, s.t_final)
    rows = [
        (e.n, e.h, e.tau, e.steps, e.error, e.muls_per_step) for e in rep.entries
    ]
    csv_text = make_csv(["N", "h", "tau", "steps", "error_cnorm", "muls_per_step"], rows)
    summary = [f"convergence: {s.solution} {scheme_label(s.scheme)} courant={format_courant(s.courant)}"]
    for e in rep.entries:
        summary.append(
            f"  N={e.n:<4d} error={g17(e.error)} ({mantissa_style(e.error)}) muls/step={e.muls_per_step}"
        )
    summary.append(
        f"  estimated order = {rep.estimated_order:.2f} (least squares {rep.lsq_order:.2f})"
    )
    failures = []
    if s.check:
        if isinstance(s.scheme, Compact) and s.scheme.cut == CUT_FULL:
            _band("compact order", rep.estimated_order, "compact order", failures)
        elif isinstance(s.scheme, Classic):
            # an asymptotic rate: the coarse grids of a complex run are pre-asymptotic
            order = finest_pair_order([e.n for e in rep.entries], [e.error for e in rep.entries])
            _band("classic order (finest pair)", order, "classic order", failures)
        else:
            _band("truncated compact order", rep.estimated_order, "compact order", failures)
        if (
            s.solution == "s1"
            and isinstance(s.scheme, Compact)
            and s.scheme.cut == CUT_FULL
            and s.courant == 1.0
            and tuple(sorted(s.ns)) == (10, 20, 50, 100)
        ):
            _band("order (reference row)", rep.estimated_order, "s1 reference order", failures)
            fac = GATES["s1 reference error factor"]
            for e, ref in zip(rep.entries, GATES["s1 reference errors"]):
                if not (ref / fac <= e.error <= ref * fac):
                    failures.append(
                        f"N={e.n} error {e.error:.3e} outside factor {fac:g} of {ref:.3e}"
                    )
    return csv_text, summary, failures


def _cmd_richardson(s: argparse.Namespace) -> tuple:
    rep = richardson_study(s.solution, s.params, s.scheme, s.ns, s.courant, s.t_final)
    rows = [(e.n, e.h, e.error_h, e.error_extrapolated) for e in rep.entries]
    csv_text = make_csv(["N", "h", "error_h", "error_extrapolated"], rows)
    summary = [f"richardson: {s.solution} {scheme_label(s.scheme)}"]
    for e in rep.entries:
        summary.append(
            f"  N={e.n:<4d} error={mantissa_style(e.error_h)} extrapolated={mantissa_style(e.error_extrapolated)}"
        )
    summary.append(
        f"  orders: plain = {rep.order_h:.2f}, extrapolated = {rep.order_extrapolated:.2f}"
    )
    failures = []
    if s.check:
        order = finest_pair_order([e.n for e in rep.entries],
                                  [e.error_extrapolated for e in rep.entries])
        if isinstance(s.scheme, Classic):
            _band("extrapolated classic order (finest pair)", order,
                  "extrapolated classic order", failures)
        else:
            _band("extrapolated compact order (finest pair)", order,
                  "extrapolated compact order", failures)
    return csv_text, summary, failures


def _cmd_cut(s: argparse.Namespace) -> tuple:
    levels = [cut for _, cut in s.cuts]
    reports = cut_study(s.solution, s.params, s.ns, s.courant, s.t_final, levels)
    rows = []
    summary = [f"cut study: {s.solution}"]
    failures = []
    for token, cut in s.cuts:
        rep = reports[cut]
        rows += [(token, e.n, e.h, e.tau, e.steps, e.error, e.muls_per_step) for e in rep.entries]
        errs = " ".join(mantissa_style(e.error) for e in rep.entries)
        summary.append(f"  cut={token:<3} order={rep.estimated_order:.2f} errors: {errs}")
        if s.check and cut >= 5:
            order = finest_pair_order([e.n for e in rep.entries], [e.error for e in rep.entries])
            floor = GATES["cut order"]
            if order < floor:
                failures.append(f"cut={token} finest-pair order {order:.2f} < {floor}")
    csv_text = make_csv(["cut", "N", "h", "tau", "steps", "error_cnorm", "muls_per_step"], rows)
    return csv_text, summary, failures


def _cmd_asymmetry(s: argparse.Namespace) -> tuple:
    rep = asymmetry_study(s.ns, s.courant, t_final=s.t_final)
    rows = [(e.n, e.h, e.tau, e.s_transition, e.s_forcing) for e in rep.entries]
    csv_text = make_csv(["N", "h", "tau", "s_transition", "s_forcing"], rows)
    summary = ["asymmetry decay (Dirichlet interior, compact scheme)"]
    for e in rep.entries:
        summary.append(
            f"  N={e.n:<4d} S_transition={mantissa_style(e.s_transition)} S_forcing={mantissa_style(e.s_forcing)}"
        )
    summary.append(
        f"  orders: transition = {rep.order_transition:.2f}, forcing = {rep.order_forcing:.2f}"
    )
    failures = []
    if s.check:
        _band("transition asymmetry order", rep.order_transition,
              "transition asymmetry order", failures)
        _band("forcing asymmetry order", rep.order_forcing, "forcing asymmetry order", failures)
    return csv_text, summary, failures


def _cmd_spectrum(s: argparse.Namespace) -> tuple:
    sample = analysis._resolve_sample(s.solution, s.params, s.courant)
    grid = analysis._matrix_grid(s.n, s.courant, sample.problem.theta)
    mats = assemble_compact(sample.problem, grid)
    m = transition_matrix(mats)
    rep = spectrum_report(m)
    rows = [
        (k, v.real, v.imag, abs(v)) for k, v in enumerate(rep.eigenvalues)
    ]
    csv_text = make_csv(["index", "re", "im", "modulus"], rows)
    is_ll = sample.problem.kind is ScalarKind.COMPLEX
    summary = [
        f"spectrum: {s.solution} N={s.n} courant={format_courant(s.courant)} size={len(rep.eigenvalues)}",
        f"  max |lambda| = {g17(rep.max_modulus)}",
        f"  max |Im lambda| = {g17(rep.max_imag_abs)}",
        f"  negativity criterion (A_new^-1 A_old): {'yes' if rep.all_negative else 'no'}",
        f"  diagonalization: {diagonalization_check(m, vals=rep.eigenvalues)}",
    ]
    if is_ll:
        # M = (2 + iK)^-1 (2 - iK) with K real: unimodular iff every mu is real
        defect = rep.generator_imag_abs
        summary.append("  max |Im mu| (real generator) = "
                       + ("n/a (no real generator)" if defect is None else g17(defect)))
    failures = []
    if s.check:
        if is_ll:
            dev = float(np.abs(np.abs(rep.eigenvalues) - 1.0).max())
            if dev > GATES["unimodularity"]:
                failures.append(f"max ||lambda|-1| = {dev:.3e} > {GATES['unimodularity']:g}")
        else:
            if rep.max_modulus >= 1.0:
                failures.append(f"max |lambda| = {rep.max_modulus:.6f} >= 1")
            if rep.max_imag_abs > GATES["imaginary part"] * max(rep.max_modulus, 1e-300):
                failures.append(f"max |Im lambda| = {rep.max_imag_abs:.3e} not negligible")
    return csv_text, summary, failures


def _cmd_first_integral(s: argparse.Namespace) -> tuple:
    if s.ns is not None and s.n is not None:
        raise ConfigError("give n (one run) or ns (several runs), not both")
    failures = []
    if s.ns is not None:
        rep = first_integral_drift(s.ns, s.courant, s.t_final, s.quadrature)
        rows = [(e.n, e.h, e.baseline, e.amplitude) for e in rep.entries]
        csv_text = make_csv(["N", "h", "integral_t0", "amplitude"], rows)
        summary = [f"first-integral drift ({s.quadrature})"]
        for e in rep.entries:
            summary.append(f"  N={e.n:<4d} amplitude={mantissa_style(e.amplitude)}")
        summary.append(f"  amplitude slope = {rep.slope:.2f}")
        if s.check:
            _band("amplitude slope", rep.slope, "drift slope", failures)
    elif s.n is None:
        raise ConfigError("missing required setting 'n'")
    else:
        series = first_integral_series(s.n, s.courant, s.t_final, s.quadrature)
        csv_text = make_csv(["step", "t", "integral"], series)
        vals = [v for _, _, v in series]
        spread = max(vals) - min(vals)
        summary = [
            f"first-integral history ({s.quadrature}) N={s.n} steps={len(series) - 1}",
            f"  I(0) = {g17(vals[0])}",
            f"  spread = {g17(spread)} ({mantissa_style(spread) if spread else '0'})",
        ]
    return csv_text, summary, failures


def _cmd_efficiency(s: argparse.Namespace) -> tuple:
    schemes = [("compact", Compact()), s.classic_rhs]
    results = efficiency_curve(s.solution, s.params, schemes, s.ns, s.courant, s.t_final)
    rows = []
    for label, rep in results:
        for e in rep.entries:
            rows.append((label, e.n, e.h, e.muls_per_step, e.error))
    csv_text = make_csv(["scheme", "N", "h", "muls_per_step", "error_cnorm"], rows)
    summary = [f"efficiency: {s.solution}"]
    for label, rep in results:
        pts = " ".join(
            f"({e.muls_per_step}, {mantissa_style(e.error)})" for e in rep.entries
        )
        summary.append(f"  {label}: {pts}")
    failures = []
    if s.check:
        (_, compact_rep), (_, classic_rep) = results
        for ce in compact_rep.entries:
            if ce.n < 20:
                continue
            budget = ce.muls_per_step
            rivals = [e.error for e in classic_rep.entries if e.muls_per_step <= budget]
            if rivals and min(rivals) <= ce.error:
                failures.append(
                    f"compact N={ce.n} error {ce.error:.3e} not below classic "
                    f"{min(rivals):.3e} at budget {budget}"
                )
    return csv_text, summary, failures


def _cmd_derive_row(s: argparse.Namespace) -> tuple:
    sample = analysis._resolve_sample(s.solution, s.params, s.courant)
    grid = grid_for(sample, s.n, s.courant, s.t_final)
    node = max(1, s.n // 2) if s.node is None else s.node
    if not (1 <= node <= s.n - 1):
        raise ConfigError(f"node must be an interior index in 1..{s.n - 1}, got {node}")
    x_j = float(grid.x[node])
    fit = fit_interior(sample.problem.theta, x_j, grid.h)
    kappa = sample.problem.kind.kappa
    nu = kappa * fit.theta_center * grid.tau / (grid.h * grid.h)
    assembled = assemble_row(fit, nu, grid.h).as_array()
    oracle = derive_row_oracle(fit, nu, grid.h, grid.tau).as_array()
    scale = complex(np.vdot(assembled, oracle) / np.vdot(assembled, assembled))
    residual = float(np.abs(oracle - scale * assembled).max() / np.abs(oracle).max())
    rows = [
        (name, a.real, a.imag, o.real, o.imag)
        for name, a, o in zip(FIELD_NAMES, assembled, oracle)
    ]
    csv_text = make_csv(
        ["coefficient", "assembled_re", "assembled_im", "derived_re", "derived_im"], rows
    )
    summary = [
        f"derive-row: {s.solution} N={s.n} node={node} x={g17(x_j)}",
        f"  proportionality factor = {g17(scale.real)} + {g17(scale.imag)}j",
        f"  max relative deviation = {mantissa_style(residual)}",
    ]
    failures = []
    if s.check and residual > GATES["row deviation"]:
        failures.append(f"row deviation {residual:.3e} > {GATES['row deviation']:g}")
    return csv_text, summary, failures


_COMMON_FLAGS = ("config", "output", "check")
_COMMAND_LINE_ONLY = ("config", "check")

# subcommand -> (handler, help line, flags beyond the common three)
_COMMANDS = {
    "convergence": (_cmd_convergence, "C-norm error versus grid size",
                    ("solution", "params", "scheme", "ns", "courant", "t-final")),
    "richardson": (_cmd_richardson, "extrapolated error versus grid size",
                   ("solution", "params", "scheme", "ns", "courant", "t-final")),
    "cut": (_cmd_cut, "convergence under coefficient truncation",
            ("solution", "params", "ns", "courant", "t-final", "cuts")),
    "asymmetry": (_cmd_asymmetry, "transition/forcing asymmetry decay",
                  ("ns", "courant", "t-final")),
    "spectrum": (_cmd_spectrum, "transition-matrix eigenvalues",
                 ("solution", "params", "n", "courant")),
    "first-integral": (_cmd_first_integral, "discrete first-integral history/drift",
                       ("n", "ns", "quadrature", "courant", "t-final")),
    "efficiency": (_cmd_efficiency, "error against per-step cost for both schemes",
                   ("solution", "params", "ns", "courant", "t-final", "classic-rhs")),
    "derive-row": (_cmd_derive_row, "dump assembled vs derived row at one node",
                   ("solution", "params", "n", "node", "courant", "t-final")),
}

# help texts by flag, or by (subcommand, flag) where one subcommand differs;
# _build_parser adds each flag's default from _VALUES and _DEFAULTS
_HELP = {
    "config": "key = value settings file",
    "output": "CSV destination; stdout when not given",
    "check": "fail (exit 4) on threshold violations",
    "cuts": "comma list of distinct levels from 4..10; 9+ is 10, the full row",
    "quadrature": "trapezoid or simpson",
    "classic-rhs": ", ".join(v.value for v in ClassicRhsVariant),
    ("asymmetry", "t-final"): "optional horizon; omit for the raw one-step tau",
    ("first-integral", "n"): "single run: per-step history",
    ("first-integral", "ns"): "several runs: drift amplitudes",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cpde", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in _COMMON_FLAGS + flags:
            text = _HELP.get((name, flag), _HELP.get(flag))
            default = _DEFAULTS.get((name, flag), _VALUES.get(flag, (None, None))[1])
            if isinstance(default, str) and default:
                text = f"{text} (default {default})" if text else f"default {default}"
            if flag == "check":
                p.add_argument("--check", action="store_true", help=text)
            else:
                # no argparse default, so a config-file value is never hidden
                p.add_argument("--" + flag, default=None, help=text)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        settings = _settings(args)
        csv_text, summary, failures = _COMMANDS[args.command][0](settings)
        _emit(csv_text, summary, settings.output)
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        return 4 if failures else 0
    except (SingularMatrixError, RankError, EigenConvergenceError,
            CoefficientDomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
