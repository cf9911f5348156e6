import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpde.cli import (
    ConfigError,
    format_courant,
    g17,
    main,
    make_csv,
    mantissa_style,
    parse_config,
    parse_courant,
    parse_cut,
    parse_ns,
    parse_params,
    parse_scheme,
    scheme_label,
)
from cpde import cli, steppers
from cpde.interior import CUT_FULL
from cpde.linalg import Tridiag
from cpde.neumann import (
    ClassicNeumann,
    CompactThreePoint,
    MainTerms,
    ReducedTwoPoint,
)
from cpde.steppers import Classic, ClassicRhsVariant, Compact


# ---------------------------------------------------------------------------
# literal parsers


def test_parse_courant_real_and_imaginary():
    assert parse_courant("1") == 1.0 + 0.0j
    assert parse_courant(" 2.5 ") == 2.5 + 0.0j
    assert parse_courant("i") == 1j
    assert parse_courant("I") == 1j
    assert parse_courant("100i") == 100j
    assert parse_courant("-i") == -1j
    assert parse_courant("+i") == 1j
    assert parse_courant("-0.5i") == -0.5j
    assert parse_courant(3) == 3.0 + 0.0j
    assert parse_courant(2j) == 2j


def test_parse_courant_rejects_garbage():
    for bad in ("abc", "1+2j", "", "ii"):
        with pytest.raises(ConfigError):
            parse_courant(bad)


def test_format_courant_round_trip():
    for v in (1.0, -2.5, 100.0, 1j, -1j, 100j, 0.3j):
        assert parse_courant(format_courant(complex(v))) == complex(v)


def test_parse_ns():
    assert parse_ns("10,20, 50") == [10, 20, 50]
    assert parse_ns("8") == [8]
    with pytest.raises(ConfigError):
        parse_ns("10,twenty")


def test_parse_params():
    assert parse_params(None) == {}
    assert parse_params("") == {}
    got = parse_params("k:3, a:2.5")
    assert got == {"k": 3, "a": 2.5}
    assert isinstance(got["k"], int)
    with pytest.raises(ConfigError, match="name:value"):
        parse_params("k=3")
    with pytest.raises(ConfigError, match="value"):
        parse_params("k:three")
    with pytest.raises(ConfigError, match="parameter 'k' given twice"):
        parse_params("k:2, k:3")


def test_parse_cut():
    assert parse_cut("9+") == CUT_FULL
    assert parse_cut(" 7 ") == 7
    with pytest.raises(ConfigError):
        parse_cut("full")


def test_parse_scheme_compact_variants():
    assert parse_scheme(None) == Compact()
    assert parse_scheme("compact") == Compact()
    assert parse_scheme("compact:cut=7") == Compact(cut=7)
    assert parse_scheme("compact:neumann=reduced") == Compact(neumann=ReducedTwoPoint())
    assert parse_scheme("compact:neumann=2pt") == Compact(neumann=ReducedTwoPoint())
    assert parse_scheme("compact:neumann=main") == Compact(neumann=MainTerms())
    got = parse_scheme("compact:neumann=classic,eps=0.8")
    assert got == Compact(neumann=ClassicNeumann(0.8))
    both = parse_scheme("compact:cut=6,neumann=reduced")
    assert both == Compact(cut=6, neumann=ReducedTwoPoint())


def test_parse_scheme_classic_variants():
    assert parse_scheme("classic") == Classic()
    assert parse_scheme("classic:pointwise") == Classic()
    assert parse_scheme("classic:threepoint") == Classic(rhs=ClassicRhsVariant.THREE_POINT)
    got = parse_scheme("classic:fivepoint,eps=0.8")
    assert got.rhs is ClassicRhsVariant.FIVE_POINT
    assert got.neumann == ClassicNeumann(0.8)


def test_parse_scheme_rejects_unknown_tokens():
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_scheme("spectral")
    with pytest.raises(ConfigError, match="unknown compact option"):
        parse_scheme("compact:fast")
    with pytest.raises(ConfigError, match="unknown compact option"):
        parse_scheme("compact:color=red")
    with pytest.raises(ConfigError, match="neumann variant"):
        parse_scheme("compact:neumann=magic")
    with pytest.raises(ConfigError, match="right-hand side"):
        parse_scheme("classic:sixpoint")
    with pytest.raises(ConfigError, match="unknown classic option"):
        parse_scheme("classic:pointwise,color=red")


def test_scheme_label_round_trip():
    schemes = [
        Compact(),
        Compact(cut=7),
        Compact(neumann=ReducedTwoPoint()),
        Compact(neumann=MainTerms()),
        Compact(cut=5, neumann=ClassicNeumann(0.8)),
        Classic(),
        Classic(rhs=ClassicRhsVariant.THREE_POINT),
        Classic(rhs=ClassicRhsVariant.FIVE_POINT, neumann=ClassicNeumann(0.8)),
    ]
    for s in schemes:
        assert parse_scheme(scheme_label(s)) == s
    assert scheme_label(Compact()) == "compact"
    assert scheme_label(Classic()) == "classic:pointwise"


# ---------------------------------------------------------------------------
# formatting


def test_mantissa_style():
    assert mantissa_style(2.36e-6) == "2.36-6"
    assert mantissa_style(1.58e-2) == "1.58-2"
    assert mantissa_style(1.0) == "1.00+0"
    assert mantissa_style(-2.5e3) == "-2.50+3"
    assert mantissa_style(0.0) == "0"
    # rounding that carries the mantissa past ten
    assert mantissa_style(9.999e-3) == "1.00-2"


def test_g17_round_trips_floats():
    for v in (2.36e-6, 1.0 / 3.0, 6.283185307179586):
        assert float(g17(v)) == v


def test_make_csv_value_formatting():
    text = make_csv(["a", "b", "c", "d"], [(1, 0.5, True, "x")])
    assert text == "a,b,c,d\n1,0.5,1,x\n"
    assert float(make_csv(["v"], [(1.0 / 3.0,)]).splitlines()[1]) == 1.0 / 3.0


# ---------------------------------------------------------------------------
# config files


def test_parse_config_comments_and_extras():
    text = """
# full experiment block
experiment = convergence
solution = s1   # trailing comment
ns = 10,20

threads = 2
"""
    assert parse_config(text) == {
        "experiment": "convergence",
        "solution": "s1",
        "ns": "10,20",
        "threads": "2",
    }
    assert parse_config("ns = 8\nns = 16\n") == {"ns": "16"}


def test_parse_config_reports_line_number():
    with pytest.raises(ConfigError, match="config line 3"):
        parse_config("solution = s1\n\njust words\n")


# ---------------------------------------------------------------------------
# main() end to end


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_convergence_csv_and_summary(capsys):
    rc, out, err = run_main(
        capsys,
        ["convergence", "--solution", "s1", "--scheme", "compact",
         "--ns", "8,16", "--courant", "1"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,h,tau,steps,error_cnorm,muls_per_step"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "8" and first[5] == str(8 * 8 + 2)
    assert "estimated order" in err


def test_output_file_and_deterministic_rerun(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["convergence", "--solution", "s1", "--ns", "8,16", "--courant", "1"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"N,h,tau,steps,")


def test_config_file_drives_a_run(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "solution = s1\nscheme = compact\nns = 8,16\ncourant = 1\n"
        f"output = {out_csv}\n"
    )
    rc, _, _ = run_main(capsys, ["convergence", "--config", str(cfg)])
    assert rc == 0
    assert out_csv.read_text().startswith("N,h,tau,steps,")


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("solution = nonsense\nns = 8,16\n")
    rc, _, err = run_main(
        capsys, ["convergence", "--config", str(cfg), "--solution", "s1"]
    )
    assert rc == 0


@pytest.mark.parametrize("key", ["check", "config"])
def test_exit_2_on_command_line_only_config_key(tmp_path, capsys, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"solution = s1\nns = 8,16\n{key} = 1\n")
    rc, out, err = run_main(capsys, ["convergence", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert f"config key '{key}' can only be given on the command line" in err


def test_exit_2_on_config_key_of_another_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("solution = s1\nns = 8,16\ncuts = 5\n")
    rc, out, err = run_main(capsys, ["convergence", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "config key 'cuts' is not a setting of convergence" in err


def test_unknown_config_keys_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = convergence\nsolution = s1\nns = 8,16\n")
    rc, _, _ = run_main(capsys, ["convergence", "--config", str(cfg)])
    assert rc == 0


def test_config_key_of_no_subcommand_warns_and_changes_nothing(tmp_path, capsys):
    base = "solution = s1\nns = 8,16\n"
    plain, typo = tmp_path / "plain.cfg", tmp_path / "typo.cfg"
    plain.write_text(base)
    typo.write_text(base + "cut = 5\n")
    rc0, out0, err0 = run_main(capsys, ["convergence", "--config", str(plain)])
    rc, out, err = run_main(capsys, ["convergence", "--config", str(typo)])
    assert rc == rc0 == 0
    assert out == out0
    assert err.splitlines() == ["warning: config key 'cut' ignored"] + err0.splitlines()


def test_exit_2_on_a_repeated_parameter(capsys):
    rc, out, err = run_main(
        capsys, ["convergence", "--solution", "s2", "--params", "k:2,k:3", "--ns", "8,16"]
    )
    assert rc == 2
    assert out == ""
    assert "parameter 'k' given twice" in err


def test_exit_2_on_unknown_solution(capsys):
    rc, _, err = run_main(capsys, ["convergence", "--solution", "zz", "--ns", "8,16"])
    assert rc == 2
    assert "configuration error" in err


@pytest.mark.parametrize("solution,params,reason", [
    ("s1", "bogus:3", "unknown parameter 'bogus'"),
    ("neumann-demo", "k:2", "unknown parameter 'k' for sample 'snll'"),
    ("s2", "k:2.5", "k must be an integer"),
    ("s3", "omega:nan", "omega must be finite"),
    ("s3", "a:inf", "a must be finite"),
])
def test_exit_2_on_sample_parameters_it_cannot_honour(capsys, solution, params, reason):
    rc, out, err = run_main(
        capsys, ["convergence", "--solution", solution, "--params", params, "--ns", "8,16"]
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("configuration error") and reason in err


def test_exit_2_on_missing_required_setting(capsys):
    rc, _, err = run_main(capsys, ["convergence", "--solution", "s1"])
    assert rc == 2
    assert "missing required setting" in err


# one (text, typed value) per value flag; config lines are stripped, so
# none of these texts has surrounding blanks
FLAG_VALUES = {
    "output": ("out.csv", "out.csv"),
    "solution": ("Neumann-Demo", "snll"),
    "params": ("k:3,a:2.5", {"k": 3, "a": 2.5}),
    "scheme": ("compact:cut=7", Compact(cut=7)),
    "ns": ("10, 20", [10, 20]),
    "n": ("12", 12),
    "node": ("3", 3),
    "courant": ("2i", 2j),
    "t-final": ("0.5", 0.5),
    "cuts": ("5, 9+", [("5", 5), ("9+", CUT_FULL)]),
    "quadrature": ("simpson", "simpson"),
    "classic-rhs": ("threepoint",
                    ("classic:threepoint", Classic(rhs=ClassicRhsVariant.THREE_POINT))),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_value_flag_parses_alike_from_config_and_command_line(tmp_path, capsys, command):
    flags = ("output",) + cli._COMMANDS[command][2]
    required = "n" if "n" in flags else "ns"
    rc, out, err = run_main(capsys, [command])
    assert rc == 2 and out == ""
    assert err == f"configuration error: missing required setting {required!r}\n"
    parser = cli._build_parser()
    for flag in flags:
        text, typed = FLAG_VALUES[flag]
        base = [command] if flag == required else [command, "--" + required, FLAG_VALUES[required][0]]
        cfg = tmp_path / f"{flag}.cfg"
        cfg.write_text(f"{flag} = {text}\n")
        name = flag.replace("-", "_")
        from_argv = getattr(cli._settings(parser.parse_args(base + ["--" + flag, text])), name)
        from_file = getattr(cli._settings(parser.parse_args(base + ["--config", str(cfg)])), name)
        assert from_argv == from_file == typed, flag
        assert type(from_argv) is type(from_file) is type(typed), flag


def test_exit_2_on_missing_config_file(capsys):
    rc, _, err = run_main(
        capsys, ["convergence", "--config", "/nonexistent/exp.cfg", "--ns", "8"]
    )
    assert rc == 2
    assert "i/o error" in err


@pytest.mark.parametrize("flag,value", [("courant", "inf"), ("courant", "nan"),
                                        ("t-final", "inf"), ("t-final", "nan")])
def test_exit_2_on_non_finite_grid_input(capsys, flag, value):
    rc, out, err = run_main(
        capsys, ["convergence", "--solution", "s1", "--ns", "8,16", "--" + flag, value]
    )
    assert rc == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["convergence", "--solution", "s1", "--ns", "10,20", "--courant=-1"],
    ["convergence", "--solution", "s1", "--ns", "10,20", "--courant=-1i"],
    ["spectrum", "--solution", "s1", "--n", "12", "--courant=-5"],
])
def test_exit_2_on_negative_courant(capsys, argv):
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "negative" in err


def test_exit_3_on_a_numerically_singular_step(capsys, monkeypatch):
    """A_new with a pivot of 1e-16 of its scale: the probe's sweep rejects it."""
    import dataclasses

    from cpde import cli, steppers
    from cpde.linalg import Tridiag

    def near_singular(*args, **kwargs):
        mats = steppers.assemble_compact(*args, **kwargs)
        solver = mats._solver
        diag = solver.diag.copy()
        diag[0] = 1e-16 * np.abs(diag).max()
        return dataclasses.replace(mats, _solver=Tridiag(solver.lower, diag, solver.upper))

    monkeypatch.setattr(cli, "assemble_compact", near_singular)
    rc, _, err = run_main(capsys, ["spectrum", "--solution", "s1", "--n", "12", "--courant", "1"])
    assert rc == 3
    assert "at row 0 is below 1e-14" in err


def test_exit_3_on_numerical_failure(capsys):
    # theta = exp(300 x) overflows on the grid before any stepping
    rc, _, err = run_main(
        capsys,
        ["convergence", "--solution", "s3", "--params", "a:300", "--ns", "8,16"],
    )
    assert rc == 3
    assert "numerical failure" in err
    assert "not finite" in err


def test_blow_up_exits_3_with_one_line_and_no_numpy_warning(capsys):
    """The classic scheme with an eps = 0.3 Neumann wall grows without bound
    on the closed form's powers of G: the march reports it as a numerical
    failure, and numpy's overflow warnings (errors here) stay out."""
    rc, _, err = run_main(capsys, ["convergence", "--solution", "sn", "--scheme",
                                   "classic:pointwise,eps=0.3", "--ns", "10,160", "--courant", "1"])
    assert rc == 3
    assert err.splitlines() == [
        "numerical failure: state became non-finite between steps 1 and 1297"]


def test_exit_4_on_check_violation(capsys):
    # N=4 and 8 are far from asymptotic: the extrapolated order is 2.63
    # under either estimator
    rc, _, err = run_main(
        capsys,
        ["richardson", "--solution", "s2", "--params", "k:2", "--scheme",
         "compact", "--ns", "4,8", "--courant", "1", "--check"],
    )
    assert rc == 4
    assert "CHECK FAILED" in err
    assert "extrapolated compact order" in err


def test_richardson_check_passes_on_reference_run(capsys):
    # the k=4 extrapolated row sits at 5.37 over N=10..100 but 6.01 on
    # the finest pair
    rc, _, err = run_main(
        capsys,
        ["richardson", "--solution", "s2", "--params", "k:4", "--scheme",
         "compact", "--ns", "10,20,50,100", "--courant", "1", "--check"],
    )
    assert rc == 0, err


def test_cut_four_is_exempt_from_check(capsys):
    rc, out, _ = run_main(
        capsys, ["cut", "--solution", "s1", "--ns", "8,16", "--cuts", "4", "--check"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "cut,N,h,tau,steps,error_cnorm,muls_per_step"


def test_cut_check_passes_on_reference_run(capsys):
    # cut=5 sits at 3.78 over N=10..100 but 3.97 on the finest pair
    rc, _, err = run_main(
        capsys,
        ["cut", "--solution", "s1", "--cuts", "5,6,7,8,9", "--ns", "10,20,50,100",
         "--courant", "1", "--check"],
    )
    assert rc == 0, err


def test_first_integral_drift_check_passes(capsys):
    rc, _, err = run_main(
        capsys,
        ["first-integral", "--ns", "25,50,100,200", "--courant", "i",
         "--quadrature", "trapezoid", "--check"],
    )
    assert rc == 0, err
    assert "amplitude slope = 4.02" in err


def test_spectrum_default_is_neumann_demo(capsys):
    rc, out, err = run_main(capsys, ["spectrum", "--n", "16", "--courant", "i", "--check"])
    assert rc == 0
    assert out.splitlines()[0] == "index,re,im,modulus"
    # Neumann keeps every node: n + 1 eigenvalue rows
    assert len(out.splitlines()) == 18
    assert "diagonalization: ok" in err
    # the complex kind's spectrum came from the real generator K, with real mu
    line = next(ln for ln in err.splitlines() if "max |Im mu| (real generator) = " in ln)
    assert float(line.split("= ")[1]) < 1e-8


@pytest.mark.parametrize("argv, size", [(["--n", "16", "--courant", "i"], 17),
                                        (["--solution", "s1", "--n", "12", "--courant", "5"], 11)])
def test_spectrum_makes_one_real_eigensolve_per_block(capsys, monkeypatch, argv, size):
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a):
            calls.append((name, np.iscomplexobj(a), a.shape[0]))
            return solver(a)

        return call

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    rc, _, err = run_main(capsys, ["spectrum"] + argv)
    assert rc == 0 and "diagonalization: ok" in err
    # both README grids are mirror-symmetric: one real eigensolve per half-size
    # block, of K's blocks for the complex kind and of M's for the real
    assert [name for name, _, _ in calls] == ["eigvals", "eigvals"]
    assert not any(is_complex for _, is_complex, _ in calls)
    assert sum(n for _, _, n in calls) == size


def test_spectrum_real_diffusion_check(capsys):
    rc, out, err = run_main(
        capsys, ["spectrum", "--solution", "s1", "--n", "12", "--courant", "5", "--check"]
    )
    assert rc == 0
    assert "negativity criterion" in err
    assert "Im mu" not in err


def test_first_integral_history(capsys):
    rc, out, err = run_main(
        capsys, ["first-integral", "--n", "8", "--t-final", "0.1"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "step,t,integral"
    assert "I(0)" in err


def test_first_integral_drift_mode(capsys):
    rc, out, err = run_main(
        capsys, ["first-integral", "--ns", "8,16", "--t-final", "0.25"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "N,h,integral_t0,amplitude"
    assert "amplitude slope" in err


@pytest.mark.parametrize("source", ["flags", "config"])
def test_first_integral_rejects_both_n_and_ns(capsys, tmp_path, source):
    argv = ["first-integral", "--n", "50", "--ns", "25,50"]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 50\nns = 25, 50\n")
        argv = ["first-integral", "--config", str(cfg)]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "give n (one run) or ns (several runs), not both" in err


@pytest.mark.parametrize("cuts", ["5,5", "10,9+", "5,5,10,9+"])
def test_cut_rejects_a_repeated_level(capsys, cuts):
    rc, out, err = run_main(capsys, ["cut", "--solution", "s1", "--ns", "8,16", "--cuts", cuts])
    assert rc == 2
    assert out == ""
    assert "cut levels must be distinct" in err


@pytest.mark.parametrize("argv, what", [
    (["first-integral", "--ns", ",", "--courant", "i"], "grid size"),
    (["cut", "--cuts", ",", "--ns", "10,20", "--courant", "1"], "cut level"),
])
def test_exit_2_on_an_empty_list(capsys, argv, what):
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == f"configuration error: need at least one {what}\n"


def test_efficiency_command(capsys):
    rc, out, err = run_main(
        capsys, ["efficiency", "--solution", "s1", "--ns", "8,16", "--check"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "scheme,N,h,muls_per_step,error_cnorm"
    assert "compact:" in err and "classic:pointwise:" in err


def test_efficiency_rejects_unknown_classic_rhs(capsys):
    # only a right-hand side name: a scheme option would add a field to the row label
    for rhs in ("sixpoint", "threepoint,eps=0.8", "classic:threepoint"):
        rc, out, err = run_main(
            capsys,
            ["efficiency", "--solution", "s1", "--ns", "8,16", "--classic-rhs", rhs],
        )
        assert (rc, out) == (2, ""), rhs
        assert f"unknown classic right-hand side {rhs!r}" in err


def test_efficiency_folds_the_case_of_classic_rhs(capsys):
    argv = ["efficiency", "--solution", "s1", "--ns", "8,16", "--classic-rhs"]
    rc, out, err = run_main(capsys, argv + ["THREEPOINT"])
    assert rc == 0
    assert (rc, out, err) == run_main(capsys, argv + ["threepoint"])
    assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"compact", "classic:threepoint"}


def test_asymmetry_command(capsys):
    rc, out, err = run_main(capsys, ["asymmetry", "--ns", "8,16"])
    assert rc == 0
    assert out.splitlines()[0] == "N,h,tau,s_transition,s_forcing"
    assert "orders:" in err


def test_asymmetry_rejects_an_imaginary_courant(capsys):
    rc, out, err = run_main(capsys, ["asymmetry", "--ns", "10,20", "--courant", "i"])
    assert rc == 2
    assert out == ""
    assert "the asymmetry study runs the real kind" in err


@pytest.mark.parametrize("mode", [["--n", "16"], ["--ns", "8,16"]])
def test_first_integral_rejects_a_real_courant(capsys, mode):
    rc, out, err = run_main(capsys, ["first-integral", *mode, "--courant", "1"])
    assert rc == 2
    assert out == ""
    assert "the conservation demo runs the complex kind" in err


@pytest.mark.parametrize("n", ["0", "-4"])
@pytest.mark.parametrize("command", [["first-integral"], ["spectrum", "--courant", "1"]])
def test_too_few_intervals_are_a_configuration_error(capsys, command, n):
    rc, out, err = run_main(capsys, [*command, "--n", n])
    assert rc == 2
    assert out == ""
    assert f"need at least 4 intervals, got {n}" in err


def test_a_numerically_singular_step_matrix_is_a_numerical_failure(monkeypatch, capsys):
    """A pivot of 2^-50 against unit band entries, in a stepwise march on 11 nodes."""
    finalize = steppers._finalize

    def near_singular(mats):
        finalize(mats)
        diag = np.ones(mats.grid.n + 1)
        diag[1] += 2.0**-50
        mats._solver = Tridiag(np.ones(diag.size - 1), diag, np.ones(diag.size - 1))

    monkeypatch.setattr(steppers, "_finalize", near_singular)
    rc, out, err = run_main(capsys, ["convergence", "--solution", "s1", "--ns", "10"])
    assert rc == 3
    assert out == ""
    assert "numerical failure: pivot" in err and "below 1e-14" in err


def test_derive_row_check_passes(capsys):
    rc, out, err = run_main(
        capsys, ["derive-row", "--solution", "s1", "--n", "12", "--node", "3", "--check"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "coefficient,assembled_re,assembled_im,derived_re,derived_im"
    assert len(lines) == 13
    assert "proportionality factor" in err


def test_derive_row_rejects_wall_node(capsys):
    rc, _, err = run_main(capsys, ["derive-row", "--n", "12", "--node", "12"])
    assert rc == 2
    assert "interior index" in err


def test_argparse_exit_codes(capsys):
    assert run_main(capsys, [])[0] == 2
    assert run_main(capsys, ["convergence", "--bogus"])[0] == 2
    # argparse exits through SystemExit; main folds that into the code
    assert run_main(capsys, ["--help"])[0] == 0


def test_subcommand_flag_sets(capsys):
    common = {"--help", "--config", "--output", "--check"}
    expected = {
        "convergence": {"--solution", "--params", "--scheme", "--ns", "--courant", "--t-final"},
        "richardson": {"--solution", "--params", "--scheme", "--ns", "--courant", "--t-final"},
        "cut": {"--solution", "--params", "--ns", "--courant", "--t-final", "--cuts"},
        "asymmetry": {"--ns", "--courant", "--t-final"},
        "spectrum": {"--solution", "--params", "--n", "--courant"},
        "first-integral": {"--n", "--ns", "--quadrature", "--courant", "--t-final"},
        "efficiency": {"--solution", "--params", "--ns", "--courant", "--t-final",
                       "--classic-rhs"},
        "derive-row": {"--solution", "--params", "--n", "--node", "--courant", "--t-final"},
    }
    for sub, flags in expected.items():
        rc, out, _ = run_main(capsys, [sub, "--help"])
        assert rc == 0
        assert set(re.findall(r"--[a-z-]+", out)) == common | flags, sub


def test_help_takes_each_default_from_the_value_table():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for sub, parser in subparsers.choices.items():
        for action in parser._actions:
            flag = action.option_strings[-1][2:]
            default = cli._DEFAULTS.get((sub, flag), cli._VALUES.get(flag, (None, None))[1])
            text = action.help or ""
            if isinstance(default, str) and default:
                assert text.count("default") == 1, (sub, flag, text)
                assert text.endswith(f"default {default})") or text == f"default {default}"
            else:
                assert "default" not in text, (sub, flag, text)


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    texts = []
    for argv in (["--help"], ["spectrum", "--help"], ["spectrum", "--bogus", "1"]):
        first, again = run_main(capsys, argv), run_main(capsys, argv)
        assert first == again, argv
        texts.append(first)
    assert [rc for rc, _, _ in texts] == [0, 0, 2]
    assert "unrecognized arguments: --bogus 1" in texts[2][2]
    for _ in range(3):
        assert run_main(capsys, ["derive-row", "--solution", "s1", "--n", "12"])[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
    ]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        if line.startswith("printf "):
            _, text, redirect, target = shlex.split(line)
            assert redirect == ">"
            (tmp_path / target).write_text(text.replace("\\n", "\n"))
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("cpde ")]
    assert len(commands) >= 12
    for argv in commands:
        rc, _, err = run_main(capsys, argv)
        assert rc == 0, (argv, err)


def test_readme_library_blocks_run(capsys):
    """Each python block of README runs, and the values its comments state hold."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for block in blocks:
        names = {}
        exec(compile(block, "README.md", "exec"), names)
        stated = re.search(r"print\(rep\.estimated_order\)\s*# ~(\S+)", block)
        if stated:  # the first printed line, to the digits the comment shows
            digits = len(stated.group(1).split(".")[1])
            printed = float(capsys.readouterr().out.splitlines()[0])
            assert f"{printed:.{digits}f}" == stated.group(1)
        steps = re.search(r"# (\d+) steps", block)
        if steps:
            assert names["rep"].steps == int(steps.group(1))


@pytest.mark.skipif(shutil.which("cpde") is None, reason="script not installed")
def test_console_script_smoke():
    proc = subprocess.run(
        ["cpde", "convergence", "--solution", "s1", "--ns", "8", "--courant", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("N,h,tau,steps,")


def run_cli_module(*argv):
    """``python -m cpde.cli`` in a child process, importing this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "cpde.cli", *argv], capture_output=True, text=True, env=env
    )


def test_cli_module_runs_as_a_process():
    proc = run_cli_module("convergence", "--solution", "s1", "--ns", "8", "--courant", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("N,h,tau,steps,")
    proc = run_cli_module("convergence", "--solution", "s9", "--ns", "8", "--courant", "1")
    assert proc.returncode == 2
    assert "unknown sample 's9'" in proc.stderr
