"""``tools/bench_record.py`` on canned benchmark and pytest output: what it
parses, what it runs and where, and the file it writes.  Nothing is timed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

DETAIL = {
    "setup": {"numpy": "2.4.6", "cpu": "canned", "src_cpde_lines": 3},
    "detail": {"wall_s": {"median": 0.3, "q1": 0.29, "q3": 0.31, "n": 40},
               "failed_frac": {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 1}},
    "passes": 40,
    "setup_workers": 6,
    "host_speed": 0.97,
}
RESULT = {"correct": True, "attempted": 2840, "failed": 0,
          "metrics": {"wall_s": {"value": 0.28, "unit": "s"}}}
RUN_STDOUT = "\n".join([
    "stiff_march wall_s: reported 0.28; passes median 0.3 [q1 0.29, q3 0.31] n=40",
    json.dumps(DETAIL),
    json.dumps(RESULT),
]) + "\n"
PYTEST_STDOUT = "....s....\n" + "1362 passed, 1 skipped in 27.48s\n"


def test_parse_run_reads_the_last_two_json_lines():
    got = bench_record.parse_run(RUN_STDOUT)
    assert got == {"result": RESULT, "quartiles": DETAIL["detail"], "passes": 40,
                   "host_speed": 0.97, "setup": DETAIL["setup"]}
    with pytest.raises(ValueError, match="detail and result"):
        bench_record.parse_run("stiff_march wall_s: ...\n" + json.dumps(RESULT) + "\n")


@pytest.mark.parametrize("line,counts,seconds", [
    ("1362 passed, 1 skipped in 27.48s", {"passed": 1362, "skipped": 1}, 27.48),
    ("= 2 failed, 1360 passed, 1 skipped, 3 errors in 30.1s =",
     {"failed": 2, "passed": 1360, "skipped": 1, "errors": 3}, 30.1),
    ("1 error in 0.50s", {"errors": 1}, 0.5),
])
def test_parse_tier1_reads_the_summary_line(line, counts, seconds):
    got = bench_record.parse_tier1("collected\n" + line + "\n")
    assert got == {"counts": counts, "pytest_s": seconds}


def test_parse_tier1_refuses_output_without_a_summary():
    with pytest.raises(ValueError, match="summary"):
        bench_record.parse_tier1("ERROR: file or directory not found\n")


def fake_tree(path: Path, lines: int) -> str:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "src" / "cpde").mkdir(parents=True)
    (path / "src" / "cpde" / "__init__.py").write_text("x = 1\n" * lines)
    return str(path)


class Canned:
    """Stands in for ``subprocess.run``: records each call and answers with
    the canned output of the command it was given."""

    def __init__(self, run_exit=0):
        self.calls, self.run_exit = [], run_exit

    def __call__(self, cmd, cwd, env, check=False, **kwargs):
        prefix = env.get("PYTHONPYCACHEPREFIX")
        self.calls.append((cmd, cwd, prefix, env.get("PYTHONDONTWRITEBYTECODE")))
        assert prefix and os.path.isdir(prefix)
        if cmd[1] == "-c":
            return subprocess.CompletedProcess(cmd, 0, "", "")
        if cmd[1].endswith("run.py"):
            return subprocess.CompletedProcess(cmd, self.run_exit, RUN_STDOUT, "run.py: boom\n")
        return subprocess.CompletedProcess(cmd, 1, PYTEST_STDOUT, "")


def test_main_writes_one_record_per_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent, change = fake_tree(tmp_path / "p", 10), fake_tree(tmp_path / "c", 7)
    canned = Canned()
    argv = ["--pr", "7", "--seed", "5", "--tree", f"parent={parent}",
            "--tree", f"change={change}", "--out-dir", str(tmp_path)]
    assert bench_record.main(argv, execute=canned) == 0
    body = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (body["pr"], body["seed"], body["seconds"]) == (7, 5, 25.0)
    assert list(body["trees"]) == ["parent", "change"]
    for name, lines in (("parent", 10), ("change", 7)):
        tree = body["trees"][name]
        assert tree["src_cpde_lines"] == lines
        assert list(tree["workloads"]) == list(bench_record.WORKLOADS)
        assert tree["workloads"]["fine_grid"] == bench_record.parse_run(RUN_STDOUT)
        assert tree["tier1"]["counts"] == {"passed": 1362, "skipped": 1}
        assert tree["tier1"]["exit_code"] == 1 and tree["tier1"]["wall_s"] >= 0.0

    # every command runs after its own warm-up, in its own prefix, and only
    # the warm-up writes bytecode; each workload runs on both trees, which
    # take turns at running first
    warm, timed = canned.calls[::2], canned.calls[1::2]
    assert len(timed) == 10 and all(cmd[1] == "-c" for cmd, *_ in warm)
    assert [(w[1], w[2]) for w in warm] == [(t[1], t[2]) for t in timed]
    assert len({t[2] for t in timed}) == 10
    assert all(w[3] is None for w in warm) and all(t[3] == "1" for t in timed)
    assert [t[1] for t in timed] == [parent, change, change, parent, parent, change,
                                     change, parent, parent, change]
    assert [t[0][t[0].index("--workload") + 1] for t in timed[:8]] == [
        w for w in bench_record.WORKLOADS for _ in range(2)]
    assert timed[0][0][1:] == [os.path.join("perfbench", "run.py"), "--workload", "stiff_march",
                               "--seed", "5", "--seconds", "25.0", "--trace", "0"]
    assert timed[-1][0][1:] == ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
    assert not any(os.path.exists(t[2]) for t in timed)  # the prefixes are gone


def test_a_failed_run_is_recorded_with_its_exit_code(tmp_path):
    tree = fake_tree(tmp_path / "t", 1)
    got = bench_record.record({"change": tree}, 0, ["dense_spectral"], 1.0,
                              execute=Canned(run_exit=1))
    assert got["change"]["workloads"]["dense_spectral"] == {"exit_code": 1,
                                                            "stderr": "run.py: boom\n"}


@pytest.mark.parametrize("argv,message", [
    (["--tree", "nameonly"], "NAME=PATH"),
    (["--tree", "x={missing}"], "no perfbench/run.py"),
    (["--tree", "a={tree}", "--tree", "a={tree}"], "tree names must differ"),
])
def test_main_refuses_bad_arguments(tmp_path, capsys, argv, message):
    tree = fake_tree(tmp_path / "t", 1)
    argv = [a.format(tree=tree, missing=tmp_path / "missing") for a in argv]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--pr", "1", "--seed", "0", *argv], execute=Canned())
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_1.json").exists()
