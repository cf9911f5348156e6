"""Record the benchmark of one or more cpde trees in ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr PR --seed SEED --tree parent=../parent --tree change=.

Each tree is the root of a cpde checkout or export.  For each of the four
workloads this runs the tree's own ``perfbench/run.py`` unchanged for 25 s,
once per tree, the trees in the given order for the first workload and in
reverse for the next, and so on; then each tree's tier-1 suite
(``python3 -m pytest -q``).
Every run gets a private, fresh ``PYTHONPYCACHEPREFIX``, warmed by one
import that writes bytecode for numpy, cpde and the benchmark's modules:
no run compiles what another left behind, and a prefix that were not
warmed would hide numpy's installed bytecode as well.  The file holds,
per tree:

- each workload's result line (``correct``, ``attempted``, ``failed`` and
  the probe-scaled ``metrics``), the raw (unscaled) quartiles of its
  detail record, its pass count, host speed and set-up record;
- the tier-1 counts and wall time;
- the line count of ``src/cpde``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("stiff_march", "fine_grid", "paper_tables", "dense_spectral")
SECONDS = 25.0  # per workload run
# the modules a benchmark worker or the tier-1 run imports, run from a tree's root
WARM_IMPORT = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
               "import numpy, pytest, cpde, cpde.cli, run, tracer, worker, workloads")
RUN_TIMEOUT_S = 600.0
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
_COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed|deselected)\b")
_SECONDS = re.compile(r" in ([0-9.]+)s")


def parse_run(stdout: str) -> dict:
    """The result line and the detail record of ``perfbench/run.py`` output.

    run.py ends with two JSON lines: the detail record (set-up, quartiles of
    the unscaled pass values, pass count and host speed) and the result.
    """
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("run.py output ends without its detail and result lines")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "result": result,
        "quartiles": detail["detail"],
        "passes": detail["passes"],
        "host_speed": detail["host_speed"],
        "setup": detail["setup"],
    }


def parse_tier1(stdout: str) -> dict:
    """The counts and pytest's own seconds from a ``pytest -q`` summary line."""
    summary = next((line for line in reversed(stdout.splitlines()) if _SECONDS.search(line)),
                   None)
    if summary is None:
        raise ValueError("pytest output has no summary line")
    counts = {}
    for number, outcome in _COUNT.findall(summary):
        counts["errors" if outcome.startswith("error") else outcome] = int(number)
    return {"counts": counts, "pytest_s": float(_SECONDS.search(summary).group(1))}


def count_lines(root: str) -> int:
    """Lines of the ``src/cpde`` modules."""
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "cpde", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_fresh(cmd: list, root: str, execute=subprocess.run):
    """Run ``cmd`` in ``root`` under a private bytecode prefix, warmed first;
    returns the completed process and the command's seconds, warm-up excluded."""
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        warm = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        execute([sys.executable, "-c", WARM_IMPORT], cwd=root, env=warm, check=True,
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        start = time.perf_counter()
        proc = execute(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
        return proc, time.perf_counter() - start


def record_workload(root: str, workload: str, seed: int, seconds: float,
                    execute=subprocess.run) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc, _ = run_fresh(cmd, root, execute)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return parse_run(proc.stdout)


def record_tier1(root: str, execute=subprocess.run) -> dict:
    proc, wall_s = run_fresh([sys.executable, *TIER1], root, execute)
    return dict(parse_tier1(proc.stdout), exit_code=proc.returncode, wall_s=wall_s)


def record(trees: dict, seed: int, workloads=WORKLOADS, seconds: float = SECONDS,
           execute=subprocess.run) -> dict:
    """The benchmark record of each named tree: workloads first, every tree
    for each, so that a slow spell of the host falls on every tree, and the
    trees' order reversed from one workload to the next, so that no tree
    always runs first."""
    out = {name: {"workloads": {}, "src_cpde_lines": count_lines(root)}
           for name, root in trees.items()}
    order = list(trees.items())
    for i, workload in enumerate(workloads):
        for name, root in (order if i % 2 == 0 else order[::-1]):
            out[name]["workloads"][workload] = record_workload(root, workload, seed, seconds,
                                                               execute)
    for name, root in trees.items():
        out[name]["tier1"] = record_tier1(root, execute)
    return out


def parse_tree(text: str):
    name, sep, root = text.partition("=")
    if not sep or not name or not root:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"{root!r} has no perfbench/run.py")
    return name, os.path.abspath(root)


def main(argv=None, execute=subprocess.run) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tree", type=parse_tree, action="append", required=True,
                    help="NAME=PATH of a tree to measure; repeat for more trees")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) != len(args.tree):
        ap.error("tree names must differ")
    body = {"pr": args.pr, "seed": args.seed, "seconds": SECONDS,
            "trees": record(trees, args.seed, execute=execute)}
    path = os.path.join(args.out_dir, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
