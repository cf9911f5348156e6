"""Benchmark entry point: run one workload for a while and report metrics.

    python3 perfbench/run.py --workload stiff_march --seed 0 --seconds 25 --trace 0

Run from the root of a cpde checkout.  Each pass of the workload runs in
a fresh single-process worker (worker.py) with BLAS threads pinned to 1
and CPDE_THREADS removed; passes repeat until ``--seconds`` have passed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
traced passes (medians), which alternate with untraced passes so the
tracing overhead can be reported.  Earlier lines give the quartiles of
each metric over the passes, and the set-up the numbers were measured on.

The end-to-end timings are scaled to a fixed host speed, because a
shared host loses 10-60% of its CPU speed, for seconds or for minutes at
a time.  The worker times a fixed probe of the benchmark's own before
every operation; a timing is reported as measured times the reference
probe time over the probes' time in the same run.  See README.md,
"Noise".
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stiff_march", "fine_grid", "paper_tables", "dense_spectral")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run measures for at most MAX_SECONDS and a pass may take at most
# PASS_TIMEOUT_S, so every run ends inside three minutes.
MAX_SECONDS = 60.0
PASS_TIMEOUT_S = 100.0
# set-up-only workers a run starts before its passes, so that setup_s is a
# median over at least this many set-ups on every workload
SETUP_SAMPLES = 6
# The probe time (worker.probe) that defines the reported time scale: the
# end-to-end timings are the seconds the work takes on a host where the
# probe takes this long.  It is about the probe's mean in the quiet spells
# of the 2-vCPU Xeon host the benchmark was set up on.
REFERENCE_PROBE_S = 0.010


def declared(kind: str) -> dict:
    """Metric name to unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def worker_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CPDE_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(cmd: list, env: dict, timeout: float) -> dict:
    """Run one worker to completion and return its JSON result line."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def worker_cmd(args, tmpdir: str, trace: int, setup_only: bool = False) -> list:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--tmpdir", tmpdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        spans = os.path.join(os.getcwd(), ".bench_out")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"spans-{args.workload}.npz")]
    return cmd


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def scaled_wall(p: dict) -> float:
    """A pass's wall time at the reference host speed."""
    return p["wall_s"] * REFERENCE_PROBE_S / statistics.fmean(p["probe_s"])


def end_to_end(passes: list, setups: list) -> dict:
    """The end-to-end metrics of a run from its passes and set-up workers.

    Work times are the mean over the passes, scaled by the reference probe
    time over the mean probe time of the passes: the probes run between
    the operations, so their mean sees the same host speed as the work.
    ``setup_s`` is the median import-and-inputs time over every worker of
    the run plus the passes' median assembly time, scaled by the
    reference over the median probe time of every worker.
    """
    work_speed = statistics.fmean(x for p in passes for x in p["probe_s"]) / REFERENCE_PROBE_S
    setup_speed = statistics.median(
        x for w in setups + passes for x in w["probe_s"]) / REFERENCE_PROBE_S
    startup = [w["import_s"] + w["inputs_s"] for w in setups + passes]
    march_s = sum(p["march_s"] for p in passes)
    errors = [p["max_error"] for p in passes if p["max_error"] is not None]
    return {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes) / work_speed,
        "setup_s": (statistics.median(startup)
                    + statistics.median(p["assembly_s"] for p in passes)) / setup_speed,
        "node_steps_per_s": work_speed * sum(p["node_steps"] for p in passes) / march_s
        if march_s > 0 else None,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "max_error": statistics.median(errors) if errors else None,
        "host_speed": 1.0 / work_speed,
    }


def setup_record(root: str, env: dict) -> dict:
    """Hardware, libraries and settings the numbers were measured with."""
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}) for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # older numpy prints instead
        blas = {}
    scipy_version = None
    if importlib.util.find_spec("scipy") is not None:
        import scipy

        scipy_version = scipy.__version__
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "cpde", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "thread_vars": {var: env.get(var) for var in THREAD_VARS},
        "CPDE_THREADS": os.environ.get("CPDE_THREADS"),
        "src_cpde_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpde", "__init__.py")):
        print("run.py: no src/cpde here; run it from the root of a cpde checkout",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        # compile the package once, so no timed pass pays for byte-compiling
        subprocess.run([sys.executable, "-c", "import cpde, cpde.cli"], env=env, check=True,
                       timeout=PASS_TIMEOUT_S)
        began = time.perf_counter()
        plain, traced, rounds, setups = [], [], [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(worker_cmd(args, tmpdir, 0, setup_only=True), env,
                                         PASS_TIMEOUT_S))
        while True:
            start = time.perf_counter()
            plain.append(run_worker(worker_cmd(args, tmpdir, 0), env, PASS_TIMEOUT_S))
            if args.trace:
                traced.append(run_worker(worker_cmd(args, tmpdir, 1), env, PASS_TIMEOUT_S))
            rounds.append(time.perf_counter() - start)
            # end at the round boundary nearest to --seconds
            elapsed = time.perf_counter() - began
            if elapsed + 0.5 * statistics.median(rounds) >= min(args.seconds, MAX_SECONDS):
                break
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    setup = setup_record(root, env)
    setup["CPDE_THREADS_in_worker"] = sorted({str(p["cpde_threads"]) for p in passes})
    detail, metrics, host_speed = {}, {}, None
    if args.trace:
        for name, unit in declared("per_layer").items():
            if name == "trace.overhead_frac":
                # each traced pass against the untraced pass just before it,
                # each at its own host speed
                stats = quartiles([scaled_wall(t) / scaled_wall(u) - 1.0
                                   for u, t in zip(plain, traced)])
            elif name == "failed_frac":
                stats = quartiles([failed / attempted])
            else:
                stats = quartiles([p["layers"][name] for p in traced])
            detail[name] = stats
            metrics[name] = {"value": stats["median"], "unit": unit}
    else:
        estimate = end_to_end(plain, setups)
        host_speed = estimate["host_speed"]
        for name, unit in declared("end_to_end").items():
            if estimate[name] is None:
                print(f"run.py: workload {args.workload} reported no {name}", file=sys.stderr)
                return 1
            # the quartiles of the unscaled pass values, for reading only
            detail[name] = quartiles([p[name] for p in passes if p[name] is not None])
            metrics[name] = {"value": estimate[name], "unit": unit}
        detail["failed_frac"] = quartiles([failed / attempted])
    for name, stats in detail.items():
        reported = f" reported {metrics[name]['value']:.6g};" if name in metrics else ""
        print(f"{args.workload} {name}:{reported} passes median {stats['median']:.6g} "
              f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}] n={stats['n']}")
    for p in passes:
        for f in p["failures"]:
            print(f"failed: {f['op']}: {'; '.join(f['why'])}")
    print(json.dumps({"setup": setup, "detail": detail, "passes": len(passes),
                      "setup_workers": len(setups), "host_speed": host_speed}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
