"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run by run.py with BLAS threads pinned to 1 and PYTHONPATH pointing at
the checkout's ``src``.  The clock starts before ``import cpde``, so
``wall_s`` runs from worker start to the last checked result and
``setup_s`` includes the import:

    python3 perfbench/worker.py --workload stiff_march --seed 0 --trace 0 \
        --tmpdir .bench_tmp/x [--spans FILE] [--write-reference]

``--write-reference`` runs seed 0 and stores every operation's output
summary in ``perfbench/reference/<workload>.json``.  ``--setup-only``
stops after the import and the inputs and reports only their times and
a few probe times, so run.py can sample set-up more often than it runs
whole passes.

Before each operation the worker times ``probe``, a fixed piece of work
of its own, and reports those times so that run.py can scale the pass's
timings to a fixed host speed.  The probes' own time is left out of
``wall_s``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


PROBE_M, PROBE_SWEEPS = 64, 60
PROBE_N = 160
SETUP_PROBES = 8


def probe() -> float:
    """Seconds for a fixed piece of work: about 10 ms on a quiet host.

    Half of it is a double sweep in Python over 64-entry float arrays,
    like cpde's tridiagonal solve, and half a row-by-row elimination of a
    160 x 160 matrix in numpy, like its dense solve.  The probe is the
    benchmark's own code and calls nothing in cpde, so no change to cpde
    can move it, while a host that slows cpde's kinds of work slows it
    alike.
    """
    import numpy as np

    diag = np.linspace(4.0, 5.0, PROBE_M)
    lower = np.linspace(0.1, 0.9, PROBE_M)
    rhs = np.cos(np.arange(PROBE_M, dtype=float))
    grid = np.linspace(0.0, 1.0, PROBE_N)
    a = np.add.outer(grid, grid) + PROBE_N * np.eye(PROBE_N)
    start = time.perf_counter()
    for _ in range(PROBE_SWEEPS):
        d, r = diag.copy(), rhs.copy()
        for i in range(1, PROBE_M):
            w = lower[i - 1] / d[i - 1]
            d[i] = d[i] - w * lower[i - 1]
            r[i] = r[i] - w * r[i - 1]
        for i in range(PROBE_M - 2, -1, -1):
            r[i] = (r[i] - lower[i] * r[i + 1]) / d[i]
    for i in range(PROBE_N - 1):
        f = a[i + 1:, i] / a[i, i]
        a[i + 1:, i:] -= np.outer(f, a[i, i:])
    return time.perf_counter() - start


def execute(ops, tracer, reference=None, reference_mode=False) -> dict:
    """Run and check every operation; one failure never stops the rest.

    Returns the failures (operation label and reasons), the C-norm errors
    the operations reported, the probe times taken before each operation
    and, in reference mode, each output summary.
    """
    import workloads

    failures, errors, summaries, probes = [], [], {}, []
    for k, op in enumerate(ops):
        probes.append(probe())
        tracer.current_op = k
        try:
            out = op.run()
            fails = op.check(out)
            summary = op.summary(out)
            if reference_mode:
                summaries[op.label] = summary
            elif reference is not None:
                if op.label not in reference:
                    fails.append("no stored reference output")
                else:
                    fails.extend(workloads.compare(summary, reference[op.label]))
            if out.get("error") is not None:
                errors.append(out["error"])
        except Exception:  # an operation that raises is a failed operation
            fails = ["raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if fails:
            failures.append({"op": op.label, "why": fails})
    return {"failures": failures, "errors": errors, "summaries": summaries, "probes": probes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import cpde  # noqa: F401
    import cpde.cli  # noqa: F401

    import_s = time.perf_counter() - t

    import numpy as np

    import tracer as tr
    import workloads

    build = workloads.WORKLOADS[args.workload]
    reference_mode = args.write_reference
    seed = 0 if reference_mode else args.seed
    reference = None
    if not reference_mode and (seed == 0 or args.workload == "paper_tables"):
        reference = workloads.load_reference(args.workload)

    if args.trace:
        tracer = tr.Tracer(tr.FULL_TARGETS, trace_forcing=True)
    else:
        tracer = tr.Tracer(tr.FAST_TARGETS, trace_forcing=False)
    with tracer:
        t = time.perf_counter()
        ops = build(seed, tracer, args.tmpdir, reference_mode)
        inputs_s = time.perf_counter() - t
        if args.setup_only:
            print(json.dumps({"import_s": import_s, "inputs_s": inputs_s,
                              "probe_s": [probe() for _ in range(SETUP_PROBES)]}))
            return 0
        outcome = execute(ops, tracer, reference, reference_mode)
    for f in outcome["failures"]:
        print(f"FAILED {args.workload} seed={seed} {f['op']}: {'; '.join(f['why'])}",
              file=sys.stderr)
    wall_s = time.perf_counter() - T0 - sum(outcome["probes"])

    if reference_mode:
        path = os.path.join(workloads.REFERENCE_DIR, args.workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": 0, "ops": outcome["summaries"]}, fh,
                      indent=1)
            fh.write("\n")

    names, name, start, end, parent, _ = tracer.spans()
    dur = end - start
    kinds = np.array([names[i] for i in name]) if name.size else np.array([], dtype=str)
    is_run = kinds == "steppers.run"
    is_asm = np.isin(kinds, tr.ASSEMBLY)
    asm_in_run = is_asm & (parent >= 0)
    if asm_in_run.any():
        asm_in_run &= is_run[np.maximum(parent, 0)]
    assembly_s = float(dur[is_asm].sum())
    march_s = float(dur[is_run].sum()) - float(dur[asm_in_run].sum())
    node_steps = tracer.counts["steppers.node_steps"]
    result = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": len(outcome["failures"]),
        "failures": outcome["failures"],
        "wall_s": wall_s,
        "setup_s": import_s + inputs_s + assembly_s,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "assembly_s": assembly_s,
        "node_steps": node_steps,
        "march_s": march_s,
        "node_steps_per_s": node_steps / march_s if march_s > 0 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_error": max(outcome["errors"]) if outcome["errors"] else None,
        "cpde_threads": os.environ.get("CPDE_THREADS"),
        "probe_s": outcome["probes"],
    }
    if args.trace:
        result["layers"] = tr.layer_metrics(tracer, wall_s)
        result["spans"] = int(name.size)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
