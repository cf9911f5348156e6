"""Tests of the benchmark itself: span arithmetic, patch hygiene, checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import cpde  # noqa: E402
import cpde.cli  # noqa: E402
from cpde import core, linalg, steppers  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: covered
    # once, 5 s) and [9, 12] (clipped to the root, 1 s); [1, 4] has a
    # child [2, 3].
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = tr.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_of_nested_calls_add_up_to_the_root():
    start = [0.0, 0.5, 0.7, 2.0, 3.0]
    end = [8.0, 1.5, 1.0, 4.5, 4.0]
    parent = [-1, 0, 1, 0, 3]
    got = tr.self_times(start, end, parent)
    assert got.sum() == pytest.approx(8.0)
    assert (got >= 0.0).all()


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cpde" or name.startswith("cpde.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    out[("Tridiag", "apply")] = linalg.Tridiag.__dict__["apply"]
    return out


def _tiny_march():
    sample = core.sample_solution("s1")
    grid = core.grid_for(sample, 10, 1.0, 0.1)
    return steppers.run(sample.problem, grid, steppers.Compact())


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    with tr.Tracer(tr.FULL_TARGETS) as tracer:
        patched = _bindings()
        changed = {key for key in before if patched[key] is not before[key]}
        # names imported with `from .x import y` are patched where they live
        for key in [("cpde.steppers", "solve_tridiag"), ("cpde.analysis", "run"),
                    ("cpde.analysis", "solve_dense"), ("cpde.cli", "convergence_study"),
                    ("cpde.steppers", "fit_interior"), ("cpde", "assemble_compact"),
                    ("cpde.interior", "null_space_1d"), ("Tridiag", "apply")]:
            assert key in changed, key
        _tiny_march()
    assert _bindings() == before
    names, name, _, _, parent, _ = tracer.spans()
    kinds = [names[i] for i in name]
    run = kinds.index("steppers.run")
    solves = [i for i, k in enumerate(kinds) if k == "linalg.solve_tridiag"]
    assert solves and all(parent[i] == run for i in solves)
    assert tracer.counts["steppers.steps"] == len(solves)


def test_tracer_restores_bindings_when_the_body_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tr.Tracer(tr.FULL_TARGETS):
            1 / 0
    assert _bindings() == before


def test_every_declared_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    tracer = tr.Tracer(tr.FULL_TARGETS)
    with tracer:
        _tiny_march()
    layers = tr.layer_metrics(tracer, 1.0)
    computed_by_run = {"trace.overhead_frac", "failed_frac"}
    assert {m["name"] for m in bench["per_layer"]} == set(layers) | computed_by_run
    assert all(np.isfinite(v) for v in layers.values())


def _reference_for(ops):
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute(ops, tracer, reference_mode=True)
    assert outcome["failures"] == []
    return outcome["summaries"]


def _s1_op(bounds=(1e-6, 1e-2)):
    sample = core.sample_solution("s1")
    grid = core.grid_for(sample, 10, 1.0, 0.1)
    return workloads._march_op("s1 N=10", sample, sample.problem, grid, bounds)


def test_a_wrong_state_is_a_failed_operation(monkeypatch):
    reference = _reference_for([_s1_op()])
    original = steppers.run

    def off_by_a_little(problem, grid, scheme):
        report = original(problem, grid, scheme)
        report.final_state = report.final_state * (1.0 + 1e-6)
        return report

    monkeypatch.setattr(steppers, "run", off_by_a_little)
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute([_s1_op()], tracer, reference)
    assert len(outcome["failures"]) == 1
    assert "state" in " ".join(outcome["failures"][0]["why"])


def test_a_reordering_sized_change_still_passes(monkeypatch):
    reference = _reference_for([_s1_op()])
    original = steppers.run

    def reordered(problem, grid, scheme):
        report = original(problem, grid, scheme)
        report.final_state = report.final_state + 4e-11
        return report

    monkeypatch.setattr(steppers, "run", reordered)
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute([_s1_op()], tracer, reference)
    assert outcome["failures"] == []


def test_bound_misses_raises_and_exit_codes_are_failures():
    ops = [
        _s1_op(bounds=(0.0, 1e-12)),  # error far above this bound
        workloads.Op("raises", lambda: 1 / 0, lambda out: [], lambda out: {}),
        # criterion 5's cut=5 row misses its band by design: exit code 4
        workloads._cli_op("cut --check", "cut --solution s1 --cuts 5 --ns 10,20 --courant 1 "
                          "--check".split()),
    ]
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute(ops, tracer)
    why = {f["op"]: " ".join(f["why"]) for f in outcome["failures"]}
    assert set(why) == {"s1 N=10", "raises", "cut --check"}
    assert "outside" in why["s1 N=10"]
    assert "ZeroDivisionError" in why["raises"]
    assert "exit code 4" in why["cut --check"]


def test_a_spectrum_is_compared_as_a_set():
    ref = {"eigenvalues": ["set", [[0.5, 0.0], [0.5, 1e-3], [0.9, 0.0]]]}
    swapped = {"eigenvalues": ["set", [[0.5, 1e-3], [0.5, 0.0], [0.9, 0.0]]]}
    moved = {"eigenvalues": ["set", [[0.5, 1e-3], [0.5, 0.0], [0.9, 1e-6]]]}
    assert workloads.compare(swapped, ref) == []
    assert workloads.compare(moved, ref) != []


def test_small_error_cells_use_an_absolute_floor():
    ref = {"error_h": ["small", [1.44e-10, 2.0]]}
    assert workloads.compare({"error_h": ["small", [1.8e-10, 2.0]]}, ref) == []
    assert workloads.compare({"error_h": ["small", [1.44e-10, 2.001]]}, ref) != []


def test_analytic_mul_count_matches_assembly():
    for name, n in (("s1", 12), ("snll", 12)):
        sample = core.sample_solution(name)
        grid = core.grid_for(sample, n, 1.0, 0.1)
        mats = steppers.assemble_compact(sample.problem, grid)
        neumann = isinstance(sample.problem.boundary, core.Neumann)
        assert mats.muls_per_step == workloads.analytic_muls(n + 1, neumann)


def test_march_parts_take_the_same_steps_as_one_call():
    sample = core.sample_solution("s1")
    grid = core.grid_for(sample, 10, 1.0, 2.0)
    assert grid.n_steps > 3
    whole = workloads._march_op("whole", sample, sample.problem, grid, (0.0, 1.0))
    parts = workloads._segmented_march_ops("s1 N=10", sample, sample.problem, grid,
                                           (0.0, 1.0), 3)
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute([whole] + parts, tracer, reference_mode=True)
    assert outcome["failures"] == []
    summaries = outcome["summaries"]
    assert sum(summaries[op.label]["steps"][1][0] for op in parts) == grid.n_steps
    last = summaries[parts[-1].label]
    assert workloads.compare(last, summaries["whole"]) == ["steps: [%d] differs from reference "
                                                           "[%d]" % (last["steps"][1][0],
                                                                     grid.n_steps)]


def test_a_failed_part_fails_the_parts_after_it():
    sample = core.sample_solution("s1")
    grid = core.grid_for(sample, 10, 1.0, 0.1)
    parts = workloads._segmented_march_ops("s1 N=10", sample, sample.problem, grid,
                                           (0.0, 1.0), 3)
    parts[0] = workloads.Op(parts[0].label, lambda: 1 / 0, parts[0].check, parts[0].summary)
    with tr.Tracer(tr.FAST_TARGETS, trace_forcing=False) as tracer:
        outcome = worker.execute(parts, tracer)
    assert [f["op"] for f in outcome["failures"]] == [op.label for op in parts]


def _pass(wall_s, march_s, slow=1.0):
    """One pass's result on a host ``slow`` times slower than the reference."""
    return {
        "import_s": 0.2 * slow, "inputs_s": 0.0, "assembly_s": 0.1 * slow,
        "probe_s": [run.REFERENCE_PROBE_S * slow] * 4, "wall_s": wall_s * slow,
        "march_s": march_s * slow, "node_steps": 100, "peak_rss_mb": 40.0, "max_error": 1e-3,
    }


def test_end_to_end_scales_a_slow_host_back_to_the_reference_speed():
    quiet = run.end_to_end([_pass(1.2, 0.5) for _ in range(3)], [])
    assert quiet["wall_s"] == pytest.approx(1.2)
    assert quiet["setup_s"] == pytest.approx(0.3)
    assert quiet["node_steps_per_s"] == pytest.approx(200.0)
    slow = run.end_to_end([_pass(1.2, 0.5, slow=1.5) for _ in range(3)],
                          [_pass(0.0, 0.0, slow=1.5)])
    for name in ("wall_s", "setup_s", "node_steps_per_s"):
        assert slow[name] == pytest.approx(quiet[name])
    assert slow["host_speed"] == pytest.approx(1 / 1.5)


def test_end_to_end_is_the_mean_pass_at_the_runs_host_speed():
    passes = [_pass(1.0, 0.5), _pass(2.0, 1.5)]
    got = run.end_to_end(passes, [])
    assert got["wall_s"] == pytest.approx(1.5)
    assert got["node_steps_per_s"] == pytest.approx(100.0)


def test_the_probe_takes_no_cpde_code():
    code = worker.probe.__code__
    assert not {"cpde", "steppers", "linalg"} & set(code.co_names)
    assert worker.probe() > 0.0
