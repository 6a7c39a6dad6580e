"""The benchmark's own tests, at tiny scale.

Every workload runs and passes its checks on the current code; every check
fails on a deliberately perturbed output; the tracer changes no result and
its counts repeat exactly; and the runner refuses to run without sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import deconf  # noqa: E402
import deconf.io  # noqa: E402, F401

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEPS = [wl for wl in workloads.WORKLOADS.values() if wl.kind == "sweep"]


def tiny(wl):
    """The same sweep with a handful of replications and the smallest input."""
    size = 60_000 if wl.protocol == "empirical" else 2
    config = {**wl.config, "replications": 3}
    return workloads.Sweep(wl.name, wl.protocol, size, wl.methods, config, wl.reference)


def run_bytes(wl, inp, workers, path):
    wl.run(deconf, inp, workers, path)
    return path.read_bytes()


@pytest.mark.parametrize("wl", SWEEPS, ids=lambda wl: wl.name)
def test_sweep_runs_and_passes_checks(wl, tmp_path):
    small = tiny(wl)
    inp = small.make_inputs(5, tmp_path)[0]
    w1 = run_bytes(small, inp, 1, tmp_path / "w1.csv")
    w2 = run_bytes(small, inp, 2, tmp_path / "w2.csv")
    log = checks.CheckLog()
    log.check("identical", checks.check_identical(w1, w2, "workers=1 vs 2"))
    small.check_output(log, inp, w1)
    wl.check_reference(deconf, log, tmp_path)
    assert log.attempted >= 5 and log.failed == 0


def test_plan_runs_and_passes_checks(tmp_path):
    plan = workloads.PLAN
    log = checks.CheckLog()
    for path in plan.make_inputs(5, tmp_path, count=3):
        plan.check_output(log, deconf, path, plan.run(deconf, path))
    plan.check_reference(deconf, log, tmp_path)
    assert log.attempted >= 5 * 15 and log.failed == 0


# ---------------------------------------------------------------------------
# every check can fail


@pytest.mark.parametrize("wl", SWEEPS, ids=lambda wl: wl.name)
def test_curve_checks_fail_on_perturbed_row(wl):
    rows = [tuple(r) for r in workloads.load_reference()[wl.name]]
    reps, instances = wl.reference[2], rows[0][6]
    assert checks.check_against_reference(rows, rows) == []
    assert checks.check_curve_rows(rows, wl.methods, wl.grid_kind, wl.grid,
                                   reps, instances) == []
    assert checks.check_curve_values(rows) == []

    policy, kind, value, mean, std, count, inst = rows[1]
    se = math.sqrt(2 * std**2 / count)
    shifted = rows[:1] + [(policy, kind, value, mean + 2 * checks.REFERENCE_Z * se,
                           std, count, inst)] + rows[2:]
    assert checks.check_against_reference(shifted, rows)
    assert checks.check_against_reference(rows[1:], rows)
    assert checks.check_curve_rows(rows[1:], wl.methods, wl.grid_kind, wl.grid,
                                   reps, instances)
    short = rows[:1] + [(policy, kind, value, mean, std, count - 1, inst)] + rows[2:]
    assert checks.check_curve_rows(short, wl.methods, wl.grid_kind, wl.grid,
                                   reps, instances)
    for bad in (math.nan, -0.1, 2.5):
        broken = rows[:1] + [(policy, kind, value, bad, std, count, inst)] + rows[2:]
        assert checks.check_curve_values(broken)
    assert checks.check_identical(b"a,1\n", b"a,2\n", "bytes")


def test_plan_checks_fail_on_perturbed_bound(tmp_path):
    plan = workloads.PLAN
    reference = workloads.load_reference()[plan.name]
    path = plan.reference_input(tmp_path)[0]
    record = plan.run(deconf, path)
    assert checks.check_plan_reference(record, reference[0]) == []

    def perturbed(change):
        copy = json.loads(json.dumps(record))
        change(copy)
        return checks.check_plan_reference(copy, reference[0])

    assert perturbed(lambda r: r["bounds"].update(m_usp=r["bounds"]["m_usp"] * (1 + 1e-9)))
    assert perturbed(lambda r: r["m_star"].update(owsp=(r["m_star"]["owsp"] or 0) + 1))
    assert perturbed(lambda r: r["plan"].update(margin=r["plan"]["margin"] * (1 + 1e-9)))
    assert perturbed(lambda r: r["plan"].update(n=r["plan"]["n"] + 1))

    bounds = dict(record["bounds"])
    spec = deconf.AccuracySpec(plan.epsilon, plan.delta, 2, plan.beta)
    assert checks.check_bound_invariants(bounds, spec.C, plan.beta) == []
    assert checks.check_bound_invariants({**bounds, "m_owsp": bounds["m_usp"] * 1.01},
                                         spec.C, plan.beta)
    assert checks.check_bound_invariants({**bounds, "M_owsp": bounds["M_owsp"] * 1.01},
                                         spec.C, plan.beta)

    budget = (plan.budget, plan.c_confounded, plan.c_deconfound)
    assert checks.check_budget_line(record["plan"], *budget) == []
    assert checks.check_budget_line({**record["plan"], "n": record["plan"]["n"] - 1}, *budget)
    assert checks.check_budget_line({**record["plan"], "weights": [0.5, 0.5, 0.5, -0.5]},
                                    *budget)

    def feasible(m):
        return m >= 40

    assert checks.check_min_m(40, 1000, feasible) == []
    assert checks.check_min_m(41, 1000, feasible)
    assert checks.check_min_m(39, 1000, feasible)
    assert checks.check_min_m(None, 1000, feasible)
    assert checks.check_min_m(None, 30, feasible) == []


# ---------------------------------------------------------------------------
# tracer


def traced_run(wl, inp, path):
    with Tracer().install(deconf) as tracer:
        data = run_bytes(wl, inp, 1, path)
    return tracer, data


def test_tracer_counts_repeat_and_leave_results_unchanged(tmp_path):
    small = tiny(workloads.WORKLOADS["finite-sweep"])
    inp = small.make_inputs(3, tmp_path)[0]
    plain = run_bytes(small, inp, 1, tmp_path / "plain.csv")
    first, data1 = traced_run(small, inp, tmp_path / "t1.csv")
    second, data2 = traced_run(small, inp, tmp_path / "t2.csv")
    assert data1 == plain and data2 == plain

    counts = [{k: v for k, (v, unit) in t.layer_metrics().items() if unit == "count"}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["estimation.calls"] == small.ops_per_call(inp)
    assert counts[0]["policies.calls"] > 0 and counts[0]["simulation.rng_streams"] > 0
    assert counts[0]["model.validations"] > 0 and counts[0]["simulation.draws"] > 0
    assert all(s[3] >= s[2] for s in first.spans)


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {name: unit for name, (_, unit) in Tracer().layer_metrics().items()}
    units.update({"simulation.pool_overhead_s": "s", "trace.overhead_frac": "ratio"})
    assert units == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_tracer_uninstall_restores_everything():
    before = (np.random.default_rng, deconf.run_finite_experiment,
              deconf.bounds.finite_feasible, deconf.model.JointDistribution.__post_init__)
    with Tracer().install(deconf):
        assert np.random.default_rng is not before[0]
        assert deconf.bounds.finite_feasible is not before[2]
    after = (np.random.default_rng, deconf.run_finite_experiment,
             deconf.bounds.finite_feasible, deconf.model.JointDistribution.__post_init__)
    assert after == before


def test_traced_generator_draws_like_numpy():
    expected = np.random.default_rng([7, 1, 2])
    with Tracer().install(deconf) as tracer:
        rng = np.random.default_rng([7, 1, 2])
        assert np.random.default_rng(rng) is rng
        got = (rng.multinomial(50, [0.2, 0.8]), rng.choice(4, size=5, p=[0.1, 0.2, 0.3, 0.4]),
               rng.permutation(6))
    want = (expected.multinomial(50, [0.2, 0.8]),
            expected.choice(4, size=5, p=[0.1, 0.2, 0.3, 0.4]), expected.permutation(6))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    metrics = tracer.layer_metrics()
    assert metrics["simulation.rng_streams"][0] == 1
    assert metrics["simulation.draws"][0] == 3


def test_solver_iterations_are_counted(tmp_path):
    plan = workloads.PLAN
    path = plan.make_inputs(9, tmp_path, count=1)[0]
    with Tracer().install(deconf) as tracer:
        plan.run(deconf, path)
    metrics = tracer.layer_metrics()
    # AccuracySpec validation, bound_report, 3 x solve_min_m, allocate_budget
    assert metrics["bounds.calls"][0] == 6
    assert metrics["io.calls"][0] == 1 and metrics["io.bytes"][0] == Path(path).stat().st_size
    assert metrics["bounds.solver_iters"][0] >= 1
    assert metrics["bounds.feasibility_checks"][0] > metrics["bounds.solver_iters"][0]


# ---------------------------------------------------------------------------
# the command


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infinite-sweep", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infinite-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
