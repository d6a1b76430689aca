"""Tests of the benchmark itself: tiny smoke runs and a gate that bites.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_harness():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    expected = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not os.listdir(os.path.join(ROOT, ".bench_build"))


def test_traced_counts_are_exact():
    proc = _run_bench("--workload", "closed_loop_small", "--seed", "3", "--seconds", "0", "--trace", "1",
                      "--size", "tiny")
    detail = next(json.loads(line)["detail"] for line in proc.stdout.splitlines() if line.startswith('{"detail"'))
    by_command = {c["command"]: c["layers"] for c in detail["breakdown"]}
    assert by_command["simulate sys1"]["controller.step_decide"]["calls"] == bench.HORIZON
    assert by_command["simulate sys1"]["riccati.dare_solve"]["calls"] == 1
    assert by_command["sweep sys1 coarse"]["riccati.dare_solve"]["calls"] == 4


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "sweep_small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metrics_take_medians_scaled_by_the_speed_probe():
    """Each sample is scaled by the typical probe of its speed state before the
    median; memory is not scaled."""
    p = bench.REF_S

    def done(wall, probe, stdout=""):
        return bench.Outcome(wall, 50.0, 0, stdout, "", probe)

    def session(p50_us, probe):
        step_probe = bench.STEP_REF_US * probe / p
        return done(9.0, p, json.dumps({"p50_us": p50_us, "probe_p50_us": step_probe}))

    steps = [bench.Step("sweep", "cli", [], check=lambda o: [], prices=100),
             bench.Step("simulate", "cli", [], check=lambda o: [], run_steps=1000),
             bench.Step("online", "online", [], check=lambda o: [])]
    # The slow samples took twice as long because the machine ran at half speed.
    runs = [[done(1.0, p), done(2.0, 2 * p), done(5.0, 2 * p)],
            [done(0.5, 2 * p)],
            [session(10.0, p), session(20.0, 2 * p), session(60.0, 2 * p)]]
    imports = [done(0.4, 2 * p), done(0.2, p), done(0.5, 2 * p)]
    assert bench.end_to_end_metrics(steps, runs, imports) == pytest.approx({
        "setup_s": 0.2, "wall_s": 1.25, "sweep_prices_per_s": 100.0, "mc_run_steps_per_s": 4000.0,
        "online_step_p50_us": 10.0, "peak_rss_mb": 50.0,
    })
    assert bench.end_to_end_metrics(steps, runs, imports, scaled=False) == pytest.approx({
        "setup_s": 0.4, "wall_s": 2.5, "sweep_prices_per_s": 50.0, "mc_run_steps_per_s": 2000.0,
        "online_step_p50_us": 20.0, "peak_rss_mb": 50.0,
    })


def test_state_probes_smooth_jitter_within_a_state():
    state = bench.state_probes([1.0, 1.1, 0.95, 1.6, 1.7, 1.65])
    assert state == {1.0: 1.0, 1.1: 1.0, 0.95: 1.0, 1.6: 1.65, 1.7: 1.65, 1.65: 1.65}


# --- the correctness gate -------------------------------------------------


def _reference_text(name="sys1_sweep.csv"):
    with open(os.path.join(bench.REFERENCE, name)) as fh:
        return fh.read()


def _edit_row(text, O, column, edit):
    lines = text.splitlines()
    header = lines[0].split(",")
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == O:
            cells[header.index(column)] = edit(cells[header.index(column)])
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_accepts_the_reference():
    for name in ("sys1_sweep.csv", "sys2_sweep.csv"):
        assert bench.check_sweep_reference(_reference_text(name), bench.load_reference(name), 301) == []


def test_gate_flags_t_star_off_by_one():
    bad = _edit_row(_reference_text(), "10.0", "T_star", lambda v: str(int(v) + 1))
    fails = bench.check_sweep_reference(bad, bench.load_reference("sys1_sweep.csv"), 301)
    assert len(fails) == 1 and "T*" in fails[0]


def test_gate_flags_a_perturbed_value():
    bad = _edit_row(_reference_text(), "42.0", "V", lambda v: repr(float(v) * (1 + 1e-7)))
    fails = bench.check_sweep_reference(bad, bench.load_reference("sys1_sweep.csv"), 301)
    assert len(fails) == 1 and "V=" in fails[0]
    close = _edit_row(_reference_text(), "42.0", "V", lambda v: repr(float(v) * (1 + 1e-12)))
    assert bench.check_sweep_reference(close, bench.load_reference("sys1_sweep.csv"), 301) == []


def test_gate_flags_missing_rows():
    text = "\n".join(_reference_text().splitlines()[:-1]) + "\n"
    assert bench.check_sweep_reference(text, bench.load_reference("sys1_sweep.csv"), 301)


def test_gate_flags_oracle_disagreement():
    oracle = [{"O": 1.5, "T": 3, "r": 10.0}, {"O": 80.0, "T": None, "r": 20.0}]
    good = "O,T_star,r\n1.5,3,10.0000000001\n80.0,inf,20.0\n"
    assert bench.check_sweep_oracle(good, oracle) == []
    assert bench.check_sweep_oracle(good.replace("1.5,3,", "1.5,4,"), oracle)
    assert bench.check_sweep_oracle(good.replace("80.0,inf", "80.0,90"), oracle)
    assert bench.check_sweep_oracle(good.replace("20.0\n", "20.001\n"), oracle)
    solve = {"O": 1.5, "T_star": 3, "r": 10.0}
    assert bench.check_solve_oracle(json.dumps(solve), oracle[0]) == []
    assert bench.check_solve_oracle(json.dumps({**solve, "T_star": 2}), oracle[0])


def test_gate_flags_mc_mean_off_the_closed_form():
    summary = {"mc_mean": 100.0, "mc_std_error": 0.5, "n_runs": 400}
    assert bench.check_mc(json.dumps(summary), 101.0, 400) == []
    assert bench.check_mc(json.dumps(summary), 102.5, 400)
    assert bench.check_mc(json.dumps(summary), 101.0, 20000)


def test_gate_flags_verify_and_online_failures():
    checks = [{"name": "period_match", "passed": False, "detail": ""}]
    assert bench.check_verify(json.dumps({"passed": True, "checks": []})) == []
    assert bench.check_verify(json.dumps({"passed": False, "checks": checks})) == ["verify failed: period_match"]
    session = {"steps": 600, "windows": 100, "mismatches": 0}
    assert bench.check_online(json.dumps(session), 600) == []
    assert bench.check_online(json.dumps({**session, "mismatches": 2}), 600)


def test_gate_counts_a_nonzero_exit(tmp_path):
    runner = bench.Bench(ROOT, str(tmp_path))
    tally = bench.Tally()
    step = bench.Step("solve missing", "cli", ["solve", "--problem", str(tmp_path / "missing.json")],
                      check=lambda outcome: [])
    outcome = runner.run_step(step, tally)
    assert outcome.exit_code != 0
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code" in tally.messages[0]


# --- program defects the benchmark steers clear of -------------------------


@pytest.fixture
def lqgsched_on_path(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import prepare

    return prepare


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="dare_solve stops at an absolute 1e-10 step while verify's "
                                                             "inner_collapse asks for a relative 1e-10 "
                                                             "(bench/README.md)")
def test_known_defect_inner_collapse_small_weights(lqgsched_on_path):
    from lqgsched import CostModel, never_measure_threshold, optimal_period, verify_solution

    problem = lqgsched_on_path.random_plant(2, weight_scale=0.1)
    threshold = never_measure_threshold(problem.sys, problem.cost)
    cost = CostModel(Q=problem.cost.Q, R=problem.cost.R, beta=problem.cost.beta, O=0.8 * threshold)
    report = verify_solution(problem.sys, cost, optimal_period(problem.sys, cost), x_probe=problem.x0)
    assert report.passed, report.failures()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="at O = S(1), where f(1) = f(2), the scheduler "
                                                             "picks T*=2 and the oracle T=1 (bench/README.md)")
def test_known_defect_bracket_edge(lqgsched_on_path):
    import numpy as np
    from lqgsched import CostModel, dare_solve, optimal_period, verify_solution

    problem = lqgsched_on_path.random_plant(1)
    are = dare_solve(problem.sys, problem.cost)
    S1 = float(np.trace(problem.sys.noise_gram() @ are.phi))
    cost = CostModel(Q=problem.cost.Q, R=problem.cost.R, beta=problem.cost.beta, O=S1)
    report = verify_solution(problem.sys, cost, optimal_period(problem.sys, cost, are=are), x_probe=problem.x0)
    assert report.passed, report.failures()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="just above the never-measure threshold the "
                                                             "oracle's f-curve differences round to 0 and "
                                                             "curve_decreasing fails (bench/README.md)")
def test_known_defect_curve_decreasing_near_threshold(lqgsched_on_path):
    from lqgsched import CostModel, never_measure_threshold, optimal_period, verify_solution

    problem = lqgsched_on_path.random_plant(410)
    threshold = never_measure_threshold(problem.sys, problem.cost)
    cost = CostModel(Q=problem.cost.Q, R=problem.cost.R, beta=problem.cost.beta, O=1.004 * threshold)
    report = verify_solution(problem.sys, cost, optimal_period(problem.sys, cost), x_probe=problem.x0)
    assert report.passed, report.failures()
