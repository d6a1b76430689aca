import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqgsched
import lqgsched.cli as cli
import lqgsched.riccati as riccati
from lqgsched import NonConvergence, Problem, never_measure_threshold, verify_solution
from lqgsched.cli import ProblemFileError, load_problem, main, save_problem

from conftest import (PROPERTY_SETTINGS, jordan_plant, make_problem, plant_q50_at_three_tenths, random_admissible,
                      scalar_problem, A1, A2)

SYS1 = os.path.join(os.path.dirname(__file__), "..", "configs", "sys1.json")
SYS2 = os.path.join(os.path.dirname(__file__), "..", "configs", "sys2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_problem_roundtrip(tmp_path):
    problem = make_problem(A1, 10.0)
    path = tmp_path / "p.json"
    save_problem(problem, path)
    back = load_problem(str(path))
    assert np.array_equal(back.sys.A, problem.sys.A)
    assert np.array_equal(back.sys.B, problem.sys.B)
    assert np.array_equal(back.sys.Sigma_S, problem.sys.Sigma_S)
    assert np.array_equal(back.cost.Q, problem.cost.Q)
    assert np.array_equal(back.cost.R, problem.cost.R)
    assert back.cost.beta == problem.cost.beta
    assert back.cost.O == problem.cost.O
    assert np.array_equal(back.x0, problem.x0)


@pytest.mark.parametrize("entry", ["x0", "A"])
def test_save_problem_refuses_a_non_finite_entry(tmp_path, entry):
    # JSON (RFC 8259) has no token for an infinity or a NaN; the file already at the path stays as it was
    problem = make_problem(A1, 10.0)
    if entry == "x0":
        problem = dataclasses.replace(problem, x0=[math.inf, 0.0, 0.0])
    else:
        problem = dataclasses.replace(problem, sys=dataclasses.replace(problem.sys, A=np.full((3, 3), math.nan)))
    path = tmp_path / "p.json"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"^{entry} has a NaN or infinite entry"):
        save_problem(problem, path)
    assert path.read_text() == "kept\n"


def test_solve_sys2_reports_threshold(capsys):
    code, out, _ = run(capsys, "solve", "--problem", SYS2, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "never_measure"
    assert doc["T_star"] is None
    assert abs(doc["never_measure_threshold"] - 6.4305) < 0.01
    assert doc["W_infinity"] is not None


def test_solve_sys1_period(capsys):
    code, out, _ = run(capsys, "solve", "--problem", SYS1, "--O", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["T_star"] == 6
    assert doc["case"] == "finite_period"
    assert doc["W_infinity"] is None


def test_solve_rejects_invalid_problem(tmp_path, capsys):
    with open(SYS1) as fh:
        d = json.load(fh)
    d["Q"] = [[-1.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code, out, err = run(capsys, "solve", "--problem", str(bad))
    assert code == 2
    assert "Q_not_psd" in err

    code, out, _ = run(capsys, "solve", "--problem", str(bad), "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert any(v["code"] == "Q_not_psd" for v in doc["error"]["violations"])


def test_sweep_period_table(capsys):
    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", "10", "--O-max", "90", "--O-step", "40"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("O,T_star,r,V,V_s,V_e,saving")
    table = {float(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
    assert table[10.0] == 6 and table[50.0] == 8

    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", "300", "--O-max", "300", "--O-step", "1"
    )
    assert int(out.strip().split("\n")[1].split(",")[1]) == 10


def test_sweep_from_zero_starts_at_one(capsys):
    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", "0", "--O-max", "0.1", "--O-step", "0.05"
    )
    assert code == 0
    first = out.strip().split("\n")[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 1


def test_log_sweep_growth_shape(capsys):
    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1,
        "--O-min", "0.01", "--O-max", "1000", "--O-log", "25",
    )
    assert code == 0
    Ts = [int(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
    assert all(b >= a for a, b in zip(Ts, Ts[1:]))  # nondecreasing in O
    jumps = [b - a for a, b in zip(Ts, Ts[1:])]
    assert max(jumps) <= 3  # grows by bounded increments per decade
    assert Ts[-1] - Ts[0] >= 5


def test_sweep_prices_do_not_drift(capsys):
    # O_min + k step in decimal, counted exactly: no slack adds a price past O_max, however small the step
    for (lo, hi, step), prices in [
        (("0", "1", "0.1"), [k / 10 for k in range(11)]),
        (("0", "1e-13", "1e-13"), [0.0, 1e-13]),
        (("0", "1e-16", "1e-17"), [float(f"{k}e-17") for k in range(11)]),
        (("1e10", "1e10", "1e-12"), [1e10]),
    ]:
        code, out, _ = run(capsys, "sweep", "--problem", SYS1, "--O-min", lo, "--O-max", hi, "--O-step", step)
        assert code == 0
        assert [l.split(",")[0] for l in out.strip().split("\n")[1:]] == [repr(O) for O in prices]


@pytest.mark.parametrize("sweep_args", [
    ("--O-min", "0", "--O-max", "12", "--O-step", "0.75"),
    ("--O-min", "0.01", "--O-max", "1000", "--O-log", "7"),
])
@pytest.mark.parametrize("problem", [SYS1, SYS2])
def test_sweep_row_equals_solve(capsys, problem, sweep_args):
    code, out, _ = run(capsys, "sweep", "--problem", problem, *sweep_args, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 7
    for row in rows:
        code, out, _ = run(capsys, "solve", "--problem", problem, "--O", repr(row["O"]), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        shared = set(row) & set(doc)
        assert shared >= {"O", "T_star", "r", "V", "V_s", "V_e", "V_reported", "V_s_reported"}
        assert {k: row[k] for k in shared} == {k: doc[k] for k in shared}


def _count_calls(monkeypatch, name):
    """Count the calls of a riccati function through every lqgsched module that binds it."""
    original, calls = getattr(riccati, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("lqgsched")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ("sweep", "--O-min", "0", "--O-max", "300", "--O-step", "10"),
    ("solve", "--O", "1"),
    ("solve", "--O", "10"),
])
@pytest.mark.parametrize("problem", [SYS1, SYS2])
def test_one_riccati_solve_per_command(capsys, monkeypatch, problem, argv):
    dare = _count_calls(monkeypatch, "dare_solve")
    code, _, _ = run(capsys, argv[0], "--problem", problem, *argv[1:])
    assert code == 0
    assert len(dare) == 1


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _bad_problem_files(tmp_path):
    with open(SYS1) as fh:
        text = fh.read()
    d = json.loads(text)
    del d["B"]
    deep = "[" * 100_000 + "]" * 100_000  # json.load raises RecursionError
    return {
        "missing file": str(tmp_path / "absent.json"),
        "malformed json": _write(tmp_path, "malformed.json", "{\"A\": [[1.0]"),
        "missing key": _write(tmp_path, "no_B.json", json.dumps(d)),
        "deeply nested": _write(tmp_path, "nested.json", "[" * 100_000),
        "deep x0": _write(tmp_path, "deep_x0.json", text.replace("[20.0, -15.0, 10.0]", deep)),
    }


@pytest.mark.parametrize("case", ["missing file", "malformed json", "missing key", "deeply nested", "deep x0", "list"])
def test_load_problem_raises_problem_file_error(tmp_path, case):
    files = {**_bad_problem_files(tmp_path), "list": _write(tmp_path, "list.json", "[1.0, 2.0]")}
    causes = {"missing file": FileNotFoundError, "malformed json": json.JSONDecodeError,
              "missing key": KeyError, "deeply nested": RecursionError, "deep x0": RecursionError, "list": TypeError}
    with pytest.raises(ProblemFileError) as info:
        load_problem(files[case])
    assert isinstance(info.value.__cause__, causes[case])
    assert str(info.value).startswith(files[case] + ": ")


COMMANDS = [
    ("solve",),
    ("sweep", "--O-min", "0", "--O-max", "10", "--O-step", "5"),
    ("simulate", "--horizon", "10"),
    ("verify",),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@pytest.mark.parametrize("case", ["missing file", "malformed json", "missing key", "deeply nested", "deep x0"])
def test_bad_problem_file_exits_2(tmp_path, capsys, command, fmt, case):
    path = _bad_problem_files(tmp_path)[case]
    code, out, err = run(capsys, command[0], "--problem", path, *command[1:], "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "bad_problem"
    else:
        assert out == "" and err.startswith("bad problem file: ")
    if case == "missing key":
        assert "'B'" in (out if fmt == "json" else err)


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_unwritable_out_exits_2(tmp_path, capsys, command, fmt, target):
    out_path = str(tmp_path / "missing" / "out.txt" if target == "missing directory" else tmp_path)
    code, out, err = run(capsys, command[0], "--problem", SYS1, *command[1:], "--format", fmt, "--out", out_path)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "bad_output"
    else:
        assert out == "" and err.startswith("cannot write output: ") and out_path in err


def test_failing_command_leaves_its_out_file_alone(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    out_file.write_text("kept\n")
    code, _, _ = run(capsys, "sweep", "--problem", SYS1, "--O-min", "10", "--O-max", "5", "--O-step", "1",
                     "--out", str(out_file))
    assert code == 2 and out_file.read_text() == "kept\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_validation_failure_exits_2(tmp_path, capsys, command, fmt):
    with open(SYS1) as fh:
        d = json.load(fh)
    d["R"] = [[-1.0, 0.0], [0.0, 0.2]]
    path = _write(tmp_path, "bad_R.json", json.dumps(d))
    code, out, err = run(capsys, command[0], "--problem", path, *command[1:], "--format", fmt)
    assert code == 2
    if fmt == "json":
        doc = json.loads(out)["error"]
        assert doc["code"] == "validation"
        assert [v["code"] for v in doc["violations"]] == ["R_not_pd"]
    else:
        assert out == "" and err.startswith("validation failed:") and "R_not_pd" in err


ILL_POSED = {  # A = diag(2, 0.5) is unstable even under the discount
    "not_stabilizable": {"B": [[0.0], [1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]]},
    "not_detectable": {"B": [[1.0], [1.0]], "Q": [[0.0, 0.0], [0.0, 1.0]]},
}


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@pytest.mark.parametrize("violation", list(ILL_POSED))
def test_ill_posed_plant_exits_2_before_solving(tmp_path, capsys, monkeypatch, violation, command):
    d = {"A": [[2.0, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]], "Sigma_S": [[0.1, 0.0], [0.0, 0.1]],
         "R": [[1.0]], "beta": 0.95, "O": 1.0, **ILL_POSED[violation]}
    path = _write(tmp_path, "ill_posed.json", json.dumps(d))
    for module in [m for n, m in sys.modules.items() if n.startswith("lqgsched")]:
        if hasattr(module, "dare_solve"):
            monkeypatch.setattr(module, "dare_solve", lambda *a: pytest.fail("solved an ill-posed plant"))
    code, out, _ = run(capsys, command[0], "--problem", path, *command[1:], "--format", "json")
    assert code == 2
    doc = json.loads(out)["error"]
    assert doc["code"] == "validation"
    assert [v["code"] for v in doc["violations"]] == [violation]


@pytest.mark.parametrize("violation", ["not_stabilizable", "not_detectable"])
def test_jordan_block_plant_exits_2(tmp_path, capsys, violation):
    # the rank tests run at the mean of the eigenvalues that eigvals scatters about the double one
    path = str(tmp_path / "jordan.json")
    save_problem(jordan_plant(violation), path)
    code, out, _ = run(capsys, "solve", "--problem", path, "--format", "json")
    assert code == 2
    assert [v["code"] for v in json.loads(out)["error"]["violations"]] == [violation]


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@pytest.mark.parametrize("problem", [SYS1, SYS2])
def test_eigenvalues_of_A_computed_once_per_command(capsys, monkeypatch, problem, command):
    original, calls = np.linalg.eigvals, []

    def counted(M):
        calls.append(M.shape)
        return original(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    code, _, _ = run(capsys, command[0], "--problem", problem, *command[1:])
    assert code == 0
    assert calls == [(3, 3)]


def _cold_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's lqgsched.

    PYTHONUNBUFFERED is dropped, so the child's output to its pipes is block-buffered, as a user's is.
    A RuntimeWarning in the child is an error, as it is in this suite (pyproject.toml).
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(lqgsched.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def _run_cold(args):
    """Run ``python *args`` in a fresh interpreter (see _cold_env)."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_cold_env(), timeout=120)


def test_zero_A_solves_with_empty_stderr(tmp_path):
    # A = 0 is stable, hence stabilizable: no rank-test warning may reach stderr
    path = tmp_path / "zero_A.json"
    save_problem(make_problem(np.zeros((3, 3)), 1.0), path)
    proc = _run_cold(["-m", "lqgsched.cli", "solve", "--problem", str(path), "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["case"] == "never_measure"  # A = 0: a measurement is worth nothing


def _ill_conditioned_plant():
    sys_, cost = random_admissible(np.random.default_rng(3962091121))  # max|P| about 1e7
    return Problem(sys=sys_, cost=dataclasses.replace(cost, O=1.0))


def _sys2_with_large_noise():
    p, c = make_problem(A2, 7.0), 4.0**12
    return dataclasses.replace(p, sys=dataclasses.replace(p.sys, Sigma_S=c * p.sys.Sigma_S),
                               cost=dataclasses.replace(p.cost, O=c * p.cost.O))


@pytest.mark.parametrize("problem, case", [(_ill_conditioned_plant, "measure_every_step"),
                                           (_sys2_with_large_noise, "never_measure")])
def test_valid_plant_of_any_scale_solves(tmp_path, capsys, problem, case):
    # Absolute stops failed both with exit 3: the Riccati step on a large P, the Lyapunov residual on a large W.
    path = str(tmp_path / "p.json")
    save_problem(problem(), path)
    code, out, _ = run(capsys, "solve", "--problem", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["case"] == case


def test_a_lyapunov_residual_above_its_bound_exits_3(capsys, monkeypatch):
    # at a bound of 0 every limit of the phase sums is refused: sys2 has a threshold to solve, sys1 (unstable) none
    monkeypatch.setattr(riccati, "LYAPUNOV_RESIDUAL_TOL", 0.0)
    code, out, _ = run(capsys, "solve", "--problem", SYS2, "--O", "3", "--format", "json")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "non_convergence"
    assert re.fullmatch(r"relative Lyapunov residual \S+ exceeds 0\.0e\+00", error["message"]), error["message"]
    assert run(capsys, "solve", "--problem", SYS1, "--O", "3", "--format", "json")[0] == 0


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_commands_accept_weights_and_price_scaled_by_4_to_the_minus_30(capsys, tmp_path, command):
    # (Q, R, O) 4^-30 times sys1's at O = 10 scales r by exactly 4^-30; validate's cutoffs are relative to each
    # matrix, so R = 1.7e-19 I is no less definite than 0.2 I, and Q weighs every mode as much as before
    c = 4.0**-30
    problem = make_problem(A1, 10.0)
    path = str(tmp_path / "small.json")
    save_problem(dataclasses.replace(problem, cost=dataclasses.replace(
        problem.cost, Q=c * problem.cost.Q, R=c * problem.cost.R, O=c * problem.cost.O)), path)
    code, out, _ = run(capsys, command, "--problem", path, "--format", "json")
    assert code == 0
    if command == "solve":
        unscaled = json.loads(run(capsys, "solve", "--problem", SYS1, "--format", "json")[1])
        doc = json.loads(out)
        assert (doc["T_star"], doc["r"]) == (6, c * unscaled["r"])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_non_convergence_exits_3(capsys, monkeypatch, command, fmt):
    def diverges(*args, **kwargs):
        raise NonConvergence("Riccati iteration did not converge", residual=1.0)

    monkeypatch.setattr("lqgsched.policy.dare_solve", diverges)
    code, out, err = run(capsys, command[0], "--problem", SYS1, *command[1:], "--format", fmt)
    assert code == 3
    if fmt == "json":
        assert json.loads(out) == {"error": {"code": "non_convergence", "message": "Riccati iteration did not converge"}}
    else:
        assert out == "" and err == "solver failed: Riccati iteration did not converge\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("sizes, message", [
    (("--runs", "0"), "n_runs must be >= 1"),
    (("--runs", "-3"), "n_runs must be >= 1"),
    (("--horizon", "0"), "horizon must be >= 1"),
    (("--seed", "-1"), "seed must be >= 0"),
], ids=["--runs 0", "--runs -3", "--horizon 0", "--seed -1"])
def test_bad_simulation_size_exits_2(capsys, sizes, message, fmt):
    code, out, err = run(capsys, "simulate", "--problem", SYS1, *sizes, "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == {"code": "bad_simulation", "message": message}
    else:
        assert out == "" and err == message + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("stage", ["simulate", "monte_carlo_value"])
def test_simulation_too_large_exits_2(capsys, monkeypatch, stage, fmt):
    # a huge --runs or --horizon fails to allocate; stand in for it without allocating
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli, stage, out_of_memory)
    code, out, err = run(capsys, "simulate", "--problem", SYS1, "--O", "10", "--runs", "2", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out) == {"error": {
            "code": "bad_simulation",
            "message": "simulation too large: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)",
        }}
    else:
        assert out == "" and err.startswith("simulation too large: Unable to allocate 7.28 TiB")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_too_many_runs_exits_2(capsys, monkeypatch, fmt):
    # rejected when the configuration is built: nothing is solved or simulated
    monkeypatch.setattr(cli, "_solve_problem", lambda problem: pytest.fail("solved a rejected simulation"))
    code, out, err = run(capsys, "simulate", "--problem", SYS1, "--runs", "1000000000000", "--format", fmt)
    assert code == 2
    message = "n_runs must be <= 1000000"
    if fmt == "json":
        assert json.loads(out) == {"error": {"code": "bad_simulation", "message": message}}
    else:
        assert out == "" and err == message + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("horizon, runs", [
    pytest.param(horizon, runs, id=horizon if runs == "1" else f"{horizon}-runs{runs}")
    for runs in ("1", "2") for horizon in ("1000000000000000000", "9223372036854775808", str(10**20))
])
def test_simulate_at_an_absurd_horizon_exits_2(capsys, horizon, runs, fmt):
    # numpy refuses these trajectories with ValueError (too big for the address space), at once; with
    # --runs 2 the trajectory is allocated before any Monte Carlo step, which would run for ages
    code, out, err = run(capsys, "simulate", "--problem", SYS1, "--horizon", horizon, "--runs", runs,
                         "--format", fmt)
    assert code == 2
    message = json.loads(out)["error"] if fmt == "json" else {"code": "bad_simulation", "message": err}
    assert message["code"] == "bad_simulation"
    assert message["message"].startswith(f"simulation too large: a trajectory of {horizon} steps cannot be allocated")
    if fmt == "text":
        assert out == ""


def test_simulate_holds_the_trajectory_and_the_monte_carlo_one_at_a_time(tmp_path, capsys):
    # The Monte Carlo runs before the trajectory is rolled, so the traced peak stays below the two working sets
    # together: the trajectory's record, 3q + p + 6 values a step, and one chunk's budget, 6q + p values a run.
    import tracemalloc

    problem = plant_q50_at_three_tenths()
    path = tmp_path / "q50.json"
    save_problem(problem, path)
    q, p, H, n = problem.q, problem.p, 500, 400
    tracemalloc.start()
    try:
        code = main(["simulate", "--problem", str(path), "--horizon", str(H), "--runs", str(n),
                     "--out", str(tmp_path / "traj.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "mc_mean" in json.loads(capsys.readouterr().out)
    assert peak < 8 * H * (3 * q + p + 6) + 8 * n * (6 * q + p)


def _non_finite_case(tmp_path, case):
    with open(SYS1) as fh:
        d = json.load(fh)
    if case == "O nan":
        return SYS1, ["--O", "nan"]
    if case == "nan in A":
        d["A"][0][1] = float("nan")
    else:
        d["Sigma_S"][2][2] = float("inf")
    return _write(tmp_path, "non_finite.json", json.dumps(d)), []


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ["nan in A", "inf in Sigma_S", "O nan"])
def test_non_finite_input_exits_2(tmp_path, capsys, case, fmt):
    path, extra = _non_finite_case(tmp_path, case)
    code, out, err = run(capsys, "solve", "--problem", path, *extra, "--format", fmt)
    assert code == 2
    if fmt == "json":
        doc = json.loads(out)["error"]
        assert doc["code"] == "validation"
        assert [v["code"] for v in doc["violations"]] == ["non_finite"]
    else:
        assert out == "" and err.startswith("validation failed:") and "non_finite" in err


def _undecomposable_case(tmp_path, case):
    with open(SYS1) as fh:
        d = json.load(fh)
    if case == "huge A":
        d["A"] = [[1e308] * 3 for _ in range(3)]
    else:
        d["Q"] = (1e308 * np.eye(3)).tolist()
    return _write(tmp_path, "undecomposable.json", json.dumps(d))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@pytest.mark.parametrize("case", ["huge A", "huge Q"])
def test_undecomposable_input_exits_2(tmp_path, capsys, case, command, fmt):
    # finite, but numpy's SVD (huge A) or eigvalsh (huge Q) does not converge: a violation, not a LinAlgError
    path = _undecomposable_case(tmp_path, case)
    code, out, err = run(capsys, command[0], "--problem", path, *command[1:], "--format", fmt)
    assert code == 2
    matrix = case.split()[1]
    if fmt == "json":
        doc = json.loads(out)["error"]
        assert doc["code"] == "validation"
        assert [v["code"] for v in doc["violations"]] == ["decomposition_failed"]
        assert doc["violations"][0]["message"].startswith(f"{matrix} could not be decomposed")
    else:
        assert out == "" and err.startswith(f"validation failed:\n  decomposition_failed: {matrix} could not be")


def test_sweep_needs_range(capsys):
    code, _, err = run(capsys, "sweep", "--problem", SYS1)
    assert code == 2


@pytest.mark.parametrize("bounds", [("0", "inf", "1"), ("0", "10", "nan")])
def test_sweep_rejects_non_finite_range(capsys, bounds):
    lo, hi, step = bounds
    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", lo, "--O-max", hi, "--O-step", step, "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_range"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("bounds", [("1", "inf"), ("nan", "10")], ids=" ".join)
def test_log_sweep_rejects_non_finite_range(capsys, bounds, fmt):
    lo, hi = bounds
    code, out, err = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", lo, "--O-max", hi, "--O-log", "3", "--format", fmt
    )
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == {"code": "bad_range", "message": "--O-min and --O-max must be finite"}
    else:
        assert out == "" and err == "--O-min and --O-max must be finite\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("grid", [("--O-log", "1000000000000"), ("--O-max", "1e15", "--O-step", "1"),
                                  ("--O-max", "1e308", "--O-step", "1e-300")], ids=["log", "step", "overflow"])
def test_huge_sweep_exits_2(capsys, monkeypatch, grid, fmt):
    # the price count is checked before any grid is built or any price solved
    for owner, name in ((cli, "Decimal"), (np, "geomspace"), (cli, "load_problem")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"{name} called for a rejected sweep"))
    lo = "1" if grid[0] == "--O-log" else "0"
    extra = ("--O-max", "10") if grid[0] == "--O-log" else ()
    code, out, err = run(capsys, "sweep", "--problem", SYS1, "--O-min", lo, *extra, *grid, "--format", fmt)
    assert code == 2
    message = json.loads(out)["error"]["message"] if fmt == "json" else err
    assert "a sweep tabulates at most 100000" in message
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "bad_range"
    else:
        assert out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("grid", [("--O-max", "110000", "--O-step", "1.1"), ("--O-max", "7000", "--O-step", "0.07")],
                         ids=["110000", "7000"])
def test_sweep_of_one_price_too_many_exits_2(capsys, monkeypatch, grid, fmt):
    # exactly 100000 steps: the float estimate rounds below the limit, and the exact count in decimal catches it
    monkeypatch.setattr(cli, "load_problem", lambda *a: pytest.fail("load_problem called for a rejected sweep"))
    code, out, err = run(capsys, "sweep", "--problem", SYS1, "--O-min", "0", *grid, "--format", fmt)
    assert code == 2
    message = "the grid has more than 100000 prices; a sweep tabulates at most 100000"
    if fmt == "json":
        assert json.loads(out)["error"] == {"code": "bad_range", "message": message}
    else:
        assert (out, err) == ("", message + "\n")


ORDER = "a sweep needs 0 <= --O-min <= --O-max: a measurement price is never negative"
TABULATES = "a sweep tabulates at most 100000 and at least 1"


@pytest.mark.parametrize("grid, message", [
    (("--O-min", "-5", "--O-max", "1", "--O-step", "1"), ORDER),
    (("--O-min", "10", "--O-max", "5", "--O-step", "1"), ORDER),
    (("--O-min", "10", "--O-max", "5", "--O-log", "3"), ORDER),
    (("--O-min", "1", "--O-max", "10", "--O-log", "0"), "--O-log asks for 0 prices; " + TABULATES),
    (("--O-min", "1", "--O-max", "10", "--O-log", "-2"), "--O-log asks for -2 prices; " + TABULATES),
    (("--O-min", "0", "--O-max", "10", "--O-log", "5"), "--O-min must be positive for a log sweep"),
    (("--O-min", "0", "--O-max", "10", "--O-step", "0"), "--O-step must be positive"),
    (("--O-min", "0", "--O-max", "10", "--O-step", "-1"), "--O-step must be positive"),
], ids=["negative", "reversed", "log-reversed", "log-empty", "log-negative", "log-from-zero", "step-zero",
        "step-negative"])
def test_sweep_rejects_negative_or_empty_grid(capsys, grid, message):
    # a negative price would solve as T* = 1, and the other grids tabulate no price at all
    code, out, _ = run(capsys, "sweep", "--problem", SYS1, *grid, "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == {"code": "bad_range", "message": message}


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_format_csv_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command[0], "--problem", SYS1, *command[1:], "--format", "csv"])
    assert info.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def _solve_json(capsys, tmp_path, problem, O):
    path = str(tmp_path / "p.json")
    save_problem(problem, path)
    code, out, err = run(capsys, "solve", "--problem", path, "--O", repr(O), "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


@pytest.mark.parametrize("a, O, T_star", [
    (0.9999, 0.5, 3485), (0.9999, 0.8, 8066), (0.9999, 0.9, 11532), (0.9999, 0.99, 23044),
    (1.0, 1e4, 5455), (1.0, 1e5, 54378),
], ids=["0.5thr", "0.8thr", "0.9thr", "0.99thr", "marginal-1e4", "marginal-1e5"])
def test_solve_far_from_and_near_the_threshold(capsys, tmp_path, a, O, T_star):
    # a = 0.9999 at fractions of its threshold (9160.8), a = 1 at absolute prices: the search
    # has no cap, and T* agrees with a direct float64 sum of the brackets
    problem = scalar_problem(a, 0.0)
    if a < 1.0:
        O *= never_measure_threshold(problem.sys, problem.cost)
    assert _solve_json(capsys, tmp_path, problem, O)["T_star"] == T_star


def test_cold_solve_at_a_long_period(tmp_path):
    path = str(tmp_path / "marginal.json")
    save_problem(scalar_problem(1.0, 1e5), path)
    proc = _run_cold(["-m", "lqgsched.cli", "solve", "--problem", path, "--format", "json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["T_star"] == 54378


def test_solve_at_a_huge_price_overflows_silently(capsys, tmp_path):
    # sys1 is unstable: the blocks of 2^11 phases and more overflow, and read as S = inf > O
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = _solve_json(capsys, tmp_path, load_problem(SYS1), 1e300)
    assert doc["T_star"] == 1133 and math.isfinite(doc["r"])


def test_bounded_sums_above_the_price_exit_3(capsys, tmp_path):
    # spectral radius 1 - 1e-10: no threshold is set, and S(T) stays below this O for every T
    path = str(tmp_path / "p.json")
    save_problem(scalar_problem(1.0 - 1e-10, 1e30), path)
    code, out, err = run(capsys, "solve", "--problem", path)
    assert (code, out) == (3, "")
    assert "is still at or below O = 1e+30 at T = 2^128" in err


@pytest.fixture
def huge_x0(tmp_path):
    """sys1 started at x0 = [1e200, 0, 0], where x0'P x0 overflows to inf."""
    path = str(tmp_path / "huge_x0.json")
    save_problem(dataclasses.replace(load_problem(SYS1), x0=[1e200, 0.0, 0.0]), path)
    return path


OVERFLOW = "is not a finite number: the result overflowed the float range"


def _overflow_reported(fmt, out, err, message):
    if fmt == "json":
        return json.loads(out) == {"error": {"code": "overflow", "message": message}} and err == ""
    return (out, err) == ("", message + "\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_exits_3_instead_of_printing_inf(capsys, huge_x0, fmt):
    # JSON has no token for an infinity, and a value of inf is no answer in the text report either
    code, out, err = run(capsys, "solve", "--problem", huge_x0, "--O", "10", "--format", fmt)
    assert code == 3
    assert _overflow_reported(fmt, out, err, f"V {OVERFLOW}")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sweep_and_simulate_exit_3_before_writing_inf(capsys, tmp_path, huge_x0, fmt):
    out_file = tmp_path / "kept.txt"
    out_file.write_text("before\n")
    sweep = ["sweep", "--O-min", "1", "--O-max", "3", "--O-step", "1"]
    simulate = ["simulate", "--O", "10", "--horizon", "20"]
    for argv, message in ((sweep, f"V at O = 1.0 {OVERFLOW}"), (simulate, f"realized_discounted_cost {OVERFLOW}")):
        code, out, err = run(capsys, *argv, "--problem", huge_x0, "--format", fmt, "--out", str(out_file))
        assert code == 3, argv[0]
        assert _overflow_reported(fmt, out, err, message), argv[0]
        assert out_file.read_text() == "before\n"


def test_verify_reports_overflow_of_the_oracle_grid(capsys):
    # the oracle's explicit powers of A overflow on its 4 T* grid; the first r is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--problem", SYS1, "--O", "1e100")
    assert (code, out) == (3, "")
    assert "the explicit powers of A overflow on the oracle's grid of" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_exits_3_when_the_oracle_grid_is_past_the_address_space(capsys, tmp_path, fmt):
    # a plant with a unit root: T* = 54358851877227704320 at O = 1e20, and the grid of 4 T* is past any array size
    save_problem(scalar_problem(1.0, 1e20), tmp_path / "p.json")
    code, out, err = run(capsys, "verify", "--problem", str(tmp_path / "p.json"), "--format", fmt)
    assert code == 3
    message = "the oracle's grid of 217435407508910817280 waiting times cannot be allocated: "
    if fmt == "json":
        error = json.loads(out)["error"]
        assert error["code"] == "non_convergence" and error["message"].startswith(message)
    else:
        assert out == "" and err.startswith("solver failed: " + message)


def _refuse_large_arrays(monkeypatch, limit=3e9):
    """np.empty raises numpy's MemoryError for more than limit bytes, as under a 3 GB address-space cap.

    Such a grid must never be allocated for real: with overcommit it can succeed, and its loop then runs for hours.
    """
    empty = np.empty

    def capped(shape, *args, **kwargs):
        if 8 * math.prod(np.atleast_1d(shape).tolist()) > limit:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", capped)


def test_verify_exits_3_when_the_oracle_grid_does_not_fit_in_memory(capsys, tmp_path, monkeypatch):
    # A = 1 - 1e-10 at O = 1e9: T* = 575470380, and the grid of 4 T* waiting times asks for 17.2 GiB
    save_problem(scalar_problem(1 - 1e-10, 1e9), tmp_path / "p.json")
    _refuse_large_arrays(monkeypatch)
    code, out, err = run(capsys, "verify", "--problem", str(tmp_path / "p.json"), "--format", "json")
    assert code == 3
    assert json.loads(out) == {"error": {"code": "non_convergence", "message": (
        "the oracle's grid of 2301881520 waiting times cannot be allocated: "
        "Unable to allocate an array with shape 2301881520")}}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_exits_3_when_the_probe_value_overflows(capsys, huge_x0, fmt):
    # inner_collapse has no finite x0'P x0 + r to compare the window's cost with: an overflow, not a failed check
    code, out, err = run(capsys, "verify", "--problem", huge_x0, "--O", "10", "--format", fmt)
    assert code == 3
    assert _overflow_reported(fmt, out, err, f"the probe value x0'P x0 + r {OVERFLOW}")


def test_verify_of_a_never_measure_schedule_reads_no_probe(capsys, tmp_path):
    # above sys2's threshold of 6.43 no window is checked, so a huge x0 changes nothing
    path = str(tmp_path / "huge_x0.json")
    save_problem(dataclasses.replace(load_problem(SYS2), x0=[1e200, 0.0, 0.0]), path)
    huge = run(capsys, "verify", "--problem", path, "--O", "10")
    assert huge[:2] == run(capsys, "verify", "--problem", SYS2, "--O", "10")[:2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_reports_overflowed_moments_and_nothing_else(capsys, tmp_path, fmt):
    # Sigma_S = 1e300 I: each run's cost is finite, the squares of their deviations from the mean are not
    problem = load_problem(SYS1)
    path = str(tmp_path / "huge_noise.json")
    save_problem(dataclasses.replace(problem, sys=dataclasses.replace(problem.sys, Sigma_S=1e300 * np.eye(3))), path)
    argv = ["--problem", path, "--runs", "3", "--horizon", "50", "--format", fmt, "--out", str(tmp_path / "t.csv")]
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 3
    assert _overflow_reported(fmt, out, err, f"mc_std_error {OVERFLOW}")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_overflow_no_figure_names_exits_3(capsys, monkeypatch, fmt):
    # main runs the command with floating-point errors raised, so the overflow stops it with its stage named
    def overflowing(*args, **kwargs):
        return np.float64(1e300) * np.float64(1e300)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError) as raised:
        overflowing()
    monkeypatch.setattr(cli, "verify_solution", overflowing)
    code, out, err = run(capsys, "verify", "--problem", SYS1, "--O", "10", "--format", fmt)
    assert code == 3
    assert _overflow_reported(fmt, out, err, f"verify overflowed the float range: {raised.value}")


def test_simulate_csv_and_summary(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "simulate", "--problem", SYS1, "--O", "50",
        "--horizon", "70", "--seed", "4", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["n_measurements"] == 8
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 71
    fired = [int(l.split(",")[0]) for l in lines[1:] if l.split(",")[-3] == "1"]
    assert fired == [8, 16, 24, 32, 40, 48, 56, 64]


def test_simulate_never_measures_on_stable(capsys):
    code, out, err = run(
        capsys, "simulate", "--problem", SYS2, "--horizon", "40", "--seed", "1"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert all(r.split(",")[-3] == "0" for r in rows)
    assert json.loads(err)["n_measurements"] == 0


def test_simulate_multi_run_summary(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "simulate", "--problem", SYS1, "--O", "10",
        "--horizon", "60", "--seed", "2", "--runs", "50", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert "mc_mean" in summary and "mc_std_error" in summary
    assert summary["n_runs"] == 50


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("token", ["fixed:0", "fixed:-2"])
def test_simulate_rejects_fixed_period_below_one(capsys, token, fmt):
    code, out, err = run(capsys, "simulate", "--problem", SYS1, "--strategy", token, "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "bad_strategy"
    else:
        assert out == "" and "period >= 1" in err


def test_always_is_fixed_period_one(capsys):
    csvs = [run(capsys, "simulate", "--problem", SYS1, "--horizon", "40", "--seed", "5", "--strategy", s)[1]
            for s in ("always", "fixed:1")]
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("token", [f"fixed:{2**63}", f"fixed:{10**20}"])
def test_period_past_any_horizon_never_measures(capsys, token):
    # np.arange cannot hold steps of 2**63 and more; no such step falls within the horizon anyway
    runs = {s: run(capsys, "simulate", "--problem", SYS1, "--O", "10", "--horizon", "40", "--strategy", s)
            for s in (token, "never")}
    (code, csv, err), (_, never_csv, _) = runs[token], runs["never"]
    assert code == 0 and json.loads(err)["n_measurements"] == 0
    assert csv == never_csv


def test_simulate_rejects_unknown_strategy(capsys):
    code, _, err = run(
        capsys, "simulate", "--problem", SYS1, "--strategy", "sometimes"
    )
    assert code == 2


VERIFY_KEYS = {"passed", "checks", "r_oracle", "T_oracle", "grid_capped"}


def test_verify_benchmarks_pass(capsys):
    code, out, _ = run(capsys, "verify", "--problem", SYS1, "--O", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["T_oracle"] == 6
    # the document holds only what decides the checks
    assert set(doc) == VERIFY_KEYS
    assert len(out.splitlines()) < 40

    code, out, _ = run(capsys, "verify", "--problem", SYS2, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert doc["grid_capped"]
    assert set(doc) == VERIFY_KEYS


@pytest.mark.parametrize("O, T_star", [(1e80, 132), (1e120, 198)])
def test_verify_passes_the_scalar_unstable_plant_at_a_huge_price(capsys, tmp_path, O, T_star):
    # A = 2: the cycle cost f(T, r) overflows to inf on the oracle's grid past T*, but no check reads f
    save_problem(scalar_problem(2.0, O), tmp_path / "p.json")
    code, out, err = run(capsys, "verify", "--problem", str(tmp_path / "p.json"), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True and doc["T_oracle"] == T_star


def test_verify_passes_a_plant_whose_schedules_all_tie(capsys, tmp_path):
    # Q = 0 and O = 0: P = r = 0, h is exactly 0 on the whole grid, and the oracle's r agrees exactly
    plant = json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "Sigma_S": [[0.1]], "Q": [[0.0]], "R": [[1.0]],
                        "beta": 0.95, "O": 0.0, "x0": [1.0]})
    code, out, err = run(capsys, "verify", "--problem", _write(tmp_path, "degenerate.json", plant), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] and doc["r_oracle"] == 0.0
    checks = {c["name"]: c for c in doc["checks"]}
    assert set(checks) == {"curve_decreasing", "offset_match", "grid_capped"}
    assert checks["curve_decreasing"]["detail"] == "h = 0 over the grid: f is constant and every schedule ties"


def test_verify_exit_code_on_disagreement(capsys, monkeypatch):
    def corrupted(sys_, cost_, ps, **kw):
        return verify_solution(sys_, cost_, dataclasses.replace(ps, r=ps.r + 1.0), **kw)

    monkeypatch.setattr(cli, "verify_solution", corrupted)
    code, out, err = run(capsys, "verify", "--problem", SYS1, "--O", "10")
    assert code == 4
    assert "fixed_point_residual" in err


def test_outputs_byte_identical(capsys):
    _, out1, _ = run(capsys, "solve", "--problem", SYS1, "--format", "json")
    _, out2, _ = run(capsys, "solve", "--problem", SYS1, "--format", "json")
    assert out1 == out2
    _, s1, _ = run(capsys, "simulate", "--problem", SYS1, "--horizon", "30", "--seed", "9")
    _, s2, _ = run(capsys, "simulate", "--problem", SYS1, "--horizon", "30", "--seed", "9")
    assert s1 == s2


def test_outputs_byte_identical_across_processes(tmp_path):
    # two fresh interpreters with different string hashing give the same bytes: stdout, stderr, exit code, --out file
    outputs = []
    for seed in ("1", "2"):
        env = {**_cold_env(), "PYTHONHASHSEED": seed}
        out = tmp_path / f"traj_{seed}.csv"
        runs = []
        for argv in (
            ["solve", "--problem", SYS1, "--format", "json"],
            ["sweep", "--problem", SYS2, "--O-min", "0.1", "--O-max", "1000", "--O-log", "301", "--format", "json"],
            ["simulate", "--problem", SYS1, "--runs", "50", "--horizon", "100", "--out", str(out)],
            ["verify", "--problem", SYS2, "--O", "7"],
        ):
            proc = subprocess.run([sys.executable, "-m", "lqgsched.cli", *argv], capture_output=True, env=env,
                                  timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        outputs.append((runs, out.read_bytes()))
    assert [code for code, _, _ in outputs[0][0]] == [0, 0, 0, 0]
    assert outputs[0] == outputs[1]


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LQGSCHED_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "solve", "--problem", SYS1, "--out", "report.txt")
    assert code == 0
    assert (tmp_path / "report.txt").exists()


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "2 validation" in out and "3 solver" in out and "4 verification" in out


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency (pyproject.toml): the commands must not import it
    problem = os.path.abspath(SYS1)
    script = "\n".join([
        "import json, sys",
        "from lqgsched.cli import main",
        f"codes = [main(['simulate', '--problem', {problem!r}, '--O', '10', '--horizon', '50', '--runs', '40',",
        f"               '--out', {str(tmp_path / 'traj.csv')!r}]),",
        f"         main(['verify', '--problem', {problem!r}, '--O', '10', '--out', {str(tmp_path / 'v.json')!r}])]",
        "print(json.dumps({'codes': codes, 'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))",
    ])
    proc = _run_cold(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0, 0], "scipy": []}


def test_entry_freezes_the_import_heap_before_main(monkeypatch):
    # every call is recorded, not made, so the pytest process itself is never frozen or ended
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 0)
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    cli.entry()
    assert calls == ["freeze", "main", ("_exit", 0)]


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "solve", "--problem", SYS1, "--O", "10")
    assert code == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, to_file, expected", [
    (("sweep", "--O-min", "0", "--O-max", "300", "--O-step", "10"), False, 0),
    (("sweep", "--O-min", "0.01", "--O-max", "1000", "--O-log", "40", "--format", "json"), False, 0),
    (("simulate", "--O", "10", "--runs", "50"), True, 0),
    (("sweep", "--O-min", "10", "--O-max", "5", "--O-step", "1"), False, 2),
], ids=["sweep", "sweep-json", "simulate-out", "bad-range"])
def test_cold_command_matches_main(tmp_path, capsys, argv, to_file, expected):
    # the entry point ends the process without the interpreter's teardown; the exit code must be kept and
    # both streams flushed, down to the short summary that simulate --out leaves in stdout's buffer
    def out_args(name):
        return ["--out", str(tmp_path / name)] if to_file else []

    common = [argv[0], "--problem", os.path.abspath(SYS1), *argv[1:]]
    proc = _run_cold(["-m", "lqgsched.cli", *common, *out_args("cold.txt")])
    code, out, err = run(capsys, *common, *out_args("main.txt"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == expected and (out or to_file or err)
    if to_file:
        assert (tmp_path / "cold.txt").read_bytes() == (tmp_path / "main.txt").read_bytes()


def test_closed_stdout_ends_the_command_quietly():
    # `| head -1`: the reader goes after one line, and the command must stop with exit 1 and no traceback
    argv = [sys.executable, "-m", "lqgsched.cli", "simulate", "--problem", os.path.abspath(SYS1), "--O", "10",
            "--horizon", "5000"]  # about 1 MB of CSV, far more than a pipe holds
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cold_env()) as proc:
        assert proc.stdout.readline().startswith(b"t,x_1,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("command", [("solve",), ("simulate", "--horizon", "10")], ids=["solve", "simulate"])
def test_cold_unwritable_out_exits_2_quietly(tmp_path, command):
    # through entry() and os._exit: the _Failure must be reported, not leave as a traceback with exit 1
    proc = _run_cold(["-m", "lqgsched.cli", command[0], "--problem", os.path.abspath(SYS1), *command[1:],
                      "--out", str(tmp_path / "missing" / "out.txt")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("cannot write output: ")


def test_console_script_runs_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lqgsched": "lqgsched.cli:entry"}


# Scalars a hand-written or damaged problem file can hold where a number belongs.
ODD_SCALARS = st.one_of(
    st.sampled_from([1.0, -1.0, 0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.booleans(), st.none(), st.sampled_from(["", "1", "nan", "A"]),
)
ODD_ENTRIES = st.one_of(
    ODD_SCALARS, st.lists(ODD_SCALARS, max_size=3), st.lists(st.lists(ODD_SCALARS, max_size=3), max_size=3),
)


def _cells(value):
    """(list, index) of every scalar inside a nested list; a scalar has none."""
    if not isinstance(value, list):
        return []
    return [cell for k, v in enumerate(value) for cell in (_cells(v) if isinstance(v, list) else [(value, k)])]


# Factors that scale a whole entry, so a symmetric matrix stays symmetric and the file can still pass validation.
ODD_SCALES = st.sampled_from([1e-300, 1e300, -1.0, 0.0, math.inf, math.nan])


@st.composite
def odd_problem_files(draw):
    """sys1's problem file with up to three entries damaged: scaled, a cell or the whole entry replaced, a row cut
    short (ragged) or a cell wrapped in a list (nested)."""
    with open(SYS1) as fh:
        doc = json.load(fh)
    # mostly one damage, and mostly of the kinds a file can carry through validation, so the commands run to the end
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3, 0]))):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["scaled", "scaled", "scaled", "cell", "cell", "whole", "ragged", "nested"]))
        cells = _cells(doc[key])
        if how == "scaled":
            factor = draw(ODD_SCALES)
            if isinstance(doc[key], float):
                doc[key] *= factor
            for row, k in cells:
                if isinstance(row[k], float):
                    row[k] *= factor
        elif how == "whole" or not cells:
            doc[key] = draw(ODD_ENTRIES)
        else:
            row, k = draw(st.sampled_from(cells))
            if how == "cell":
                row[k] = draw(ODD_SCALARS)
            elif how == "ragged":
                del row[k]
            else:
                row[k] = [row[k]]
    return doc


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


FUZZ_COMMANDS = [("solve",), ("sweep", "--O-min", "0", "--O-max", "20", "--O-step", "10"),
                 ("simulate", "--runs", "3", "--horizon", "20"), ("verify",)]


# 100 examples, about 1.6 s: at the suite's 25 no example reaches exit 3 or 4
@settings(PROPERTY_SETTINGS, max_examples=100)
@given(doc=odd_problem_files())
def test_main_survives_odd_problem_files(doc):
    # every command on a damaged file exits with a documented code, no exception or warning escapes,
    # stdout is strict JSON, and a command that succeeds reports only finite numbers
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = os.path.join(tmp, "p.json"), os.path.join(tmp, "traj.csv")
        with open(path, "w") as fh:
            json.dump(doc, fh)  # NaN and Infinity as Python writes them, which json.load reads back
        for argv in FUZZ_COMMANDS:
            out, to_csv = io.StringIO(), ["--out", csv] if argv[0] == "simulate" else []
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                code = main([*argv, "--problem", path, "--format", "json", *to_csv])
            assert code in (0, 2, 3, 4), (argv, code)
            parsed = _strict_json(out.getvalue())
            if code == 0:
                assert all(map(math.isfinite, _numbers(parsed))), (argv, parsed)
            if code == 0 and argv[0] == "simulate":
                with open(csv) as fh:
                    cells = [float(c) for line in fh.read().splitlines()[1:] for c in line.split(",")]
                assert all(map(math.isfinite, cells)), argv


def test_readme_exit_code_table_is_the_cli_table():
    # README's exit-code table repeats cli.ERROR_EXIT_CODES, the one place an error code's exit code is written
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        rows = re.findall(r"^\| `(\d)` \|\s*(?:`(\w+)`)?\s*\|", fh.read(), flags=re.M)
    assert {code: int(exit_code) for exit_code, code in rows if code} == cli.ERROR_EXIT_CODES
    assert sorted(int(exit_code) for exit_code, code in rows if not code) == [0, 1, 4]
