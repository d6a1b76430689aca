import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lqgsched
import lqgsched.cli as cli
import lqgsched.riccati as riccati
from lqgsched import NonConvergence, verify_solution
from lqgsched.cli import ProblemFileError, load_problem, main, save_problem

from conftest import make_problem, A1

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
    code, out, _ = run(
        capsys, "sweep", "--problem", SYS1, "--O-min", "0", "--O-max", "1", "--O-step", "0.1"
    )
    assert code == 0
    prices = [l.split(",")[0] for l in out.strip().split("\n")[1:]]
    assert prices == [repr(k / 10) for k in range(11)]


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
    lyap = _count_calls(monkeypatch, "lyapunov_solve")
    code, _, _ = run(capsys, argv[0], "--problem", problem, *argv[1:])
    assert code == 0
    assert len(dare) == 1
    assert len(lyap) <= 1


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _bad_problem_files(tmp_path):
    with open(SYS1) as fh:
        d = json.load(fh)
    del d["B"]
    return {
        "missing file": str(tmp_path / "absent.json"),
        "malformed json": _write(tmp_path, "malformed.json", "{\"A\": [[1.0]"),
        "missing key": _write(tmp_path, "no_B.json", json.dumps(d)),
    }


@pytest.mark.parametrize("case", ["missing file", "malformed json", "missing key", "list"])
def test_load_problem_raises_problem_file_error(tmp_path, case):
    files = {**_bad_problem_files(tmp_path), "list": _write(tmp_path, "list.json", "[1.0, 2.0]")}
    causes = {"missing file": FileNotFoundError, "malformed json": json.JSONDecodeError,
              "missing key": KeyError, "list": TypeError}
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
@pytest.mark.parametrize("case", ["missing file", "malformed json", "missing key"])
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


def _run_cold(args):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's lqgsched."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lqgsched.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_zero_A_solves_with_empty_stderr(tmp_path):
    # A = 0 is stable, hence stabilizable: no rank-test warning may reach stderr
    path = tmp_path / "zero_A.json"
    save_problem(make_problem(np.zeros((3, 3)), 1.0), path)
    proc = _run_cold(["-m", "lqgsched.cli", "solve", "--problem", str(path), "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["case"] == "never_measure"  # A = 0: a measurement is worth nothing


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
@pytest.mark.parametrize("sizes", [("--runs", "0"), ("--runs", "-3"), ("--horizon", "0")], ids=" ".join)
def test_bad_simulation_size_exits_2(capsys, sizes, fmt):
    code, out, err = run(capsys, "simulate", "--problem", SYS1, *sizes, "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "bad_simulation"
    else:
        assert out == "" and "must be >= 1" in err


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
    for owner, name in ((cli, "Decimal"), (np, "geomspace"), (cli, "_read_problem")):
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


def test_simulate_rejects_unknown_strategy(capsys):
    code, _, err = run(
        capsys, "simulate", "--problem", SYS1, "--strategy", "sometimes"
    )
    assert code == 2


def test_verify_benchmarks_pass(capsys):
    code, out, _ = run(capsys, "verify", "--problem", SYS1, "--O", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["T_oracle"] == 6

    code, out, _ = run(capsys, "verify", "--problem", SYS2, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert doc["note"] == "grid-capped: no interior minimizer"
    assert doc["grid_capped"]


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
