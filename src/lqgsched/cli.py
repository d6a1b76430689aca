"""Command-line front end: solve, sweep, simulate, verify.

Problem files are JSON with row-major nested arrays for matrices and plain
floats elsewhere; numbers are emitted in shortest round-trip decimal form so
a file written by the tool re-parses to the identical problem. Exit codes:
0 success, 2 validation failure (an unreadable problem file included), 3
solver non-convergence, 4 verification failure; main reports every failure
the same way. Set LQGSCHED_OUT_DIR to prefix relative --out paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from decimal import Decimal

import numpy as np

from .model import CostModel, LinearSystem, Problem, validate
from .oracle import verify_solution
from .policy import NonFiniteSearch, _solve_prices, optimal_period, value_at
from .riccati import NonConvergence
from .sim import (
    ALWAYS_MEASURE,
    NEVER_MEASURE,
    OPTIMAL,
    SimConfig,
    Strategy,
    fixed_period,
    monte_carlo_value,
    simulate,
)

__all__ = ["main", "entry", "load_problem", "save_problem", "ProblemFileError"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

# The most prices one sweep tabulates (each keeps its solved schedule until the
# table is written); a larger grid exits 2 before it is built.
MAX_SWEEP_PRICES = 100_000


class ProblemFileError(ValueError):
    """A problem file that is missing or unreadable, is not JSON, lacks a key or holds a malformed value."""


def load_problem(path: str, O_override: float | None = None) -> Problem:
    """Read a problem file; every way the file can be bad raises ProblemFileError."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        sys_ = LinearSystem(A=d["A"], B=d["B"], C=d["C"], Sigma_S=d["Sigma_S"])
        O = float(d.get("O", 0.0)) if O_override is None else float(O_override)
        cost = CostModel(Q=d["Q"], R=d["R"], beta=float(d["beta"]), O=O)
        return Problem(sys=sys_, cost=cost, x0=d.get("x0"))
    except KeyError as e:
        raise ProblemFileError(f"{path}: missing key {e.args[0]!r}") from e
    except (OSError, ValueError, TypeError) as e:
        raise ProblemFileError(f"{path}: {e}") from e


def save_problem(problem: Problem, path: str) -> None:
    d = {
        "A": problem.sys.A.tolist(),
        "B": problem.sys.B.tolist(),
        "C": problem.sys.C.tolist(),
        "Sigma_S": problem.sys.Sigma_S.tolist(),
        "Q": problem.cost.Q.tolist(),
        "R": problem.cost.R.tolist(),
        "beta": problem.cost.beta,
        "O": problem.cost.O,
        "x0": problem.x0.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("LQGSCHED_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    out = _resolve_out(out)
    if out is None:
        _sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _fail(args, code: int, payload: dict, human: str) -> int:
    if getattr(args, "format", "text") == "json":
        _sys.stdout.write(json.dumps({"error": payload}) + "\n")
    else:
        _sys.stderr.write(human + "\n")
    return code


def _matrix_rows(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(M)]


def _fmt_matrix(name: str, M: np.ndarray) -> str:
    rows = "\n".join("    [" + ", ".join(repr(float(v)) for v in row) + "]" for row in np.atleast_2d(M))
    return f"{name}:\n{rows}"


class _Failure(Exception):
    """A command that cannot go on: its exit code, JSON error payload and stderr text."""

    def __init__(self, code: int, payload: dict, human: str):
        super().__init__(human)
        self.code, self.payload, self.human = code, payload, human


def _read_problem(path: str, O_override: float | None = None) -> Problem:
    try:
        return load_problem(path, O_override)
    except ProblemFileError as e:
        raise _Failure(EXIT_VALIDATION, {"code": "bad_problem", "message": str(e)}, f"bad problem file: {e}") from e


def _require_valid(problem: Problem) -> None:
    violations = validate(problem)
    if violations:
        raise _Failure(
            EXIT_VALIDATION,
            {"code": "validation", "violations": [{"code": v.code, "message": v.message} for v in violations]},
            "validation failed:\n" + "\n".join(f"  {v}" for v in violations),
        )


def _solve_problem(problem: Problem):
    _require_valid(problem)
    return optimal_period(problem.sys, problem.cost)


def cmd_solve(args) -> int:
    problem = _read_problem(args.problem, args.O)
    ps = _solve_problem(problem)
    vals = value_at(ps, problem.x0)
    eig_mags = sorted(np.abs(np.linalg.eigvals(problem.sys.A)).tolist(), reverse=True)
    W = None if ps.never_threshold is None else ps._table.W  # solved once with the threshold

    if args.format == "json":
        doc = {
            "case": ps.case_id.value,
            "T_star": None if not ps.finite else ps.period,
            "r": ps.r,
            "O": ps.O,
            "P": _matrix_rows(ps.are.P),
            "K": _matrix_rows(ps.are.K),
            "phi": _matrix_rows(ps.are.phi),
            "eigenvalue_magnitudes": eig_mags,
            "V": vals.V,
            "V_s": vals.V_s,
            "V_c": vals.V_c,
            "V_e": vals.V_e,
            "V_e_excluding_noise": vals.V_e_excluding_noise,
            "V_reported": vals.V_reported,
            "V_s_reported": vals.V_s_reported,
            "never_measure_threshold": ps.never_threshold,
            "W_infinity": None if W is None else _matrix_rows(W),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"case: {ps.case_id.value}",
            f"T_star: {'inf' if not ps.finite else ps.period}",
            f"r: {ps.r!r}",
            f"O: {ps.O!r}",
            _fmt_matrix("P", ps.are.P),
            _fmt_matrix("K", ps.are.K),
            _fmt_matrix("phi", ps.are.phi),
            "eigenvalue_magnitudes: " + ", ".join(repr(v) for v in eig_mags),
            f"V(x0): {vals.V!r}",
            f"V_s(x0): {vals.V_s!r}",
            f"V_c(x0): {vals.V_c!r}",
            f"V_e(x0): {vals.V_e!r}",
            f"V_e_excluding_noise(x0): {vals.V_e_excluding_noise!r}",
            f"V_reported(x0): {vals.V_reported!r}",
            f"V_s_reported(x0): {vals.V_s_reported!r}",
        ]
        if ps.never_threshold is not None:
            lines.append(f"never_measure_threshold: {ps.never_threshold!r}")
        if W is not None:
            lines.append(_fmt_matrix("W_infinity", W))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _sweep_prices(args) -> list[float]:
    if args.O_log is not None:
        if args.O_min is None or args.O_max is None:
            raise ValueError("--O-log requires --O-min and --O-max")
        if not all(map(np.isfinite, (args.O_min, args.O_max))):
            raise ValueError("--O-min and --O-max must be finite")
        if args.O_min <= 0:
            raise ValueError("--O-min must be positive for a log sweep")
        if args.O_log > MAX_SWEEP_PRICES:
            raise ValueError(f"--O-log asks for {args.O_log} prices; a sweep tabulates at most {MAX_SWEEP_PRICES}")
        return [float(O) for O in np.geomspace(args.O_min, args.O_max, int(args.O_log))]
    if args.O_min is None or args.O_max is None or args.O_step is None:
        raise ValueError("sweep needs --O-min, --O-max and --O-step (or --O-log)")
    if args.O_step <= 0:
        raise ValueError("--O-step must be positive")
    if not all(map(np.isfinite, (args.O_min, args.O_max, args.O_step))):
        raise ValueError("--O-min, --O-max and --O-step must be finite")
    if (args.O_max - args.O_min) / args.O_step >= MAX_SWEEP_PRICES:
        raise ValueError(f"the grid has more than {MAX_SWEEP_PRICES} prices; a sweep tabulates at most {MAX_SWEEP_PRICES}")
    # O_min + k*step in decimal, so a step of 0.1 prints 0.3 and not 0.30000000000000004.
    lo, step = Decimal(repr(args.O_min)), Decimal(repr(args.O_step))
    out = []
    while (O := float(lo + len(out) * step)) <= args.O_max + 1e-12:
        out.append(O)
    return out


def cmd_sweep(args) -> int:
    try:
        prices = _sweep_prices(args)
    except ValueError as e:
        raise _Failure(EXIT_VALIDATION, {"code": "bad_range", "message": str(e)}, str(e)) from e
    problem = _read_problem(args.problem)
    cost = CostModel(problem.cost.Q, problem.cost.R, problem.cost.beta, 0.0)
    _require_valid(Problem(sys=problem.sys, cost=cost, x0=problem.x0))

    beta = cost.beta
    rows = []
    for ps in _solve_prices(problem.sys, cost, prices):
        O, vals = ps.O, value_at(ps, problem.x0)
        T = ps.period if ps.finite else None
        saving = beta * O / (1.0 - beta)
        if T is not None:
            saving -= beta**T * O / (1.0 - beta**T)
        rows.append({"O": O, "T_star": T, "r": ps.r, "V": vals.V, "V_s": vals.V_s, "V_e": vals.V_e,
                     "saving": saving, "V_reported": vals.V_reported, "V_s_reported": vals.V_s_reported})

    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        header = "O,T_star,r,V,V_s,V_e,saving,V_reported,V_s_reported"
        lines = [",".join("inf" if v is None else repr(v) for v in row.values()) for row in rows]
        text = header + "\n" + "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _parse_strategy(token: str) -> Strategy:
    if token == "optimal":
        return OPTIMAL
    if token == "always":
        return ALWAYS_MEASURE
    if token == "never":
        return NEVER_MEASURE
    if token.startswith("fixed:"):
        return fixed_period(int(token.split(":", 1)[1]))
    raise ValueError(f"unknown strategy {token!r} (use optimal|always|never|fixed:T)")


def cmd_simulate(args) -> int:
    problem = _read_problem(args.problem, args.O)
    try:
        strategy = _parse_strategy(args.strategy)
    except ValueError as e:
        raise _Failure(EXIT_VALIDATION, {"code": "bad_strategy", "message": str(e)}, str(e)) from e
    try:
        cfg = SimConfig(horizon=args.horizon, seed=args.seed, n_runs=args.runs, strategy=strategy)
    except ValueError as e:
        raise _Failure(EXIT_VALIDATION, {"code": "bad_simulation", "message": str(e)}, str(e)) from e
    ps = _solve_problem(problem)
    try:
        rec = simulate(problem, ps, cfg)
        mc = monte_carlo_value(problem, ps, cfg) if cfg.n_runs > 1 else None
    except MemoryError as e:
        message = f"simulation too large: {e}"
        raise _Failure(EXIT_VALIDATION, {"code": "bad_simulation", "message": message}, message) from e

    summary = {
        "realized_discounted_cost": rec.total_cost,
        "n_measurements": rec.n_measurements,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "strategy": args.strategy,
    }
    if mc is not None:
        summary["mc_mean"], summary["mc_std_error"] = mc
        summary["n_runs"] = args.runs

    out = _resolve_out(args.out)
    if out is None:
        _sys.stdout.write(rec.csv_text())
        _sys.stderr.write(json.dumps(summary) + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(rec.csv_text())
        _sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _read_problem(args.problem, args.O)
    ps = _solve_problem(problem)
    report = verify_solution(problem.sys, problem.cost, ps, x_probe=problem.x0)
    doc = {
        "passed": report.passed,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in report.checks],
        "r_oracle": report.oracle.r_oracle,
        "T_oracle": report.oracle.T_oracle,
        "grid_capped": report.oracle.grid_capped,
        "convergence_iters": report.oracle.convergence_iters,
        "f_curve": [[float(T), float(f)] for T, f in report.oracle.f_curve],
    }
    if report.grid_capped_note:
        doc["note"] = report.grid_capped_note
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if not report.passed:
        _sys.stderr.write("verification failed: " + ", ".join(report.failures()) + "\n")
        return EXIT_VERIFICATION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqgsched",
        description=(
            "Co-design of feedback control and paid measurement scheduling for "
            "discounted LQG systems. Exit codes: 0 ok, 2 validation failure, "
            "3 solver non-convergence, 4 verification failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_O=True):
        p.add_argument("--problem", required=True, help="problem JSON file")
        if with_O:
            p.add_argument("--O", type=float, default=None, help="per-measurement price (overrides file)")
        p.add_argument("--out", default=None, help="output path (relative paths honor LQGSCHED_OUT_DIR)")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("solve", help="solve the schedule and report values")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="sweep the measurement price and tabulate the schedule")
    common(p, with_O=False)
    p.add_argument("--O-min", dest="O_min", type=float, default=None)
    p.add_argument("--O-max", dest="O_max", type=float, default=None)
    p.add_argument("--O-step", dest="O_step", type=float, default=None)
    p.add_argument("--O-log", dest="O_log", type=int, default=None, help="number of log-spaced points")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the seeded closed loop and export the trajectory CSV")
    common(p)
    p.add_argument("--horizon", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--strategy", default="optimal", help="optimal|always|never|fixed:T")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the analytic schedule against the oracle")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as e:
        return _fail(args, e.code, e.payload, e.human)
    except (NonConvergence, NonFiniteSearch) as e:
        return _fail(args, EXIT_CONVERGENCE, {"code": "non_convergence", "message": str(e)}, f"solver failed: {e}")


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
