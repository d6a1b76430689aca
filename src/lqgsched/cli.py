"""Command-line front end: solve, sweep, simulate, verify.

Problem files are JSON with row-major nested arrays for matrices and plain
floats elsewhere; numbers are emitted in shortest round-trip decimal form so
a file written by the tool re-parses to the identical problem. Exit codes:
0 success, 4 verification failure, and for any other failure the exit code
the failure table ERROR_EXIT_CODES gives its error code (2 for input a
command cannot take, 3 for non-convergence or an overflowed result: no
command prints a NaN, an infinity or a numpy warning). Only main turns the
library errors every command shares into failures. Set LQGSCHED_OUT_DIR to
prefix relative --out paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys as _sys
from decimal import Decimal

import numpy as np

from .model import CostModel, LinearSystem, Problem, validate
from .oracle import verify_solution
from .policy import _solve_prices, optimal_period, value_at
from .riccati import NonConvergence
from .sim import (
    ALWAYS_MEASURE,
    NEVER_MEASURE,
    OPTIMAL,
    SimConfig,
    Strategy,
    _trajectory_arrays,
    fixed_period,
    monte_carlo_value,
    simulate,
)

__all__ = ["main", "entry", "load_problem", "save_problem", "ProblemFileError"]

EXIT_OK = 0
EXIT_VERIFICATION = 4
# The failure table: each error code's exit code. README's exit-code table repeats it, and a test holds them equal.
ERROR_EXIT_CODES = {"bad_problem": 2, "bad_output": 2, "bad_range": 2, "bad_strategy": 2, "bad_simulation": 2,
                    "validation": 2, "non_convergence": 3, "overflow": 3}

# The most prices one sweep tabulates (each keeps its solved schedule, a few
# numbers beside the shared Riccati solution and W_inf, until the table is
# written); a larger grid exits 2 before it is built.
MAX_SWEEP_PRICES = 100_000


class ProblemFileError(ValueError):
    """A problem file that is missing or unreadable, is not JSON or nests too deep, lacks a key or has a bad value."""


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
    except (OSError, ValueError, TypeError, RecursionError) as e:  # RecursionError: arrays nested too deep for json
        raise ProblemFileError(f"{path}: {e}") from e


def save_problem(problem: Problem, path: str) -> None:
    """Write problem as strict JSON; an entry with a NaN or an infinity raises ValueError and leaves path untouched."""
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
    bad = next((k for k, v in d.items() if not _finite(v)), None)
    if bad is not None:  # JSON (RFC 8259) has no token for it
        raise ValueError(f"{bad} has a NaN or infinite entry, which JSON cannot hold")
    text = json.dumps(d, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _emit(out: str | None, write) -> bool:
    """Call write(stream) on the --out file, or on stdout without one; True when it wrote the file.

    A relative path is taken under LQGSCHED_OUT_DIR when that is set. Commands call this once their output is
    computed, so a failing command never truncates an existing file. A path that cannot be written exits 2
    with bad_output; an error on stdout is not caught here.
    """
    if out is None:
        write(_sys.stdout)
        return False
    base = os.environ.get("LQGSCHED_OUT_DIR")
    if base and not os.path.isabs(out):
        out = os.path.join(base, out)
    try:
        with open(out, "w") as fh:
            write(fh)
    except OSError as e:
        raise _Failure("bad_output", str(e), "cannot write output: ") from e
    return True


def _text_entry(key: str, value) -> str:
    """One entry of solve's JSON document as a line of its text report."""
    if isinstance(value, np.ndarray):
        return f"{key}:\n" + "\n".join("    [" + ", ".join(repr(float(v)) for v in row) + "]" for row in value)
    if isinstance(value, list):
        return f"{key}: " + ", ".join(repr(v) for v in value)
    if key == "T_star" or isinstance(value, str):
        return f"{key}: {value or 'inf'}"
    return f"{key}(x0): {value!r}" if key.startswith("V") else f"{key}: {value!r}"


class _Failure(Exception):
    """A command that cannot go on: an error code, which sets main's exit code, and a message.

    main prints ``{"error": payload}`` under --format json, the payload holding the code and the message (or
    the detail given in its place), and prefix + message on stderr otherwise.
    """

    def __init__(self, code: str, message: str, prefix: str = "", **detail):
        super().__init__(prefix + message)
        self.exit_code = ERROR_EXIT_CODES[code]
        self.payload = {"code": code, **(detail or {"message": message})}


def _finite(value) -> bool:
    """False when value holds a NaN or an infinity, in dicts, lists and arrays too; None, str and int are finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return True
    return all(map(_finite, value))


def _require_finite(doc: dict, where: str = "") -> None:
    """Exit 3 with code overflow, naming the first entry of doc that is not finite, before anything is written."""
    key = next((k for k, v in doc.items() if not _finite(v)), None)
    if key is not None:
        raise _Failure("overflow", f"{key}{where} is not a finite number: the result overflowed the float range")


def _reported():
    """The floating-point state for computing reported figures.

    main makes an overflow raise; a figure the command reports may overflow
    to an infinity or a NaN instead, and _require_finite then names it.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _require_valid(problem: Problem) -> None:
    violations = validate(problem)
    if violations:
        raise _Failure("validation", "".join(f"\n  {v}" for v in violations), "validation failed:",
                       violations=[{"code": v.code, "message": v.message} for v in violations])


def _solve_problem(problem: Problem):
    _require_valid(problem)
    return optimal_period(problem.sys, problem.cost)


def cmd_solve(args) -> int:
    problem = load_problem(args.problem, args.O)
    ps = _solve_problem(problem)
    with _reported():
        values = value_at(ps, problem.x0)
    doc = {
        "case": ps.case_id.value,
        "T_star": ps.period or None,
        "r": ps.r,
        "O": ps.O,
        "P": ps.are.P,
        "K": ps.are.K,
        "phi": ps.are.phi,
        "eigenvalue_magnitudes": sorted(np.abs(problem.sys.eigenvalues).tolist(), reverse=True),
        **dataclasses.asdict(values),
        "never_measure_threshold": ps.never_threshold,
        "W_infinity": ps.W_inf,
    }
    _require_finite(doc)
    if args.format == "json":  # T_star is null for a schedule that never measures
        text = json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}, indent=2,
                          allow_nan=False)
    else:  # T_star is inf, and a schedule with no threshold has no line for it or for W_infinity
        text = "\n".join(_text_entry(k, v) for k, v in doc.items() if v is not None or k == "T_star")
    _emit(args.out, lambda fh: fh.write(text + "\n"))
    return EXIT_OK


def _sweep_prices(args) -> list[float]:
    log = args.O_log is not None
    if args.O_min is None or args.O_max is None or not (log or args.O_step is not None):
        raise ValueError("sweep needs --O-min, --O-max and --O-step (or --O-log)")
    if not all(map(np.isfinite, (args.O_min, args.O_max) + (() if log else (args.O_step,)))):
        raise ValueError(("--O-min and --O-max" if log else "--O-min, --O-max and --O-step") + " must be finite")
    if not 0 <= args.O_min <= args.O_max:
        raise ValueError("a sweep needs 0 <= --O-min <= --O-max: a measurement price is never negative")
    if log:
        if args.O_min == 0:
            raise ValueError("--O-min must be positive for a log sweep")
        if not 1 <= args.O_log <= MAX_SWEEP_PRICES:
            raise ValueError(f"--O-log asks for {args.O_log} prices; a sweep tabulates at most {MAX_SWEEP_PRICES} "
                             "and at least 1")
        return [float(O) for O in np.geomspace(args.O_min, args.O_max, args.O_log)]
    if args.O_step <= 0:
        raise ValueError("--O-step must be positive")
    too_many = f"the grid has more than {MAX_SWEEP_PRICES} prices; a sweep tabulates at most {MAX_SWEEP_PRICES}"
    if (args.O_max - args.O_min) / args.O_step >= MAX_SWEEP_PRICES:  # a float estimate, before any Decimal
        raise ValueError(too_many)
    # O_min + k*step in decimal, counted exactly, so a step of 0.1 prints 0.3 and not 0.30000000000000004.
    lo, step = Decimal(repr(args.O_min)), Decimal(repr(args.O_step))
    n = int((Decimal(repr(args.O_max)) - lo) // step) + 1
    if n > MAX_SWEEP_PRICES:  # the estimate can round an exact quotient of MAX_SWEEP_PRICES down
        raise ValueError(too_many)
    return [float(lo + k * step) for k in range(n)]


def cmd_sweep(args) -> int:
    try:
        prices = _sweep_prices(args)
    except ValueError as e:
        raise _Failure("bad_range", str(e)) from e
    problem = load_problem(args.problem)
    cost = CostModel(problem.cost.Q, problem.cost.R, problem.cost.beta, 0.0)
    _require_valid(Problem(sys=problem.sys, cost=cost, x0=problem.x0))

    beta = cost.beta
    rows = []
    for ps in _solve_prices(problem.sys, cost, prices):
        O, T = ps.O, ps.period
        with _reported():
            vals = value_at(ps, problem.x0)
            saving = beta * O / (1.0 - beta)
            if T:
                saving -= beta**T * O / (1.0 - beta**T)
        rows.append({"O": O, "T_star": T or None, "r": ps.r, "V": vals.V, "V_s": vals.V_s, "V_e": vals.V_e,
                     "saving": saving, "V_reported": vals.V_reported, "V_s_reported": vals.V_s_reported})
        _require_finite(rows[-1], f" at O = {O!r}")

    if args.format == "json":
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    else:
        header = "O,T_star,r,V,V_s,V_e,saving,V_reported,V_s_reported"
        lines = [",".join("inf" if v is None else repr(v) for v in row.values()) for row in rows]
        text = header + "\n" + "\n".join(lines) + "\n"
    _emit(args.out, lambda fh: fh.write(text))
    return EXIT_OK


_STRATEGIES = {"optimal": OPTIMAL, "always": ALWAYS_MEASURE, "never": NEVER_MEASURE}


def _parse_strategy(token: str) -> Strategy:
    if token in _STRATEGIES:
        return _STRATEGIES[token]
    if token.startswith("fixed:"):
        return fixed_period(int(token.split(":", 1)[1]))
    raise ValueError(f"unknown strategy {token!r} (use optimal|always|never|fixed:T)")


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem, args.O)
    try:
        strategy = _parse_strategy(args.strategy)
    except ValueError as e:
        raise _Failure("bad_strategy", str(e)) from e
    try:
        cfg = SimConfig(horizon=args.horizon, seed=args.seed, n_runs=args.runs, strategy=strategy)
    except ValueError as e:
        raise _Failure("bad_simulation", str(e)) from e
    ps = _solve_problem(problem)
    mc = None
    try:
        with _reported():
            if cfg.n_runs > 1:
                # numpy refuses an absurd horizon before any Monte Carlo step; the arrays it allocates are let go
                # untouched, and simulate allocates them again, so the chunk and the trajectory are never held at once
                _trajectory_arrays(cfg.horizon, problem.q, problem.p)
                mc = monte_carlo_value(problem, ps, cfg)
            rec = simulate(problem, ps, cfg)
    except MemoryError as e:
        raise _Failure("bad_simulation", f"simulation too large: {e}") from e

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
    # the realized cost sums x'Qx + u'Ru over the trajectory, so an overflowed state or control shows in it
    _require_finite(summary)

    # the summary goes to stdout when the CSV went to a file, and to stderr when the CSV took stdout
    (_sys.stdout if _emit(args.out, rec.write_csv) else _sys.stderr).write(json.dumps(summary, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = load_problem(args.problem, args.O)
    ps = _solve_problem(problem)
    if ps.finite:  # inner_collapse compares the window's cost from x0 with V(x0) = x0'P x0 + r
        with _reported():
            probe = value_at(ps, problem.x0).V
        _require_finite({"the probe value x0'P x0 + r": probe})
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
    _require_finite(doc)
    _emit(args.out, lambda fh: fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n"))
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
        p.add_argument("--format", choices=["text", "json"], default="text")

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
        # An overflow, an invalid operation or a division by zero raises, so no numpy warning reaches stderr;
        # the places that expect one (_reported, the phase table's joins, the oracle's powers) set their own state.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except _Failure as e:
        failure = e
    except ProblemFileError as e:
        failure = _Failure("bad_problem", str(e), "bad problem file: ")
    except NonConvergence as e:
        failure = _Failure("non_convergence", str(e), "solver failed: ")
    except FloatingPointError as e:
        failure = _Failure("overflow", f"{args.command} overflowed the float range: {e}")
    if args.format == "json":
        _sys.stdout.write(json.dumps({"error": failure.payload}, allow_nan=False) + "\n")
    else:
        _sys.stderr.write(f"{failure}\n")
    return failure.exit_code


def entry() -> None:
    """Run one command in a process of its own: the console script and ``python -m lqgsched.cli``.

    The objects the imports created (numpy's and this package's, about
    22,000 tracked by the garbage collector) live until the process exits.
    Freezing them moves them into the collector's permanent generation, so
    a full collection during the command does not walk them again.

    Once the command has returned, entry() flushes stdout and stderr and ends
    the process with ``os._exit``: the interpreter's teardown, which would
    free those objects one by one, is skipped. So are atexit handlers (the
    package registers none) and the flushing of files left open (every
    command closes the files it writes). A reader that closes stdout early,
    as ``| head`` does, ends the command quietly with exit code 1: the rest of
    the output goes to os.devnull, as the Python documentation recommends.
    A usage error or --help from argparse, and an unexpected exception, leave
    through the normal interpreter exit. main() does none of this, and leaves
    the collector alone, for library callers.
    """
    gc.freeze()
    try:
        code = main()
        _sys.stdout.flush()
        _sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
