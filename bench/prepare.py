"""Generate one workload's inputs and reference values.

Run by ``bench/run.py`` in a child process, with ``src`` on the path and
BLAS pinned to one thread, before anything is timed:

    python bench/prepare.py --out DIR --plant-seed 3 --closed-form configs/sys1.json 10

It writes ``DIR/prep.json`` holding the environment record, every price and
seed the q=50 workload uses, and the reference values the correctness gate needs
that are not stored in ``bench/reference/``: the closed-form cost each Monte
Carlo mean is checked against and, for the seeded q=50 plant, the oracle's
independent fixed point at every price the CLI is asked about. Everything
here is drawn from ``--plant-seed`` and never filtered on the outcome.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from lqgsched import (
    CostModel,
    LinearSystem,
    Problem,
    dare_solve,
    never_measure_cost,
    never_measure_threshold,
    optimal_period,
    periodic_strategy_cost,
    solve_r_fixed_point,
    spectral_radius,
    validate,
)
from lqgsched.cli import load_problem, save_problem

Q50, P10 = 50, 10
BETA = 0.95
# Oracle grid for the q=50 references. The sweep's finite-branch prices stay
# at least 8% below the never-measure threshold, where T* stays far below it.
ORACLE_T_MAX = 500


def _blas_runtime() -> dict:
    """Name, version and live thread count of the OpenBLAS numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    info: dict = {"threads": None, "config": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["threads"] = int(get_threads())
                info["config"] = get_config().decode()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": runtime["config"],
        "blas_threads": runtime["threads"],
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),  # bench/run.py pins itself and its children to one
        "cpu_model": _cpu_model(),
    }


def closed_form_cost(problem: Problem) -> dict:
    """Exact expected cost of the solved schedule under forward propagation,
    as acceptance criterion 8 computes it."""
    ps = optimal_period(problem.sys, problem.cost)
    if ps.finite:
        value = periodic_strategy_cost(problem.sys, problem.cost, ps.are.K, ps.period, problem.x0)
    else:
        value = never_measure_cost(problem.sys, problem.cost, ps.are.K, problem.x0)
    return {"O": problem.cost.O, "T_star": ps.period if ps.finite else None, "closed_form": value}


def oracle_reference(problem: Problem, prices) -> list[dict]:
    """The oracle's grid fixed point at each price: T exact, or None when the
    minimiser sits on the grid boundary (never measure)."""
    cost0 = problem.cost
    are = dare_solve(problem.sys, cost0)
    out = []
    for O in prices:
        cost = CostModel(Q=cost0.Q, R=cost0.R, beta=cost0.beta, O=float(O))
        rep = solve_r_fixed_point(problem.sys, cost, T_max=ORACLE_T_MAX, are=are)
        out.append({"O": float(O), "T": None if rep.grid_capped else rep.T_oracle, "r": rep.r_oracle})
    return out


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_plant(seed: int, weight_scale: float = 1.0) -> Problem:
    """A stable random plant with q=50 and p=10, its price left at 0.

    A is a Gaussian matrix scaled to a spectral radius in [0.88, 0.92]; the
    weights are of order one times ``weight_scale``. At weight_scale=0.1
    (sys1's 0.1 scale) P's entries are of order 0.5, and verify's
    inner_collapse check fails on about a third of seeds: see "Known program
    defects" in bench/README.md.
    """
    rng = np.random.default_rng([seed, 50])
    M = rng.normal(size=(Q50, Q50))
    A = M * (rng.uniform(0.88, 0.92) / spectral_radius(M))
    B = rng.normal(size=(Q50, P10)) / math.sqrt(Q50)
    Sigma = np.diag(rng.uniform(0.02, 0.2, size=Q50))
    J = rng.normal(size=(Q50, Q50)) / math.sqrt(Q50)
    Q = weight_scale * (J.T @ J + 0.5 * np.eye(Q50))
    Mr = rng.normal(size=(P10, P10)) / math.sqrt(P10)
    R = weight_scale * (Mr.T @ Mr + 2.0 * np.eye(P10))
    x0 = 5.0 * rng.normal(size=Q50)
    return Problem(LinearSystem(A=A, B=B, C=np.eye(Q50), Sigma_S=Sigma), CostModel(Q=Q, R=R, beta=BETA, O=0.0), x0)


def plant_q50(seed: int, out_dir: str, n_prices: int) -> dict:
    """The seeded q=50 plant, written for the CLI, and every price drawn for it.

    The sweep's log range runs from 1% to 10^0.8 (about 6.3) times the
    never-measure threshold, so both scheduling branches run on one plant
    and in the same proportion for every seed; with 61 points the threshold
    falls between two grid prices. The simulate and online-session prices are
    drawn from the finite-period band (10% to 50% of the threshold), so that
    their per-step arithmetic is alike for every seed; the solve and verify
    prices are drawn from the whole sweep range.
    """
    plant = random_plant(seed)
    rng = np.random.default_rng([seed, 51])
    threshold = never_measure_threshold(plant.sys, plant.cost)
    O_lo, O_hi = threshold * 10.0**-2, threshold * 10.0**0.8
    O_solve = _log_uniform(rng, O_lo, O_hi)
    O_verify = [_log_uniform(rng, O_lo, O_hi) for _ in range(3)]
    O_sim, O_online = (_log_uniform(rng, 0.1 * threshold, 0.5 * threshold) for _ in range(2))
    sim_seed, online_seed = (int(s) for s in rng.integers(0, 2**31, size=2))

    Q, R = plant.cost.Q, plant.cost.R
    problem = Problem(plant.sys, CostModel(Q=Q, R=R, beta=BETA, O=O_solve), plant.x0)
    path = os.path.join(out_dir, "plant_q50.json")
    save_problem(problem, path)
    problem = load_problem(path)  # what the CLI will see
    violations = [str(v) for v in validate(problem)]

    # The CLI's own price grid, from the same decimal strings it is given.
    sweep_prices = np.geomspace(float(repr(O_lo)), float(repr(O_hi)), n_prices)
    sim_problem = Problem(problem.sys, CostModel(Q=Q, R=R, beta=BETA, O=O_sim), problem.x0)
    return {
        "problem": path,
        "violations": violations,
        "rho_A": spectral_radius(problem.sys.A),
        "never_measure_threshold": threshold,
        "O_lo": O_lo,
        "O_hi": O_hi,
        "n_prices": n_prices,
        "O_solve": O_solve,
        "O_verify": O_verify,
        "O_sim": O_sim,
        "sim_seed": sim_seed,
        "O_online": O_online,
        "online_seed": online_seed,
        "sweep_oracle": oracle_reference(problem, sweep_prices),
        "solve_oracle": oracle_reference(problem, [O_solve])[0],
        "sim_reference": closed_form_cost(sim_problem),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for prep.json and generated problems")
    ap.add_argument("--closed-form", nargs=2, action="append", default=[], metavar=("PROBLEM", "O"),
                    help="problem file and price whose Monte Carlo mean is checked (repeatable)")
    ap.add_argument("--plant-seed", type=int, default=None, help="generate the seeded q=50 plant")
    ap.add_argument("--plant-prices", type=int, default=61, help="length of the q=50 price sweep")
    args = ap.parse_args(argv)

    doc: dict = {
        "environment": environment(),
        "closed_form": [closed_form_cost(load_problem(path, float(O))) for path, O in args.closed_form],
    }
    if args.plant_seed is not None:
        doc["plant"] = plant_q50(args.plant_seed, args.out, args.plant_prices)
    with open(os.path.join(args.out, "prep.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
