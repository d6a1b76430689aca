"""Online controller session: step_decide driven one step at a time.

Feeds seeded plant states to ``step_decide``, times every call, and checks
each waiting window's controls bit for bit against ``make_packet`` from the
state measured at the window's start. After every step it also times the
fixed work of ``SpeedProbe.step`` (``probe.py``), whose median tells the
speed state the steps ran in. Prints one JSON line:

    python bench/online.py --problem configs/sys1.json --O 10 --steps 50000 --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from lqgsched.cli import load_problem
from lqgsched.controller import initial_state, make_packet, step_decide
from lqgsched.model import psd_sqrt
from lqgsched.policy import optimal_period
from probe import SpeedProbe


def run_session(problem_path: str, O: float, steps: int, seed: int) -> dict:
    problem = load_problem(problem_path, O)
    ps = optimal_period(problem.sys, problem.cost)
    A, B, C = problem.sys.A, problem.sys.B, problem.sys.C
    rng = np.random.Generator(np.random.PCG64(seed))
    W = rng.standard_normal((steps, problem.q)) @ (C @ psd_sqrt(problem.sys.Sigma_S)).T

    x = problem.x0.copy()
    state = initial_state(ps, x)
    u_prev = None
    U = np.empty((steps, problem.p))
    latency_ns = np.empty(steps)
    starts, measured = [0], [x.copy()]
    probe = SpeedProbe()
    probe_ns = np.empty(steps)
    for t in range(steps):
        t0 = time.perf_counter_ns()
        i, u, state = step_decide(state, x, ps, u_prev)
        t1 = time.perf_counter_ns()
        probe.step()
        latency_ns[t] = t1 - t0
        probe_ns[t] = time.perf_counter_ns() - t1
        if i:
            starts.append(t)
            measured.append(x.copy())
        U[t] = u
        u_prev = u
        x = A @ x + B @ u + W[t]

    expected_starts = list(range(ps.period, steps, ps.period)) if ps.finite else []
    mismatches = 0 if starts[1:] == expected_starts else 1
    for k, s in enumerate(starts):
        e = starts[k + 1] if k + 1 < len(starts) else steps
        packet = make_packet(measured[k], ps, horizon=e - s)
        if packet.T != e - s or not np.array_equal(packet.controls, U[s:e]):
            mismatches += 1

    return {
        "steps": steps,
        "T_star": ps.period if ps.finite else None,
        "windows": len(starts),
        "mismatches": mismatches,
        "p50_us": float(np.median(latency_ns)) / 1e3,
        "p99_us": float(np.percentile(latency_ns, 99)) / 1e3,
        "probe_p50_us": float(np.median(probe_ns)) / 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problem", required=True)
    ap.add_argument("--O", type=float, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(run_session(args.problem, args.O, args.steps, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
