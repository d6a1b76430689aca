"""Seeded closed-loop simulation with discounted cost accounting.

Every schedule here fixes its query times in advance (the optimal trigger
too: it is state-independent and periodic), so one batched rollout,
``_rollout``, serves them all: Monte Carlo costs, the sampled error
covariance and the single trajectory of the always, never and fixed:T
schedules. The optimal single trajectory instead runs the online controller
session, whose trigger counts steps against the same solved T*. Both kinds
of trajectory share one cost-accounting routine.

Noise is drawn from numpy's PCG64 generator; run k of a Monte Carlo batch
uses the substream seeded with ``seed + k`` whatever the chunking, so any
single run can be reproduced bit-for-bit in isolation. The rollout holds the
noise of one chunk of runs at a time (at most ``_CHUNK_VALUES`` values), not
of all of them, so memory does not grow with the number of runs. Gaussian
plant noise w ~ N(0, Sigma_S) is sampled as sqrt(Sigma_S) @ z with the
symmetric PSD square root, which also supports degenerate covariances
(useful for noiseless test modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import initial_state, step_decide
from .model import CostModel, Problem, psd_sqrt
from .policy import PolicySolution

__all__ = [
    "Strategy",
    "OPTIMAL",
    "ALWAYS_MEASURE",
    "NEVER_MEASURE",
    "fixed_period",
    "SimConfig",
    "TrajectoryRecord",
    "simulate",
    "monte_carlo_value",
    "empirical_error_covariance",
]


@dataclass(frozen=True)
class Strategy:
    """Measurement schedule selector: optimal trigger, always, never, or fixed-T."""

    kind: str
    period: int | None = None

    def __post_init__(self):
        if self.kind not in ("optimal", "always", "never", "fixed"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fixed" and (self.period is None or self.period < 1):
            raise ValueError("fixed strategy needs period >= 1")

    def measure_times(self, ps: PolicySolution, horizon: int) -> np.ndarray:
        """Deterministic query steps within [0, horizon); step 0 is always free."""
        if self.kind == "always":
            return np.arange(1, horizon)
        if self.kind == "never":
            return np.empty(0, dtype=int)
        if self.kind == "fixed":
            return np.arange(self.period, horizon, self.period)
        if not ps.finite:
            return np.empty(0, dtype=int)
        return np.arange(ps.period, horizon, ps.period)


OPTIMAL = Strategy("optimal")
ALWAYS_MEASURE = Strategy("always")
NEVER_MEASURE = Strategy("never")


def fixed_period(T: int) -> Strategy:
    return Strategy("fixed", period=int(T))


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    The default horizon of 500 leaves a discount tail of beta^500 (about
    7e-12 at beta = 0.95), far below Monte Carlo noise.
    """

    horizon: int = 500
    seed: int = 0
    n_runs: int = 1
    strategy: Strategy = field(default_factory=lambda: OPTIMAL)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step closed-loop trace with discounted cost accounting.

    stage_cost[t] = beta^t (x'Qx + u'Ru + i*O); cum_cost is its prefix sum,
    split into cum_state_control and cum_measure.
    """

    t: np.ndarray
    x: np.ndarray
    x_bar: np.ndarray
    err: np.ndarray
    u: np.ndarray
    i: np.ndarray
    stage_cost: np.ndarray
    cum_cost: np.ndarray
    cum_state_control: np.ndarray
    cum_measure: np.ndarray

    @property
    def total_cost(self) -> float:
        return float(self.cum_cost[-1])

    @property
    def n_measurements(self) -> int:
        return int(self.i.sum())

    def csv_text(self) -> str:
        q = self.x.shape[1]
        p = self.u.shape[1]
        header = (
            ["t"]
            + [f"x_{k+1}" for k in range(q)]
            + [f"xbar_{k+1}" for k in range(q)]
            + [f"err_{k+1}" for k in range(q)]
            + [f"u_{k+1}" for k in range(p)]
            + ["i", "stage_cost", "cum_cost"]
        )
        lines = [",".join(header)]
        for k in range(len(self.t)):
            row = (
                [str(int(self.t[k]))]
                + [repr(float(v)) for v in self.x[k]]
                + [repr(float(v)) for v in self.x_bar[k]]
                + [repr(float(v)) for v in self.err[k]]
                + [repr(float(v)) for v in self.u[k]]
                + [str(int(self.i[k])), repr(float(self.stage_cost[k])), repr(float(self.cum_cost[k]))]
            )
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def _run_rng(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed + run))


# Noise values one chunk of Monte Carlo runs holds at once: 2**22 doubles (32 MB).
_CHUNK_VALUES = 2**22


def _rollout(problem: Problem, ps: PolicySolution, strategy: Strategy, seed: int, n_runs: int, steps: int):
    """The closed loop of runs ``0..n_runs-1`` under ``strategy``, a chunk of runs at a time.

    Yields ``(first_run, t, X, Xbar, U, measured)`` for each chunk and each
    step ``t < steps``: row j of ``X``, ``Xbar`` and ``U`` is the state,
    estimate and control of run ``first_run + j`` at step t, before the step's
    noise enters. Run k draws its noise from substream ``seed + k`` whatever
    the chunking, and a chunk holds at most ``_CHUNK_VALUES`` noise values (at
    least one run's).
    """
    sys = problem.sys
    A, B, K = sys.A, sys.B, ps.are.K
    q = sys.q
    N_mat = sys.C @ psd_sqrt(sys.Sigma_S)
    measure = np.zeros(steps, dtype=bool)
    measure[strategy.measure_times(ps, steps)] = True  # never step 0: it is free

    # Chunks of equal size: a small remainder chunk would take BLAS's small-matrix
    # path, whose last bits differ from those of the full-size products.
    n_chunks = -(-n_runs // max(1, _CHUNK_VALUES // (steps * q)))
    chunk = -(-n_runs // n_chunks)
    noise = np.empty((chunk, steps, q))
    for first in range(0, n_runs, chunk):
        n = min(chunk, n_runs - first)
        W = noise[:n]
        for r in range(n):
            W[r] = _run_rng(seed, first + r).standard_normal((steps, q)) @ N_mat.T
        X = np.tile(problem.x0, (n, 1))
        Xbar = X.copy()
        for t in range(steps):
            if measure[t]:
                Xbar = X.copy()
            elif t > 0:
                Xbar = Xbar @ A.T + U @ B.T
            U = -(Xbar @ K.T)
            yield first, t, X, Xbar, U, bool(measure[t])
            X = X @ A.T + U @ B.T + W[:, t, :]


def _state_control_cost(cost: CostModel, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Undiscounted x'Qx + u'Ru of each row.

    Each term is one matrix product and a row dot, ``(X @ Q) . X``: a
    three-operand einsum would run as a plain C loop, without BLAS.
    """
    return np.einsum("ij,ij->i", X @ cost.Q, X) + np.einsum("ij,ij->i", U @ cost.R, U)


def _record(cost: CostModel, X: np.ndarray, Xbar: np.ndarray, U: np.ndarray, I: np.ndarray) -> TrajectoryRecord:
    """Discounted cost accounting of one trajectory."""
    disc = cost.beta ** np.arange(len(X))
    sc = disc * _state_control_cost(cost, X, U)
    ms = disc * cost.O * I
    cum_sc, cum_ms = np.cumsum(sc), np.cumsum(ms)
    return TrajectoryRecord(
        t=np.arange(len(X)),
        x=X,
        x_bar=Xbar,
        err=X - Xbar,
        u=U,
        i=I,
        stage_cost=sc + ms,
        cum_cost=cum_sc + cum_ms,
        cum_state_control=cum_sc,
        cum_measure=cum_ms,
    )


def simulate(problem: Problem, ps: PolicySolution, cfg: SimConfig) -> TrajectoryRecord:
    """One seeded closed-loop trajectory (substream ``seed + 0``).

    The optimal strategy runs the online controller session, which queries
    at the multiples of T* as ``measure_times`` does; the other schedules
    are run ``0`` of the shared rollout.
    """
    H, q, p = cfg.horizon, problem.q, problem.p
    X, Xbar, U = np.empty((H, q)), np.empty((H, q)), np.empty((H, p))
    I = np.zeros(H, dtype=int)
    if cfg.strategy.kind == "optimal":
        A, B, C = problem.sys.A, problem.sys.B, problem.sys.C
        noise_sqrt = psd_sqrt(problem.sys.Sigma_S)
        z = _run_rng(cfg.seed, 0).standard_normal((H, q))
        x, u = problem.x0.copy(), None
        state = initial_state(ps, problem.x0)
        for t in range(H):
            I[t], u, state = step_decide(state, x, ps, u)
            X[t], Xbar[t], U[t] = x, state.x_bar, u
            x = A @ x + B @ u + C @ (noise_sqrt @ z[t])
    else:
        for _, t, Xt, Xbart, Ut, measured in _rollout(problem, ps, cfg.strategy, cfg.seed, 1, H):
            X[t], Xbar[t], U[t], I[t] = Xt[0], Xbart[0], Ut[0], measured
    return _record(problem.cost, X, Xbar, U, I)


def _batch_costs(problem: Problem, ps: PolicySolution, cfg: SimConfig) -> np.ndarray:
    """Total discounted cost of each run of the rollout."""
    cost = problem.cost
    totals = np.zeros(cfg.n_runs)
    for first, t, X, _, U, measured in _rollout(problem, ps, cfg.strategy, cfg.seed, cfg.n_runs, cfg.horizon):
        rows = totals[first:first + len(X)]  # a view: += adds into totals
        disc = cost.beta**t
        if measured:
            rows += disc * cost.O
        rows += disc * _state_control_cost(cost, X, U)
    return totals


def monte_carlo_value(
    problem: Problem, ps: PolicySolution, cfg: SimConfig
) -> tuple[float, float]:
    """Mean total discounted cost over cfg.n_runs independent runs and its
    standard error (sample std / sqrt(n); meaningful for n_runs >= 30)."""
    totals = _batch_costs(problem, ps, cfg)
    mean = float(totals.mean())
    if cfg.n_runs == 1:
        return mean, 0.0
    se = float(totals.std(ddof=1) / math.sqrt(cfg.n_runs))
    return mean, se


def empirical_error_covariance(
    problem: Problem, ps: PolicySolution, cfg: SimConfig, t: int
) -> np.ndarray:
    """Sample covariance of the estimation error x_t - xbar_t across runs.

    Step 0 is a (free) query epoch, so for t inside the first waiting window
    the phase since the last query equals t itself.
    """
    if not (0 <= t < cfg.horizon):
        raise ValueError(f"step {t} outside horizon {cfg.horizon}")
    if cfg.n_runs < 2:
        raise ValueError("a sample covariance needs n_runs >= 2")
    E = np.empty((cfg.n_runs, problem.q))
    for first, step, X, Xbar, _, _ in _rollout(problem, ps, cfg.strategy, cfg.seed, cfg.n_runs, t + 1):
        if step == t:
            E[first:first + len(X)] = X - Xbar
    E = E - E.mean(axis=0, keepdims=True)
    return (E.T @ E) / (cfg.n_runs - 1)
