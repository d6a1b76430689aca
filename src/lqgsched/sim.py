"""Seeded closed-loop simulation with discounted cost accounting.

Every schedule here fixes its query times in advance (the optimal trigger
too: it is state-independent and periodic), so one batched rollout,
``_rollout``, serves them all: Monte Carlo costs, the sampled error
covariance and the single trajectory of every schedule, which is run 0 of
the rollout. The rollout multiplies by the operands the solved policy
prepares once.

Noise is drawn from numpy's PCG64 generator; run k of a Monte Carlo batch
uses the substream seeded with ``seed + k`` whatever the chunking, so any
single run can be reproduced bit-for-bit in isolation. The rollout holds the
noise of one chunk of runs at a time (at most ``_CHUNK_VALUES`` values),
run-major, each run's draws written straight into its block of the chunk
buffer. Monte Carlo costs and the sampled error covariance merge each
chunk's moments into running totals, so memory does not grow with the
number of runs (at most ``MAX_RUNS``). Gaussian plant noise
w ~ N(0, Sigma_S) is sampled as sqrt(Sigma_S) @ z with the symmetric PSD
square root, which also supports degenerate covariances (useful for
noiseless test modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CostModel, Problem
from .policy import PolicySolution, _closed_loop

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


# The most Monte Carlo runs one simulation takes. A million runs of 500 steps
# take about two minutes on sys1 and twenty on a q=50 plant (one CPU).
MAX_RUNS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    The default horizon of 500 leaves a discount tail of beta^500 (about
    7e-12 at beta = 0.95), far below Monte Carlo noise. n_runs may be at
    most MAX_RUNS.
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
        if self.n_runs > MAX_RUNS:
            raise ValueError(f"n_runs must be <= {MAX_RUNS}")


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
        # Python floats and ints, so each cell is one repr: the same text as repr(float(v))
        reals = np.hstack([self.x, self.x_bar, self.err, self.u]).tolist()
        columns = zip(self.t.astype(int).tolist(), reals, self.i.astype(int).tolist(),
                      self.stage_cost.tolist(), self.cum_cost.tolist())
        lines = [",".join(header)]
        lines += [",".join([str(t), *map(repr, row), str(i), repr(sc), repr(cc)]) for t, row, i, sc, cc in columns]
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

    Yields ``(t, X, Xbar, U, measured)`` for each chunk and each step
    ``t < steps``: row j of ``X``, ``Xbar`` and ``U`` is the state, estimate
    and control of the chunk's run j at step t, before the step's noise
    enters; chunks come in run order. The three arrays are buffers that
    later steps overwrite, so a caller copies what it keeps. Run k draws its
    noise from substream ``seed + k`` whatever the chunking, and a chunk
    holds at most ``_CHUNK_VALUES`` noise values (at least one run's).
    """
    # the plant is normally the policy's own model; another plant gets its own operands
    loop = ps._loop if problem.sys is ps.sys else _closed_loop(problem.sys, ps)
    A, B, minus_K, N = loop.A, loop.B, loop.minus_K, loop.N
    q = problem.q
    measure = np.zeros(steps, dtype=bool)
    measure[strategy.measure_times(ps, steps)] = True  # never step 0: it is free

    # Chunks of equal size: a small remainder chunk would take BLAS's small-matrix
    # path, whose last bits differ from those of the full-size products.
    n_chunks = -(-n_runs // max(1, _CHUNK_VALUES // (steps * q)))
    chunk = -(-n_runs // n_chunks)
    Z = np.empty((chunk, steps, q))  # run-major: run r's standard normals are the block Z[r]
    states, controls = np.empty((5, q, chunk)), np.empty((problem.p, chunk))
    for first in range(0, n_runs, chunk):
        n = min(chunk, n_runs - first)
        for r in range(n):
            _run_rng(seed, first + r).standard_normal(out=Z[r])
        # One run per column, so on a single run every product is the online
        # controller's matrix-vector product, bit for bit. X and Xbar are each
        # updated into a spare and swapped with it; BU holds B U.
        X, X_next, Xbar, Xbar_next, BU = states[:, :, :n]
        U = controls[:, :n]
        X[:] = problem.x0[:, None]
        for t in range(steps):
            if t > 0:  # the step from t - 1; its B U serves the estimate too
                np.matmul(A, X, out=X_next)
                X_next += np.matmul(B, U, out=BU)
                X_next += np.matmul(N, Z[:n, t - 1].T, out=Xbar_next)  # a spare until the estimate update
                X, X_next = X_next, X
            if t == 0 or measure[t]:  # x0 is known at step 0
                np.copyto(Xbar, X)
            else:
                np.matmul(A, Xbar, out=Xbar_next)
                Xbar_next += BU
                Xbar, Xbar_next = Xbar_next, Xbar
            np.matmul(minus_K, Xbar, out=U)
            yield t, X.T, Xbar.T, U.T, bool(measure[t])


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
    """One seeded closed-loop trajectory: run 0 (substream ``seed + 0``) of the shared rollout.

    The optimal strategy queries at the multiples of T*, as the online
    controller session does.
    """
    H, q, p = cfg.horizon, problem.q, problem.p
    X, Xbar, U = np.empty((H, q)), np.empty((H, q)), np.empty((H, p))
    I = np.zeros(H, dtype=int)
    for t, Xt, Xbart, Ut, measured in _rollout(problem, ps, cfg.strategy, cfg.seed, 1, H):
        X[t], Xbar[t], U[t], I[t] = Xt[0], Xbart[0], Ut[0], measured
    return _record(problem.cost, X, Xbar, U, I)


def _chunk_costs(problem: Problem, ps: PolicySolution, cfg: SimConfig):
    """Total discounted cost of each run of the rollout, one array per chunk of runs."""
    cost = problem.cost
    for t, X, _, U, measured in _rollout(problem, ps, cfg.strategy, cfg.seed, cfg.n_runs, cfg.horizon):
        if t == 0:
            totals = np.zeros(len(X))
        disc = cost.beta**t
        if measured:
            totals += disc * cost.O
        totals += disc * _state_control_cost(cost, X, U)
        if t == cfg.horizon - 1:
            yield totals


def _batch_costs(problem: Problem, ps: PolicySolution, cfg: SimConfig) -> np.ndarray:
    """Total discounted cost of each run (one float per run: for tests and small batches)."""
    return np.concatenate(list(_chunk_costs(problem, ps, cfg)))


def _merge_moments(acc: tuple, n_b: int, mean_b, m2_b) -> tuple:
    """Merge a block's count, mean and centred co-moment into the running ``acc``.

    The pairwise update of Chan, Golub and LeVeque: the two co-moments add,
    with a correction for the gap between the two means, so no earlier
    sample is kept.
    """
    n, mean, m2 = acc
    delta, n_ab = mean_b - mean, n + n_b
    return n_ab, mean + delta * n_b / n_ab, m2 + (m2_b + np.multiply.outer(delta, delta) * n * n_b / n_ab)


def monte_carlo_value(
    problem: Problem, ps: PolicySolution, cfg: SimConfig
) -> tuple[float, float]:
    """Mean total discounted cost over cfg.n_runs independent runs and its
    standard error (sample std / sqrt(n); meaningful for n_runs >= 30).

    The moments stream: each chunk's run totals merge into a running count,
    mean and sum of squared deviations (``_merge_moments``), so memory does
    not grow with n_runs.
    """
    acc = (0, 0.0, 0.0)
    for totals in _chunk_costs(problem, ps, cfg):
        mean_b = totals.mean()
        acc = _merge_moments(acc, len(totals), mean_b, np.sum((totals - mean_b) ** 2))
    n, mean, m2 = acc
    if n == 1:
        return float(mean), 0.0
    return float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def empirical_error_covariance(
    problem: Problem, ps: PolicySolution, cfg: SimConfig, t: int
) -> np.ndarray:
    """Sample covariance of the estimation error x_t - xbar_t across runs.

    Step 0 is a (free) query epoch, so for t inside the first waiting window
    the phase since the last query equals t itself. Each chunk's errors merge
    into a running count, mean and co-moment (``_merge_moments``), so memory
    does not grow with n_runs.
    """
    if not (0 <= t < cfg.horizon):
        raise ValueError(f"step {t} outside horizon {cfg.horizon}")
    if cfg.n_runs < 2:
        raise ValueError("a sample covariance needs n_runs >= 2")
    acc = (0, 0.0, 0.0)
    for step, X, Xbar, _, _ in _rollout(problem, ps, cfg.strategy, cfg.seed, cfg.n_runs, t + 1):
        if step == t:
            E = X - Xbar
            mean_b = E.mean(axis=0)
            D = E - mean_b
            acc = _merge_moments(acc, len(E), mean_b, D.T @ D)
    return acc[2] / (cfg.n_runs - 1)
