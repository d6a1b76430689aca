"""Seeded closed-loop simulation with discounted cost accounting.

A ``Strategy`` is just a query period fixed in advance (the optimal trigger
is state-independent and periodic too, with period T*), so one batched rollout,
``_rollout``, serves them all: Monte Carlo costs and the single trajectory
of every schedule, which is a rollout of one run. It multiplies directly by
the plant's read-only A, B and noise factor N = C Sigma_S^(1/2) and the
policy's negated gain ``ps.are.minus_K``.

Noise is drawn from numpy's PCG64 generator. The runs of a Monte Carlo
batch come in groups of ``_GROUP_RUNS`` consecutive runs, and group g draws
from the stream seeded with ``seed + g``, a step at a time: q standard
normals for each of its runs in the job, in run order. So a one-run job
draws stream ``seed`` as one ``(horizon, q)`` draw would, a full group's
runs do not depend on the number of runs, no run depends on the chunking,
and a job of a group's runs on ``seed + g`` draws that group's noise again,
bit for bit. The rollout holds one step of noise and four state buffers
for one chunk of whole groups (within ``_CHUNK_VALUES`` values, and at least
one group), so memory does not grow with the horizon. Monte Carlo costs
merge each chunk's moments into running totals, so memory does not grow
with the number of runs (at most ``MAX_RUNS``) either, and ``TrajectoryRecord.write_csv`` formats the rows of about
``_CSV_VALUES`` cells at a time. The CLI runs the Monte Carlo before it rolls
the trajectory, so the two are never held at once.
Gaussian plant noise w ~ N(0, Sigma_S) is sampled as sqrt(Sigma_S) @ z with
the symmetric PSD square root, which also supports degenerate covariances
(useful for noiseless test modes).
"""

from __future__ import annotations

import math

import numpy as np

from .model import CostModel, Problem, record
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
]


@record
class Strategy:
    """Query period of a simulated schedule: None for the policy's own period, 0 for never, T for every T steps."""

    period: int | None = None

    def __post_init__(self):
        if self.period is not None and self.period < 0:
            raise ValueError(f"a query period must be >= 0, got {self.period}")


OPTIMAL = Strategy()
ALWAYS_MEASURE = Strategy(1)
NEVER_MEASURE = Strategy(0)


def fixed_period(T: int) -> Strategy:
    """Query every T steps, T >= 1."""
    if T < 1:
        raise ValueError("fixed strategy needs period >= 1")
    return Strategy(int(T))


# The most Monte Carlo runs one simulation takes. A million runs of 500 steps
# take about two minutes on sys1 and twenty on a q=50 plant (one CPU).
MAX_RUNS = 1_000_000


@record
class SimConfig:
    """Simulation parameters.

    The default horizon of 500 leaves a discount tail of beta^500 (about
    7e-12 at beta = 0.95), far below Monte Carlo noise. n_runs may be at
    most MAX_RUNS, and seed is at least 0. Runs come in groups of
    ``_GROUP_RUNS`` (1024) consecutive runs, and group g draws its noise
    from stream seed + g: one run draws from seed itself, and group g of a
    batch is, to rounding, the batch of that group's runs on seed + g.
    """

    horizon: int = 500
    seed: int = 0
    n_runs: int = 1
    strategy: Strategy = OPTIMAL

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.n_runs > MAX_RUNS:
            raise ValueError(f"n_runs must be <= {MAX_RUNS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# Cells write_csv formats at a time, in whole rows (at least one): 273 rows at
# q = 3, p = 2 and 24 at q = 50, p = 10.
_CSV_VALUES = 2**12


def _csv_rows(q: int, p: int) -> int:
    """Rows of a ``write_csv`` block: a row holds t, x, x_bar, err, u, i and the two costs, 3 q + p + 4 cells."""
    return max(1, _CSV_VALUES // (3 * q + p + 4))


@record
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

    def csv_text(self, start: int = 0, stop: int | None = None) -> str:
        """Rows ``start..stop-1`` of the trajectory CSV, with the header line when ``start`` is 0."""
        rows = slice(start, stop)
        # Python floats and ints, so each cell is one repr: the same text as repr(float(v))
        reals = np.hstack([self.x[rows], self.x_bar[rows], self.err[rows], self.u[rows]]).tolist()
        columns = zip(self.t[rows].astype(int).tolist(), reals, self.i[rows].astype(int).tolist(),
                      self.stage_cost[rows].tolist(), self.cum_cost[rows].tolist())
        lines = [",".join([str(t), *map(repr, row), str(i), repr(sc), repr(cc)]) for t, row, i, sc, cc in columns]
        if start == 0:
            q, p = self.x.shape[1], self.u.shape[1]
            header = (
                ["t"]
                + [f"x_{k+1}" for k in range(q)]
                + [f"xbar_{k+1}" for k in range(q)]
                + [f"err_{k+1}" for k in range(q)]
                + [f"u_{k+1}" for k in range(p)]
                + ["i", "stage_cost", "cum_cost"]
            )
            lines.insert(0, ",".join(header))
        return "".join(line + "\n" for line in lines)

    def write_csv(self, dest) -> None:
        """Write ``csv_text()`` to a path or an open text stream, ``_csv_rows(q, p)`` rows at a time.

        Only one block of rows is formatted at once, so memory does not grow
        with the horizon, and a block holds about ``_CSV_VALUES`` cells whatever
        the width of a row.
        """
        if not hasattr(dest, "write"):
            with open(dest, "w") as fh:
                self.write_csv(fh)
            return
        rows = _csv_rows(self.x.shape[1], self.u.shape[1])
        for start in range(0, len(self.t), rows):
            dest.write(self.csv_text(start, start + rows))


def _run_rng(seed: int, group: int) -> np.random.Generator:
    """The noise stream of group ``group`` of a Monte Carlo job: PCG64 seeded with ``seed + group``."""
    return np.random.Generator(np.random.PCG64(seed + group))


# Consecutive Monte Carlo runs that share one noise stream: runs g * _GROUP_RUNS
# up to (g + 1) * _GROUP_RUNS - 1 draw from stream seed + g. Part of the output
# contract, like the seed rule, and not a tuning knob: a batch's figures change
# with it. At 1 every run has a stream of its own.
_GROUP_RUNS = 1024
# Values one chunk of Monte Carlo runs may hold at once: 2**19 doubles (4 MB), at
# 6 q + p values a run. A run holds 5 q + p (its state, its estimate, their two
# spares, one of which takes B u, its noise and its control), and the cost's
# Q X takes q more each step. A chunk holds whole groups, at least one.
_CHUNK_VALUES = 2**19


def _rollout(problem: Problem, ps: PolicySolution, strategy: Strategy, seed: int, n_runs: int, steps: int):
    """The closed loop of runs ``0..n_runs-1`` under ``strategy``, a chunk of runs at a time.

    Yields ``(t, X, Xbar, U, measured)`` for each chunk and each step
    ``t < steps``: row j of ``X``, ``Xbar`` and ``U`` is the state, estimate
    and control of the chunk's run j at step t, before the step's noise
    enters; chunks come in run order. The three arrays are buffers that
    later steps overwrite, so a caller copies what it keeps. A chunk has
    four ``(q, runs)`` state buffers: the state, the estimate and a spare
    for each. A step writes A X into the state's spare, then B U into the
    state that A X has just retired, where the estimate update reads it,
    and N Z into the estimate's spare until that update.

    Runs come in groups of ``_GROUP_RUNS``; group g draws from stream
    ``seed + g``, one step at a time: q standard normals for each of its
    runs in the job, in run order, straight into the group's rows of the
    chunk's ``(runs, q)`` noise buffer. A one-run job thus reads stream
    ``seed`` in the order ``standard_normal((steps, q))`` does, a full
    group's noise does not depend on ``n_runs``, and no run's noise depends
    on the chunking. A chunk holds as many whole groups as ``_CHUNK_VALUES``
    values allow at 6 q + p a run, at least one, so memory grows neither
    with ``steps`` nor with ``n_runs``.
    """
    A, B, N, minus_K = problem.sys.A, problem.sys.B, problem.sys.noise_factor, ps.are.minus_K
    q, p = problem.q, problem.p
    T = ps.period if strategy.period is None else strategy.period  # queries at the multiples of T, never step 0

    n_groups = -(-n_runs // _GROUP_RUNS)
    # Chunks of equal size: a small remainder chunk would take BLAS's small-matrix
    # path, whose last bits differ from those of the full-size products.
    n_chunks = -(-n_groups // max(1, _CHUNK_VALUES // ((6 * q + p) * _GROUP_RUNS)))
    chunk = min(n_runs, -(-n_groups // n_chunks) * _GROUP_RUNS)
    Z = np.empty((chunk, q))  # run-major: row j holds the chunk's run j's standard normals for one step
    states, controls = np.empty((4, q, chunk)), np.empty((p, chunk))
    for first in range(0, n_runs, chunk):  # a multiple of _GROUP_RUNS
        n = min(chunk, n_runs - first)
        draws = [(_run_rng(seed, (first + a) // _GROUP_RUNS).standard_normal, Z[a:min(a + _GROUP_RUNS, n)])
                 for a in range(0, n, _GROUP_RUNS)]
        # One run per column, so on a single run every product is the online
        # controller's matrix-vector product, bit for bit. X and Xbar are each
        # updated into a spare and swapped with it.
        X, X_next, Xbar, Xbar_next = states[:, :, :n]
        U, noise = controls[:, :n], Z[:n].T
        X[:] = problem.x0[:, None]
        for t in range(steps):
            if t > 0:  # the step from t - 1, on step t - 1's noise; its B U serves the estimate too
                for draw, rows in draws:
                    draw(out=rows)
                np.matmul(A, X, out=X_next)
                BU = np.matmul(B, U, out=X)  # into the state A X has just retired
                X_next += BU
                X_next += np.matmul(N, noise, out=Xbar_next)  # a spare until the estimate update
                X, X_next = X_next, X  # X_next holds B U until the next step
            measured = 0 < T <= t and t % T == 0
            if t == 0 or measured:  # x0 is known at step 0
                np.copyto(Xbar, X)
            else:
                np.matmul(A, Xbar, out=Xbar_next)
                Xbar_next += BU
                Xbar, Xbar_next = Xbar_next, Xbar
            np.matmul(minus_K, Xbar, out=U)
            yield t, X.T, Xbar.T, U.T, measured


def _state_control_cost(cost: CostModel, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Undiscounted x'Qx + u'Ru of each column: one state and control per column, as the rollout keeps them.

    Each term is one matrix product and a column dot, ``(Q @ X) . X``: a
    three-operand einsum would run as a plain C loop, without BLAS. On the
    rollout's C-contiguous buffers the column dot runs along rows of memory,
    about twice as fast as a row dot over their transposes.
    """
    return np.einsum("ij,ij->j", cost.Q @ X, X) + np.einsum("ij,ij->j", cost.R @ U, U)


def _record(cost: CostModel, X: np.ndarray, Xbar: np.ndarray, U: np.ndarray, I: np.ndarray) -> TrajectoryRecord:
    """Discounted cost accounting of one trajectory."""
    disc = cost.beta ** np.arange(len(X))
    sc = disc * _state_control_cost(cost, X.T, U.T)
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


def _trajectory_arrays(horizon: int, q: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A trajectory's states, estimates and controls: empty arrays of ``horizon`` rows, q, q and p wide.

    A trajectory that numpy cannot allocate raises MemoryError. Until the
    rollout writes them, the arrays take no resident memory.
    """
    try:
        return np.empty((horizon, q)), np.empty((horizon, q)), np.empty((horizon, p))
    except ValueError as e:  # numpy's refusal of a length past the address space
        raise MemoryError(f"a trajectory of {horizon} steps cannot be allocated: {e}") from e


def simulate(problem: Problem, ps: PolicySolution, cfg: SimConfig) -> TrajectoryRecord:
    """One seeded closed-loop trajectory: the shared rollout's only run, on stream ``seed``.

    Its noise is ``standard_normal((horizon, q))`` of PCG64(seed), whatever
    ``cfg.n_runs`` is, so the trajectory does not depend on the batch.

    The optimal strategy queries at the multiples of T*, as the online
    controller session does. A trajectory that numpy cannot allocate
    raises MemoryError.
    """
    H = cfg.horizon
    X, Xbar, U = _trajectory_arrays(H, problem.q, problem.p)
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
        totals += disc * _state_control_cost(cost, X.T, U.T)  # the rollout's own (q, n) buffers
        if t == cfg.horizon - 1:
            yield totals


def _merge_moments(acc: tuple, n_b: int, mean_b: float, m2_b: float) -> tuple:
    """Merge a block's count, mean and sum of squared deviations into the running ``acc``.

    The pairwise update of Chan, Golub and LeVeque: the two sums add, with
    a correction for the gap between the two means, so no earlier sample is
    kept.
    """
    n, mean, m2 = acc
    delta, n_ab = mean_b - mean, n + n_b
    return n_ab, mean + delta * n_b / n_ab, m2 + (m2_b + delta * delta * n * n_b / n_ab)


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
