"""Reference computations the tests compare the package's fast paths with.

None of these runs in a command: riccati_map is one step of the Riccati
recursion (dare_solve's residual), finite_riccati stacks a window's T + 1
weights and T sensitivities, and stacked_window_cost sums the window's
cost from that stack (what oracle._window_cost does in one pass without
it). error_cov_seq gives the adjoint error covariances P_t one step at a
time (what the phase table sums in blocks), lyapunov_solve the Gramian
W = A'WA + C'Sigma_S C (the limit of the phase table's W_T), and
measure_times the query steps of a schedule (what the rollout decides a
step at a time). f_value and h_value read one cycle cost f(T, r) or its
forward difference h(T, r) off a new phase table. oracle_f_curve gives
f(T, r) over the oracle's grid, from its explicit powers of A; verify
reads only h.
batch_costs keeps the total cost of every run of a Monte Carlo batch, and
empirical_error_covariance samples the estimation error covariance at one
step, both on the simulator's rollout. inner_dp_check re-costs verify's
finite window by seeded Monte Carlo, with its own loop and the window's
time-varying gains, and compares the result with the window's closed-form
cost under both covariance conventions (InnerDpReport).
"""

from __future__ import annotations

import math

import numpy as np

from lqgsched.model import CostModel, LinearSystem, Problem, record
from lqgsched.oracle import _phase_traces_from_powers, _window_cost
from lqgsched.policy import PolicySolution, _PhaseTable
from lqgsched.riccati import AreSolution, _check_lyapunov, _require_schur_stable, _step, dlyap_adjoint
from lqgsched.sim import SimConfig, Strategy, _chunk_costs, _rollout, _state_control_cost


def riccati_map(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> np.ndarray:
    """One step of the discounted Riccati recursion.

    L -> Q + beta A'LA - A'LB beta (R + beta B'LB)^{-1} beta B'LA,
    symmetrized to suppress floating-point drift.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (sys.q, sys.q):
        raise ValueError(f"L has shape {L.shape}, expected ({sys.q}, {sys.q})")
    return _step(L, sys, cost)[0]


def finite_riccati(
    P_terminal: np.ndarray, T: int, sys: LinearSystem, cost: CostModel
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion over a T-step window with terminal weight P_terminal.

    Returns (L, phi) where L has shape (T+1, q, q) with L[0] = P_terminal and
    L[t+1] = _step(L[t]), and phi has shape (T, q, q) with
    phi[t] built from L[T-t-1] (the weight active t steps into the window).
    """
    if T < 1:
        raise ValueError(f"window length T must be >= 1, got {T}")
    q = sys.q
    L = np.empty((T + 1, q, q))
    L[0] = (np.asarray(P_terminal, dtype=float) + np.asarray(P_terminal, dtype=float).T) / 2.0
    phi = np.empty((T, q, q))
    for t in range(T):
        L[t + 1], _, phi[T - t - 1] = _step(L[t], sys, cost)
    return L, phi


def stacked_window_cost(sys: LinearSystem, cost: CostModel, L: np.ndarray, phi_seq: np.ndarray, r: float,
                        x: np.ndarray, M: np.ndarray, G: np.ndarray) -> float:
    """Closed-form cost from x of the window finite_riccati gave as (L, phi_seq), T = len(phi_seq) steps:

    x'L_T x + sum_t beta^t Tr(Cov_t phi_t) + sum_{t=1..T} beta^t Tr(Sigma_S C' L_{T-t} C) + beta^T (r + O),
    Cov_0 = 0, Cov_{t+1} = M Cov_t M' + G; (M, G) is (A, C Sigma_S C') forward, (A', C' Sigma_S C) adjoint.
    """
    beta, T = cost.beta, len(phi_seq)
    cov = np.zeros_like(G)
    err = 0.0
    for t in range(T):
        err += beta**t * float(np.trace(cov @ phi_seq[t]))
        cov = M @ cov @ M.T + G
    noise = sum(beta**t * float(np.trace(sys.Sigma_S @ sys.C.T @ L[T - t] @ sys.C)) for t in range(1, T + 1))
    return float(x @ L[T] @ x) + err + noise + beta**T * (r + cost.O)


def error_cov_seq(sys: LinearSystem, T: int) -> np.ndarray:
    """Unmeasured-error covariances cov[t], t = 0..T, under the adjoint recursion, shape (T+1, q, q).

    cov[0] = 0 and cov[t+1] = A' cov[t] A + C'Sigma_S C, which telescopes to
    sum_{tau=0}^{t-1} (A')^tau C'Sigma_S C A^tau.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    q = sys.q
    G = sys.noise_gram()
    cov = np.zeros((T + 1, q, q))
    for t in range(T):
        nxt = sys.A.T @ cov[t] @ sys.A + G
        cov[t + 1] = (nxt + nxt.T) / 2.0
    return cov


def lyapunov_solve(sys: LinearSystem) -> np.ndarray:
    """Solve W - A'WA = C'Sigma_S C for Schur-stable A.

    Computed by doubling on the series sum_t (A')^t C'Sigma_S C A^t. Raises
    UnstableA when the spectral radius of A is not strictly inside the unit
    circle, and NonConvergence if the residual over max|W| is too large.
    """
    _require_schur_stable(sys)
    W = dlyap_adjoint(sys.A, sys.noise_gram())
    _check_lyapunov(sys, W)
    return W


def measure_times(strategy: Strategy, ps: PolicySolution, horizon: int) -> np.ndarray:
    """Deterministic query steps within [0, horizon); step 0 is always free."""
    T = ps.period if strategy.period is None else strategy.period
    if not T or T >= horizon:  # no query falls in the horizon (and arange cannot step by 2**63)
        return np.empty(0, dtype=int)
    return np.arange(T, horizon, T)


def f_value(T: int, r: float, sys: LinearSystem, cost: CostModel, are: AreSolution) -> float:
    """Cycle cost of waiting T steps and then paying for a query.

    f(T, r) = sum_{t=0}^{T-1} beta^t Tr(P_t phi)
            + sum_{t=1}^{T} beta^t Tr(Sigma_S C'PC)
            + beta^T (r + O).
    The offset r solves r = min_{T >= 1} f(T, r).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return _PhaseTable(sys, cost.beta, are).f(T, r, cost.O)


def h_value(T: int, r: float, sys: LinearSystem, cost: CostModel, are: AreSolution) -> float:
    """Forward difference of the cycle cost: f(T+1, r) - f(T, r) = beta^T h(T, r).

    h(T, r) = Tr(P_T phi) + beta Tr(Sigma_S C'PC) - (1 - beta)(r + O), and is
    nondecreasing in T, so the sign change of h locates the minimizer of f.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return _PhaseTable(sys, cost.beta, are).h(T, r, cost.O)


def oracle_f_curve(sys: LinearSystem, cost: CostModel, are: AreSolution, T_max: int, r: float) -> np.ndarray:
    """The oracle's cycle cost f(T, r) for T = 1..T_max, as rows (T, f(T, r)), from its explicit powers of A.

    f(T, r) = base_T + beta^T (r + O), with base_T the discounted error and noise costs of waiting T steps,
    in the arithmetic solve_r_fixed_point uses for its least ratio; at r = r_oracle its minimum is r_oracle.
    """
    beta = cost.beta
    err_trace = _phase_traces_from_powers(sys, are.phi, T_max)
    err_prefix = np.cumsum(beta ** np.arange(T_max) * err_trace)  # index T-1 -> sum_{t<T}
    noise_rate = float(np.trace(sys.Sigma_S @ sys.C.T @ are.P @ sys.C))
    Ts = np.arange(1, T_max + 1)
    beta_T = beta**Ts
    base = err_prefix + noise_rate * beta * (1.0 - beta_T) / (1.0 - beta)
    return np.column_stack([Ts.astype(float), base + beta_T * (r + cost.O)])


def batch_costs(problem: Problem, ps: PolicySolution, cfg: SimConfig) -> np.ndarray:
    """Total discounted cost of each run (one float per run: for tests and small batches)."""
    return np.concatenate(list(_chunk_costs(problem, ps, cfg)))


def _merge_comoments(acc: tuple, n_b: int, mean_b: np.ndarray, m2_b: np.ndarray) -> tuple:
    """sim._merge_moments for vectors: merge a block's count, mean and centred co-moment matrix into ``acc``."""
    n, mean, m2 = acc
    delta, n_ab = mean_b - mean, n + n_b
    return n_ab, mean + delta * n_b / n_ab, m2 + (m2_b + np.multiply.outer(delta, delta) * n * n_b / n_ab)


def empirical_error_covariance(
    problem: Problem, ps: PolicySolution, cfg: SimConfig, t: int
) -> np.ndarray:
    """Sample covariance of the estimation error x_t - xbar_t across runs.

    Step 0 is a (free) query epoch, so for t inside the first waiting window
    the phase since the last query equals t itself. Each chunk's errors merge
    into a running count, mean and co-moment (``_merge_comoments``), so
    memory does not grow with n_runs.
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
            acc = _merge_comoments(acc, len(E), mean_b, D.T @ D)
    return acc[2] / (cfg.n_runs - 1)


@record
class InnerDpReport:
    """Closed-form window cost vs. a Monte Carlo estimate of the same controls.

    closed_form uses the physical error propagation; closed_form_adjoint uses
    the planner's adjoint recursion. gap / gap_adjoint are the respective
    absolute deviations from the Monte Carlo mean.
    """

    closed_form: float
    closed_form_adjoint: float
    mc_mean: float
    mc_se: float

    @property
    def gap(self) -> float:
        return abs(self.closed_form - self.mc_mean)

    @property
    def gap_adjoint(self) -> float:
        return abs(self.closed_form_adjoint - self.mc_mean)


def inner_dp_check(
    sys: LinearSystem,
    cost: CostModel,
    P: np.ndarray,
    r: float,
    T: int,
    x: np.ndarray,
    n_mc: int = 100_000,
    seed: int = 0,
) -> InnerDpReport:
    """Re-cost the T-step window by simulation and compare to the closed forms.

    closed_form and closed_form_adjoint are _window_cost under the physical
    and the adjoint error propagation; the simulation applies the
    window-optimal gains to n_mc noisy runs with terminal cost
    beta^T (x_T' P x_T + r + O).
    """
    x = np.asarray(x, dtype=float).ravel()
    beta, A, B, C = cost.beta, sys.A, sys.B, sys.C
    cf_fwd = _window_cost(sys, cost, P, T, r, x, A, C @ sys.Sigma_S @ C.T)
    cf_adj = _window_cost(sys, cost, P, T, r, x, A.T, sys.noise_gram())
    L, _ = finite_riccati(P, T, sys, cost)

    # One run per column, as sim's rollout keeps them; phase t applies the gain of the weight L[T - t - 1].
    rng = np.random.Generator(np.random.PCG64(seed))
    X = np.repeat(x[:, None], n_mc, axis=1)
    Xhat = X.copy()
    totals = np.zeros(n_mc)
    for t in range(T):
        U = -(_step(L[T - t - 1], sys, cost)[1] @ Xhat)
        totals += beta**t * _state_control_cost(cost, X, U)
        W = sys.noise_factor @ rng.standard_normal((n_mc, sys.q)).T
        X = A @ X + B @ U + W
        Xhat = A @ Xhat + B @ U
    totals += beta**T * (np.einsum("ij,ij->j", P @ X, X) + r + cost.O)

    mc_mean = float(totals.mean())
    mc_se = float(totals.std(ddof=1) / math.sqrt(n_mc))
    return InnerDpReport(
        closed_form=cf_fwd, closed_form_adjoint=cf_adj, mc_mean=mc_mean, mc_se=mc_se
    )
