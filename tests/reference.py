"""Sequential reference computations the tests compare the package's fast paths with.

None of these runs in a command: riccati_map is one step of the Riccati
recursion (dare_solve's residual), error_cov_seq the adjoint error
covariances P_t one step at a time (what the phase table sums in blocks),
lyapunov_solve the Gramian W = A'WA + C'Sigma_S C (the limit of the
phase table's W_T), and measure_times the query steps of a schedule (what
the rollout decides a step at a time).
"""

from __future__ import annotations

import numpy as np

from lqgsched.model import CostModel, LinearSystem
from lqgsched.policy import PolicySolution
from lqgsched.riccati import _check_lyapunov, _require_schur_stable, _step, dlyap_adjoint
from lqgsched.sim import Strategy


def riccati_map(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> np.ndarray:
    """One step of the discounted Riccati recursion.

    L -> Q + beta A'LA - A'LB beta (R + beta B'LB)^{-1} beta B'LA,
    symmetrized to suppress floating-point drift.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (sys.q, sys.q):
        raise ValueError(f"L has shape {L.shape}, expected ({sys.q}, {sys.q})")
    return _step(L, sys, cost)[0]


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
