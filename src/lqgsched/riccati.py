"""Matrix-equation machinery: discounted Riccati iteration, gains, Lyapunov sums.

The discounted algebraic Riccati equation is solved by fixed-point value
iteration, which converges geometrically for beta < 1; no structured
eigen-solver is involved. The fixed point exists and stabilizes the loop
exactly when (sqrt(beta) A, B) is stabilizable and (sqrt(beta) A, sqrt(Q))
is detectable; model.validate decides that before any solve. All solves
against R + beta*B'LB go through numpy's Cholesky factorization, since that
matrix is positive definite whenever R > 0 and L >= 0; a matrix that is not
raises LinAlgError. Only numpy is needed at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostModel, LinearSystem

__all__ = [
    "AreSolution",
    "NonConvergence",
    "UnstableA",
    "riccati_map",
    "dare_solve",
    "finite_riccati",
    "lyapunov_solve",
    "spectral_radius",
    "dlyap_adjoint",
]

# The Riccati iteration stops once the sup-norm step is below ARE_TOL, or fails after ARE_MAX_ITER steps.
ARE_TOL = 1e-10
ARE_MAX_ITER = 100_000
# lyapunov_solve rejects a doubling sum whose residual reaches this; doubling stops after DOUBLING_STEPS rounds.
LYAPUNOV_RESIDUAL_TOL = 1e-9
DOUBLING_STEPS = 128


class NonConvergence(RuntimeError):
    """Iteration budget exhausted; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnstableA(ValueError):
    """Raised when an operation requires a Schur-stable A."""


@dataclass(frozen=True)
class AreSolution:
    """Fixed point of the discounted Riccati map with derived matrices.

    P: value-weight matrix (symmetric positive definite).
    K: feedback gain, u = -K x_hat.
    phi: sensitivity of the cost to estimation-error covariance,
         phi = A'PB beta (R + beta B'PB)^{-1} beta B'PA.
    """

    P: np.ndarray
    K: np.ndarray
    phi: np.ndarray
    iterations: int
    residual: float


def _step(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Riccati step from L: (riccati_map(L), the gain K and the sensitivity phi at L)."""
    beta, A, B = cost.beta, sys.A, sys.B
    BtL, AtL = B.T @ L, A.T @ L
    S = cost.R + beta * (BtL @ B)
    S = (S + S.T) / 2.0
    Lc = np.linalg.cholesky(S)  # raises LinAlgError unless S is positive definite
    K = np.linalg.solve(Lc.T, np.linalg.solve(Lc, beta * (BtL @ A)))
    phi = (beta * (AtL @ B)) @ K
    phi = (phi + phi.T) / 2.0
    out = cost.Q + beta * (AtL @ A) - phi
    return (out + out.T) / 2.0, K, phi


def riccati_map(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> np.ndarray:
    """One step of the discounted Riccati recursion.

    L -> Q + beta A'LA - A'LB beta (R + beta B'LB)^{-1} beta B'LA,
    symmetrized to suppress floating-point drift.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (sys.q, sys.q):
        raise ValueError(f"L has shape {L.shape}, expected ({sys.q}, {sys.q})")
    return _step(L, sys, cost)[0]


def dare_solve(sys: LinearSystem, cost: CostModel) -> AreSolution:
    """Iterate the Riccati map from L0 = Q until the sup-norm step is below ARE_TOL.

    The fixed point is unique and stabilizing when the problem passes
    model.validate. A caller that skips validate still gets a NonConvergence
    on an unstabilizable plant: the iteration stops at its first non-finite step.
    """
    L = (cost.Q + cost.Q.T) / 2.0
    diff = np.inf
    for it in range(1, ARE_MAX_ITER + 1):
        Ln = _step(L, sys, cost)[0]
        diff = float(np.max(np.abs(Ln - L)))
        L = Ln
        if diff < ARE_TOL:
            L_next, K, phi = _step(L, sys, cost)
            residual = float(np.max(np.abs(L - L_next)))
            return AreSolution(P=L, K=K, phi=phi, iterations=it, residual=residual)
        if not np.isfinite(diff):  # the iterates overflowed: (sqrt(beta) A, B) is not stabilizable
            break
    raise NonConvergence(
        f"Riccati iteration did not reach tol={ARE_TOL} in {it} steps (last step {diff:.3e})",
        residual=diff,
    )


def finite_riccati(
    P_terminal: np.ndarray, T: int, sys: LinearSystem, cost: CostModel
) -> tuple[np.ndarray, np.ndarray]:
    """Backward recursion over a T-step window with terminal weight P_terminal.

    Returns (L, phi) where L has shape (T+1, q, q) with L[0] = P_terminal and
    L[t+1] = riccati_map(L[t]), and phi has shape (T, q, q) with
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


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dlyap_adjoint(Phi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Sum of the series G + Phi'G Phi + (Phi')^2 G Phi^2 + ... by doubling.

    After k doubling rounds the partial sum covers 2^k terms, so convergence
    is geometric whenever spectral_radius(Phi) < 1. The stop is relative to
    the sum, so scaling G scales the result and nothing else; G = 0 stops at
    once.
    """
    W = (G + G.T) / 2.0
    M = Phi.copy()
    for _ in range(DOUBLING_STEPS):
        inc = M.T @ W @ M
        W = W + inc
        W = (W + W.T) / 2.0
        if float(np.max(np.abs(inc))) <= 1e-16 * float(np.max(np.abs(W))):
            break
        M = M @ M
    return W


def lyapunov_solve(sys: LinearSystem) -> np.ndarray:
    """Solve W - A'WA = C'Sigma_S C for Schur-stable A.

    Computed by doubling on the series sum_t (A')^t C'Sigma_S C A^t. Raises
    UnstableA when the spectral radius of A is not strictly inside the unit
    circle, and NonConvergence if the residual check fails.
    """
    rho = spectral_radius(sys.A)
    if rho >= 1.0 - 1e-9:
        raise UnstableA(f"spectral radius of A is {rho:.6f}; the series diverges")
    G = sys.noise_gram()
    W = dlyap_adjoint(sys.A, G)
    residual = float(np.max(np.abs(W - sys.A.T @ W @ sys.A - G)))
    if residual >= LYAPUNOV_RESIDUAL_TOL:
        raise NonConvergence(
            f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.1e}", residual=residual
        )
    return W
