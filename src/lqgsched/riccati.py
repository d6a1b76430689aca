"""Matrix-equation machinery: discounted Riccati iteration, gains, Lyapunov sums.

The discounted algebraic Riccati equation is solved by fixed-point value
iteration, which converges geometrically for beta < 1; no structured
eigen-solver is involved. All solves against R + beta*B'LB go through
numpy's Cholesky factorization, since that matrix is positive definite
whenever R > 0 and L >= 0; a matrix that is not raises LinAlgError. Only
numpy is needed at run time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import CostModel, LinearSystem, controllability_check, observability_check

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

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


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


def _gain_and_sensitivity(L: np.ndarray, sys: LinearSystem, cost: CostModel):
    beta, B, A = cost.beta, sys.B, sys.A
    S = cost.R + beta * (B.T @ L @ B)
    S = (S + S.T) / 2.0
    Lc = np.linalg.cholesky(S)  # raises LinAlgError unless S is positive definite
    K = np.linalg.solve(Lc.T, np.linalg.solve(Lc, beta * (B.T @ L @ A)))
    phi = (beta * (A.T @ L @ B)) @ K
    return K, (phi + phi.T) / 2.0


def riccati_map(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> np.ndarray:
    """One step of the discounted Riccati recursion.

    L -> Q + beta A'LA - A'LB beta (R + beta B'LB)^{-1} beta B'LA,
    symmetrized to suppress floating-point drift.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (sys.q, sys.q):
        raise ValueError(f"L has shape {L.shape}, expected ({sys.q}, {sys.q})")
    A, beta = sys.A, cost.beta
    _, phi = _gain_and_sensitivity(L, sys, cost)
    out = cost.Q + beta * (A.T @ L @ A) - phi
    return (out + out.T) / 2.0


def dare_solve(
    sys: LinearSystem,
    cost: CostModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> AreSolution:
    """Iterate the Riccati map from L0 = Q until the sup-norm step is below tol.

    Controllability of (A, B) and observability of (A, J) with Q = J'J are
    preconditions for uniqueness; violations warn but do not abort.
    """
    if not controllability_check(sys):
        warnings.warn("(A, B) fails the controllability rank test; proceeding anyway", stacklevel=2)
    if not observability_check(sys, cost.Q):
        warnings.warn("(A, sqrt(Q)) fails the observability rank test; proceeding anyway", stacklevel=2)

    L = (cost.Q + cost.Q.T) / 2.0
    diff = np.inf
    for it in range(1, max_iter + 1):
        Ln = riccati_map(L, sys, cost)
        diff = float(np.max(np.abs(Ln - L)))
        L = Ln
        if diff < tol:
            K, phi = _gain_and_sensitivity(L, sys, cost)
            residual = float(np.max(np.abs(L - riccati_map(L, sys, cost))))
            return AreSolution(P=L, K=K, phi=phi, iterations=it, residual=residual)
        if not np.isfinite(diff):  # the iterates overflowed: (sqrt(beta) A, B) is not stabilizable
            break
    raise NonConvergence(
        f"Riccati iteration did not reach tol={tol} in {it} steps (last step {diff:.3e})",
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
    for t in range(T):
        L[t + 1] = riccati_map(L[t], sys, cost)
    phi = np.empty((T, q, q))
    for t in range(T):
        _, phi[t] = _gain_and_sensitivity(L[T - t - 1], sys, cost)
    return L, phi


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dlyap_adjoint(Phi: np.ndarray, G: np.ndarray, steps: int = 128) -> np.ndarray:
    """Sum of the series G + Phi'G Phi + (Phi')^2 G Phi^2 + ... by doubling.

    After k doubling rounds the partial sum covers 2^k terms, so convergence
    is geometric whenever spectral_radius(Phi) < 1. The stop is relative to
    the sum, so scaling G scales the result and nothing else; G = 0 stops at
    once.
    """
    W = (G + G.T) / 2.0
    M = Phi.copy()
    for _ in range(steps):
        inc = M.T @ W @ M
        W = W + inc
        W = (W + W.T) / 2.0
        if float(np.max(np.abs(inc))) <= 1e-16 * float(np.max(np.abs(W))):
            break
        M = M @ M
    return W


def lyapunov_solve(sys: LinearSystem, residual_tol: float = 1e-9) -> np.ndarray:
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
    if residual >= residual_tol:
        raise NonConvergence(
            f"Lyapunov residual {residual:.3e} exceeds {residual_tol:.1e}", residual=residual
        )
    return W
