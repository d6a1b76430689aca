"""Matrix-equation machinery: discounted Riccati doubling, gains, Lyapunov sums.

The discounted algebraic Riccati equation is solved by structure-preserving
doubling (SDA; Chu, Fan and Lin, Linear Algebra Appl. 396, 2005). Its fixed
point exists and stabilizes the loop exactly when (sqrt(beta) A, B) is
stabilizable and (sqrt(beta) A, sqrt(Q)) detectable, as model.validate checks.
Every doubling stops on one relative rule, so scaling the data by a power of 4
scales each result exactly. Solves against R + beta*B'LB use Cholesky, which
raises LinAlgError unless it is positive definite. Only numpy is needed at run time.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CostModel, LinearSystem, _frozen, record

__all__ = [
    "AreSolution",
    "NonConvergence",
    "UnstableA",
    "dare_solve",
    "spectral_radius",
    "dlyap_adjoint",
]

# A doubling stops at max|step| <= DOUBLING_STOP max|sum| or a non-finite step (_converged), else after DOUBLING_STEPS.
DOUBLING_STOP = 1e-16
DOUBLING_STEPS = 128
# Relative residuals above these are rejected; an ill-posed plant's diverging sums stop at order 1 or more.
DARE_RESIDUAL_TOL = 1e-6
LYAPUNOV_RESIDUAL_TOL = 1e-9


class NonConvergence(RuntimeError):
    """A solve that did not reach its fixed point; carries its relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnstableA(ValueError):
    """Raised when an operation requires a Schur-stable A."""


@record
class AreSolution:
    """Fixed point of the discounted Riccati map with derived matrices, each read-only.

    P: value-weight matrix (symmetric positive definite).
    K: feedback gain, u = -K x_hat.
    phi: sensitivity of the cost to estimation-error covariance,
         phi = A'PB beta (R + beta B'PB)^{-1} beta B'PA.
    minus_K: -K, set at construction (not a field): the controller and the
         rollout apply u = minus_K x_hat exactly.
    """

    P: np.ndarray
    K: np.ndarray
    phi: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        # an instance attribute with no class attribute of its name: CPython specializes its load in every step
        object.__setattr__(self, "minus_K", _frozen(-self.K))


def _step(L: np.ndarray, sys: LinearSystem, cost: CostModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the discounted Riccati recursion from L, with the gain K and the sensitivity phi at L.

    L -> Q + beta A'LA - A'LB beta (R + beta B'LB)^{-1} beta B'LA, symmetrized to suppress floating-point drift.
    """
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


def _converged(step: np.ndarray, total: np.ndarray) -> bool:
    return not float(np.max(np.abs(step))) > DOUBLING_STOP * float(np.max(np.abs(total)))


def dare_solve(sys: LinearSystem, cost: CostModel) -> AreSolution:
    """Stabilizing fixed point of the discounted Riccati map by structure-preserving doubling.

    On A = sqrt(beta) A, G = beta B R^-1 B', H = Q and W = I + G H, a round sets A <- A W^-1 A,
    G <- G + A W^-1 G A', H <- H + A' H W^-1 A, doubling the horizon that H covers. K, phi and the
    residual max|_step(P) - P| / max|P| come from one final Riccati step. An ill-posed plant
    (model.validate skipped) raises NonConvergence: its residual exceeds DARE_RESIDUAL_TOL.
    """
    A, H = math.sqrt(cost.beta) * sys.A, (cost.Q + cost.Q.T) / 2.0
    try:
        Y = np.linalg.solve(np.linalg.cholesky(cost.R), math.sqrt(cost.beta) * sys.B.T)
        G = Y.T @ Y
        for it in range(1, DOUBLING_STEPS + 1):
            W = np.eye(sys.q) + G @ H
            WiA, WiG = np.linalg.solve(W, A), np.linalg.solve(W, G)
            step = A.T @ H @ WiA
            G, H, A = G + A @ WiG @ A.T, H + step, A @ WiA
            G, H = (G + G.T) / 2.0, (H + H.T) / 2.0
            if _converged(step, H):
                break
        H_next, K, phi = _step(H, sys, cost)
        residual = float(np.max(np.abs(H_next - H)) / (np.max(np.abs(H)) or 1.0))  # max|H| = 0 only when P = 0
    except np.linalg.LinAlgError:
        residual = math.inf
    if not residual <= DARE_RESIDUAL_TOL:
        raise NonConvergence(f"Riccati doubling ended at relative residual {residual:.3e}, above "
                             f"{DARE_RESIDUAL_TOL:.0e}; does the problem pass model.validate?", residual=residual)
    return AreSolution(P=_frozen(H), K=_frozen(K), phi=_frozen(phi), iterations=it, residual=residual)


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dlyap_adjoint(Phi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Sum of the series G + Phi'G Phi + (Phi')^2 G Phi^2 + ... by doubling.

    After k doubling rounds the partial sum covers 2^k terms, so convergence
    is geometric whenever spectral_radius(Phi) < 1. The stop (_converged) is
    relative, so scaling G scales the result and nothing else; G = 0 stops.
    """
    W = (G + G.T) / 2.0
    for _ in range(DOUBLING_STEPS):
        inc = Phi.T @ W @ Phi
        W = W + inc
        W = (W + W.T) / 2.0
        if _converged(inc, W):
            break
        Phi = Phi @ Phi
    return W


def _require_schur_stable(sys: LinearSystem) -> None:
    rho = float(np.max(np.abs(sys.eigenvalues)))
    if rho >= 1.0 - 1e-9:
        raise UnstableA(f"spectral radius of A is {rho:.6f}; the series diverges")


def _check_lyapunov(sys: LinearSystem, W: np.ndarray) -> None:
    residual = float(np.max(np.abs(W - sys.A.T @ W @ sys.A - sys.noise_gram()))) / float(np.max(np.abs(W)))
    if residual >= LYAPUNOV_RESIDUAL_TOL:
        raise NonConvergence(f"relative Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.1e}",
                             residual=residual)
