"""Problem data: plant matrices, cost weights, and their validity checks.

Everything downstream (Riccati solvers, measurement scheduling, simulation)
reads the matrices from these containers. Construction only coerces arrays
and establishes dimensions; definiteness and well-posedness are checked by
:func:`validate`, which reports violations instead of raising so that a
caller can collect all of them at once. Well-posedness is the condition for
the discounted Riccati fixed point to exist and stabilize the loop:
(sqrt(beta) A, B) stabilizable and (sqrt(beta) A, sqrt(Q)) detectable, both
decided by one Popov-Belevitch-Hautus (PBH) test at the eigenvalues of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearSystem",
    "CostModel",
    "Problem",
    "Violation",
    "validate",
    "psd_sqrt",
]

# Relative eigenvalue cutoff used by every definiteness test and, on singular values, by the PBH test.
EIG_TOL = 1e-10


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    return M


def _is_symmetric(M: np.ndarray) -> bool:
    return M.shape[0] == M.shape[1] and np.allclose(M, M.T, atol=1e-12, rtol=0.0)


def _min_eig(M: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of a symmetric matrix and the definiteness cutoff."""
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return float(w[0]), EIG_TOL * scale


def is_psd(M: np.ndarray) -> bool:
    if not _is_symmetric(M):
        return False
    lo, cut = _min_eig(M)
    return lo >= -cut


def is_pd(M: np.ndarray) -> bool:
    if not _is_symmetric(M):
        return False
    lo, cut = _min_eig(M)
    return lo > cut


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped."""
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


@dataclass(frozen=True)
class LinearSystem:
    """Plant x_{t+1} = A x_t + B u_t + C w_t with w_t ~ N(0, Sigma_S).

    A is q x q, B is q x p (p <= q), C is q x q, Sigma_S is the q x q noise
    covariance. When queried, the controller receives the exact state.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Sigma_S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "Sigma_S", _as_matrix(self.Sigma_S, "Sigma_S"))
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def noise_gram(self) -> np.ndarray:
        """C' Sigma_S C, the per-step covariance injected into the estimate error."""
        G = self.C.T @ self.Sigma_S @ self.C
        return (G + G.T) / 2.0


@dataclass(frozen=True)
class CostModel:
    """Stage cost x'Qx + u'Ru + i*O discounted by beta per step.

    O is the price paid each time the state is measured.
    """

    Q: np.ndarray
    R: np.ndarray
    beta: float
    O: float

    def __post_init__(self):
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "O", float(self.O))


@dataclass(frozen=True)
class Problem:
    """A plant, its cost model, and the known initial state."""

    sys: LinearSystem
    cost: CostModel
    x0: np.ndarray = field(default=None)

    def __post_init__(self):
        x0 = np.zeros(self.sys.q) if self.x0 is None else np.asarray(self.x0, dtype=float).ravel()
        object.__setattr__(self, "x0", x0)

    @property
    def q(self) -> int:
        return self.sys.q

    @property
    def p(self) -> int:
        return self.sys.p


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate(problem: Problem) -> list[Violation]:
    """Check every standing assumption; an empty list means the problem is valid.

    Checks are independent and run in a fixed order, so repeated calls return
    the same list. Codes are stable strings intended for machine consumption.
    """
    sys, cost = problem.sys, problem.cost
    out: list[Violation] = []
    q = sys.q

    arrays = {"A": sys.A, "B": sys.B, "C": sys.C, "Sigma_S": sys.Sigma_S, "Q": cost.Q, "R": cost.R, "x0": problem.x0}
    # Definiteness tests skip a matrix with a NaN or infinite entry: it has failed already.
    non_finite = [name for name, M in arrays.items() if not np.all(np.isfinite(M))]
    out += [Violation("non_finite", f"{name} has a NaN or infinite entry") for name in non_finite]
    if not np.isfinite(cost.O):
        out.append(Violation("non_finite", f"measurement price O={cost.O} is not finite"))

    if sys.B.shape[0] != q:
        out.append(Violation("B_rows", f"B has {sys.B.shape[0]} rows, expected {q}"))
    if sys.B.shape[1] > q:
        out.append(Violation("B_cols", f"B has {sys.B.shape[1]} columns, more than q={q}"))
    if sys.C.shape != (q, q):
        out.append(Violation("C_shape", f"C has shape {sys.C.shape}, expected ({q}, {q})"))
    if sys.Sigma_S.shape != (q, q):
        out.append(Violation("Sigma_S_shape", f"Sigma_S has shape {sys.Sigma_S.shape}, expected ({q}, {q})"))

    if sys.Sigma_S.shape == (q, q) and "Sigma_S" not in non_finite:
        if not is_psd(sys.Sigma_S):
            out.append(Violation("Sigma_S_not_psd", "Sigma_S is not symmetric positive semi-definite"))
        if sys.C.shape == (q, q) and "C" not in non_finite and not is_pd(sys.noise_gram()):
            out.append(Violation("noise_gram_not_pd", "C'Sigma_S C is not positive definite"))

    if cost.Q.shape != (q, q):
        out.append(Violation("Q_shape", f"Q has shape {cost.Q.shape}, expected ({q}, {q})"))
    elif "Q" not in non_finite and not is_psd(cost.Q):
        out.append(Violation("Q_not_psd", "Q is not symmetric positive semi-definite"))

    p = sys.p
    if cost.R.shape != (p, p):
        out.append(Violation("R_shape", f"R has shape {cost.R.shape}, expected ({p}, {p})"))
    elif "R" not in non_finite and not is_pd(cost.R):
        out.append(Violation("R_not_pd", "R is not positive definite"))

    if not (0.0 < cost.beta < 1.0):
        out.append(Violation("beta_range", f"discount beta={cost.beta} must lie in (0, 1)"))
    if cost.O < 0.0:
        out.append(Violation("O_negative", f"measurement price O={cost.O} must be >= 0"))

    if problem.x0.shape != (q,):
        out.append(Violation("x0_shape", f"x0 has shape {problem.x0.shape}, expected ({q},)"))

    # The PBH test needs finite A, B and Q of the right shapes, a PSD Q and beta in (0, 1).
    if (sys.B.shape[0] == q and cost.Q.shape == (q, q) and 0.0 < cost.beta < 1.0
            and not {"A", "B", "Q"} & set(non_finite) and "Q_not_psd" not in {v.code for v in out}):
        out += _pbh(sys.A, sys.B, cost.Q, cost.beta)

    return out


def _rank_deficient(M: np.ndarray) -> bool:
    """Smallest singular value at or below EIG_TOL times the largest (taken as at least 1)."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] <= EIG_TOL * max(1.0, s[0])


def _pbh(A: np.ndarray, B: np.ndarray, Q: np.ndarray, beta: float) -> list[Violation]:
    """PBH test of (sqrt(beta) A, B) and (sqrt(beta) A, sqrt(Q)) at each lambda of A with sqrt(beta)|lambda| >= 1.

    The pair with B is stabilizable iff [A - lambda I, B] has full row rank at
    every such lambda, and the pair with sqrt(Q) is detectable iff
    [A - lambda I; Q] has full column rank there: for PSD Q, Q and sqrt(Q)
    have the same null space.
    """
    I = np.eye(A.shape[0])
    lams = [lam for lam in np.linalg.eigvals(A) if np.sqrt(beta) * abs(lam) >= 1.0]
    out = []
    for code, stack, M, reason in (("not_stabilizable", np.hstack, B, "B does not reach it"),
                                   ("not_detectable", np.vstack, Q, "Q does not weigh it")):
        lam = next((lam for lam in lams if _rank_deficient(stack([A - lam * I, M]))), None)
        if lam is not None:
            out.append(Violation(code, f"the mode of A at eigenvalue {lam:.6g} has sqrt(beta)|lambda| >= 1 and {reason}"))
    return out
