import numpy as np
import pytest
from hypothesis import settings

from lqgsched import (
    CostModel,
    LinearSystem,
    Problem,
    dare_solve,
    never_measure_threshold,
    optimal_period,
    spectral_radius,
    validate,
)

# The two benchmark plants used throughout the suite: same input/noise
# structure, one Schur-unstable A and one Schur-stable A.
A1 = np.array([[-0.61, 0.53, 1.30],
               [-1.15, -0.03, -0.96],
               [-0.78, 0.24, -0.02]])
A2 = np.array([[-0.61, 0.53, 0.30],
               [-0.95, -0.03, -0.56],
               [-0.78, 0.24, -0.02]])
B = np.array([[0.12, -0.55],
              [0.86, 0.08],
              [1.16, -0.60]])
C3 = np.eye(3)
SIGMA = 0.08 * np.eye(3)
Q3 = 0.1 * np.eye(3)
R2 = 0.2 * np.eye(2)
BETA = 0.95
X0 = np.array([20.0, -15.0, 10.0])


# Property tests run a fixed, derandomized set of examples so the suite stays
# deterministic and quick; they write no example database.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def make_problem(A: np.ndarray, O: float) -> Problem:
    sys = LinearSystem(A=A, B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=O)
    return Problem(sys=sys, cost=cost, x0=X0)


@pytest.fixture(scope="session")
def sys1_O10():
    return make_problem(A1, 10.0)


@pytest.fixture(scope="session")
def sys2_O7():
    return make_problem(A2, 7.0)


@pytest.fixture(scope="session")
def ps1_O10(sys1_O10):
    return optimal_period(sys1_O10.sys, sys1_O10.cost)


@pytest.fixture(scope="session")
def ps2_O7(sys2_O7):
    return optimal_period(sys2_O7.sys, sys2_O7.cost)


def bracket_edge_prices(A: np.ndarray, T_max: int = 29):
    """ARE solution and bracket-edge prices of the benchmark plant with matrix A.

    For each T <= T_max whose edge S[T] lies below any never-measure
    threshold, the prices are S[T] and its two float neighbours, where T*
    switches from T to T + 1.
    """
    p = make_problem(A, 0.0)
    ps = optimal_period(p.sys, p.cost)
    S = ps._table.grow(T_max).S
    prices = []
    for T in range(1, T_max + 1):
        if ps.never_threshold is None or S[T] < ps.never_threshold:
            prices += [float(np.nextafter(S[T], -np.inf)), S[T], float(np.nextafter(S[T], np.inf))]
    return ps.are, prices


def random_stable_plant(seed: int, q: int = 50, p: int = 10) -> Problem:
    """A seeded Schur-stable plant (spectral radius 0.9) with unit-scale weights."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(q, q))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    J, M = rng.normal(size=(q, q)), rng.normal(size=(p, p))
    sys = LinearSystem(A=A, B=rng.normal(size=(q, p)), C=np.eye(q), Sigma_S=0.1 * np.eye(q))
    cost = CostModel(Q=J.T @ J / q + np.eye(q), R=M.T @ M / p + np.eye(p), beta=BETA, O=1.0)
    return Problem(sys=sys, cost=cost, x0=rng.normal(size=q))


def _controllable(sys: LinearSystem) -> bool:
    """Rank test on [B, AB, ..., A^{q-1}B]: the sampler's resampling rule, kept so the sampled systems stay fixed."""
    blocks, M = [], sys.B
    for _ in range(sys.q):
        blocks.append(M)
        M = sys.A @ M
    return int(np.linalg.matrix_rank(np.hstack(blocks))) == sys.q


def random_admissible(rng: np.random.Generator, q_max: int = 3,
                      beta_range=(0.8, 0.99)):
    """A random valid (LinearSystem, CostModel-with-O=0) pair.

    Q is built as J'J with a full-rank J, so observability holds; systems
    failing controllability or validation are resampled.
    """
    while True:
        q = int(rng.integers(1, q_max + 1))
        p = int(rng.integers(1, q + 1))
        A = rng.normal(size=(q, q)) * rng.uniform(0.3, 0.9)
        Bm = rng.normal(size=(q, p))
        C = np.eye(q) + 0.2 * rng.normal(size=(q, q))
        sig = np.diag(rng.uniform(0.02, 0.3, size=q))
        J = rng.normal(size=(q, q))
        Q = J.T @ J * 0.2 + 1e-3 * np.eye(q)
        M = rng.normal(size=(p, p))
        R = M.T @ M * 0.1 + 0.05 * np.eye(p)
        beta = float(rng.uniform(*beta_range))
        sys = LinearSystem(A=A, B=Bm, C=C, Sigma_S=sig)
        cost = CostModel(Q=Q, R=R, beta=beta, O=0.0)
        if not _controllable(sys):
            continue
        if validate(Problem(sys=sys, cost=cost)):
            continue
        return sys, cost


def random_admissible_with_finite_T(rng: np.random.Generator, q_max: int = 3,
                                    beta_range=(0.8, 0.99), T_cap: int = 60):
    """Adds a log-uniform measurement price guaranteed to give a finite,
    moderate waiting time (resampled until T* <= T_cap)."""
    while True:
        sys, cost0 = random_admissible(rng, q_max=q_max, beta_range=beta_range)
        are = dare_solve(sys, cost0)
        base = float(np.trace(sys.noise_gram() @ are.phi))
        if base <= 1e-12:
            continue
        if spectral_radius(sys.A) < 1.0 - 1e-9:
            thr = never_measure_threshold(sys, cost0, are)
            O = thr * 10.0 ** float(rng.uniform(-3.0, -0.05))
        else:
            O = base * 10.0 ** float(rng.uniform(-1.0, 3.0))
        cost = CostModel(Q=cost0.Q, R=cost0.R, beta=cost0.beta, O=float(O))
        ps = optimal_period(sys, cost, are=are)
        if ps.finite and ps.period <= T_cap:
            return sys, cost, ps
