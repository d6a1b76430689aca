import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from lqgsched import (
    CostModel,
    LinearSystem,
    NonConvergence,
    UnstableA,
    dare_solve,
    finite_riccati,
    lyapunov_solve,
    riccati_map,
    spectral_radius,
)

from conftest import A1, A2, B, BETA, C3, Q3, R2, SIGMA, make_problem, random_admissible


def scalar_system(a=1.0, b=1.0, q=1.0, r=1.0, beta=0.95, sig=1.0):
    sys = LinearSystem(A=[[a]], B=[[b]], C=[[1.0]], Sigma_S=[[sig]])
    cost = CostModel(Q=[[q]], R=[[r]], beta=beta, O=0.0)
    return sys, cost


def test_scalar_dare_matches_quadratic_root():
    # Closed-form positive root of the scalar fixed-point equation.
    a = b = q = r = 1.0
    beta = 0.999
    p_exact = (
        beta * a * a * r - r + beta * q * b * b
        + math.sqrt((r - beta * a * a * r - beta * q * b * b) ** 2 + 4 * beta * b * b * q * r)
    ) / (2 * beta * b * b)
    sys, cost = scalar_system(a, b, q, r, beta)
    sol = dare_solve(sys, cost)
    assert abs(sol.P[0, 0] - p_exact) < 1e-3


def test_zero_A_converges_in_one_step():
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=0.0)
    sol = dare_solve(sys, cost)
    assert sol.iterations == 1
    assert np.allclose(sol.P, Q3, atol=1e-14)


def test_unstabilizable_plant_stops_early():
    # The unstable mode 2 cannot be reached from B, so the iterates overflow;
    # the solver stops there instead of running out its iteration budget.
    sys = LinearSystem(A=np.diag([2.0, 0.5]), B=[[0.0], [1.0]], C=np.eye(2), Sigma_S=0.1 * np.eye(2))
    cost = CostModel(Q=np.eye(2), R=[[1.0]], beta=0.95, O=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergence) as info:
            dare_solve(sys, cost)
    assert not math.isfinite(info.value.residual)
    assert "in 100000 steps" not in str(info.value)


def test_riccati_map_trivial_cases():
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=0.0)
    L = np.diag([3.0, 1.0, 2.0])
    assert np.allclose(riccati_map(L, sys, cost), Q3, atol=1e-14)

    ssys, scost = scalar_system()
    assert riccati_map(np.zeros((1, 1)), ssys, scost)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_riccati_map_dimension_mismatch():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=0.0)
    with pytest.raises(ValueError):
        riccati_map(np.eye(2), sys, cost)


@pytest.mark.parametrize("A", [A1, A2])
def test_benchmark_fixed_point(A):
    p = make_problem(A, 0.0)
    sol = dare_solve(p.sys, p.cost)
    assert np.max(np.abs(riccati_map(sol.P, p.sys, p.cost) - sol.P)) < 10 * 1e-10


def test_randomized_fixed_point_and_stability():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sys, cost = random_admissible(rng, q_max=4)
        sol = dare_solve(sys, cost)
        assert np.max(np.abs(riccati_map(sol.P, sys, cost) - sol.P)) < 10 * 1e-10
        # P positive definite and phi PSD
        assert np.min(np.linalg.eigvalsh(sol.P)) > 0.0
        assert np.min(np.linalg.eigvalsh(sol.phi)) > -1e-10
        # discounted closed loop is a contraction
        closed = math.sqrt(cost.beta) * (sys.A - sys.B @ sol.K)
        assert spectral_radius(closed) < 1.0


@pytest.mark.parametrize("A", [A1, A2])
def test_discounted_closed_loop_stable_benchmarks(A):
    p = make_problem(A, 0.0)
    sol = dare_solve(p.sys, p.cost)
    assert spectral_radius(math.sqrt(BETA) * (A - B @ sol.K)) < 1.0


def test_gain_consistent_with_P():
    p = make_problem(A1, 0.0)
    sol = dare_solve(p.sys, p.cost)
    S = R2 + BETA * B.T @ sol.P @ B
    K_direct = np.linalg.solve(S, BETA * B.T @ sol.P @ A1)
    assert np.allclose(sol.K, K_direct, atol=1e-12)
    phi_direct = (BETA * A1.T @ sol.P @ B) @ np.linalg.solve(S, BETA * B.T @ sol.P @ A1)
    assert np.allclose(sol.phi, (phi_direct + phi_direct.T) / 2, atol=1e-12)


def test_agrees_with_scipy_on_discount_scaled_problem():
    # Independent route: the discount folds into sqrt(beta)-scaled matrices.
    rng = np.random.default_rng(5)
    for _ in range(5):
        sys, cost = random_admissible(rng, q_max=3)
        sol = dare_solve(sys, cost)
        sb = math.sqrt(cost.beta)
        P_ref = solve_discrete_are(sb * sys.A, sb * sys.B, cost.Q, cost.R)
        assert np.max(np.abs(sol.P - P_ref)) < 1e-7 * max(1.0, np.max(np.abs(P_ref)))


def test_monotone_iterates_from_zero_and_Q():
    p = make_problem(A1, 0.0)
    for L in (np.zeros((3, 3)), Q3.copy()):
        for _ in range(30):
            Ln = riccati_map(L, p.sys, p.cost)
            assert np.min(np.linalg.eigvalsh(Ln - L)) >= -1e-10
            L = Ln


def test_finite_riccati_constant_at_fixed_point():
    p = make_problem(A1, 0.0)
    sol = dare_solve(p.sys, p.cost)
    L, phi = finite_riccati(sol.P, 6, p.sys, p.cost)
    for t in range(7):
        assert np.max(np.abs(L[t] - sol.P)) < 1e-8
    for t in range(6):
        assert np.max(np.abs(phi[t] - sol.phi)) < 1e-8


def test_finite_riccati_single_step_from_zero():
    p = make_problem(A1, 0.0)
    L, phi = finite_riccati(np.zeros((3, 3)), 1, p.sys, p.cost)
    assert np.allclose(L[1], Q3, atol=1e-14)
    assert np.allclose(phi[0], 0.0, atol=1e-14)


def test_finite_riccati_monotone_from_Q():
    p = make_problem(A1, 0.0)
    L, _ = finite_riccati(Q3, 5, p.sys, p.cost)
    for t in range(5):
        assert np.min(np.linalg.eigvalsh(L[t + 1] - L[t])) >= -1e-10


def test_finite_riccati_rejects_empty_window():
    p = make_problem(A1, 0.0)
    with pytest.raises(ValueError):
        finite_riccati(Q3, 0, p.sys, p.cost)


def test_lyapunov_matches_truncated_series():
    sys = LinearSystem(A=A2, B=B, C=C3, Sigma_S=SIGMA)
    W = lyapunov_solve(sys)
    rho = spectral_radius(A2)
    N = int(np.ceil(np.log(1e-12) / (2 * np.log(rho)))) + 1
    G = sys.noise_gram()
    S = np.zeros((3, 3))
    M = np.eye(3)
    for _ in range(N):
        S += M.T @ G @ M
        M = M @ A2
    assert np.max(np.abs(W - S)) < 1e-6
    assert np.max(np.abs(W - A2.T @ W @ A2 - G)) < 1e-9


def test_lyapunov_zero_A_is_noise_gram():
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    assert np.allclose(lyapunov_solve(sys), sys.noise_gram(), atol=1e-14)


def test_lyapunov_rejects_unstable_A():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    with pytest.raises(UnstableA):
        lyapunov_solve(sys)


def test_spectral_radius_values():
    assert spectral_radius(A1) == pytest.approx(1.3561, abs=1e-3)
    assert spectral_radius(A2) == pytest.approx(0.9755, abs=1e-3)
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
