import numpy as np
import pytest

from lqgsched import (
    CostModel,
    LinearSystem,
    Problem,
    validate,
)
from lqgsched.model import psd_sqrt

from conftest import A1, A2, B, BETA, C3, Q3, R2, SIGMA, make_problem, random_stable_plant


def codes(problem):
    return [v.code for v in validate(problem)]


def test_benchmark_problem_is_valid():
    assert validate(make_problem(A1, 10.0)) == []


def test_zero_R_flagged():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=np.zeros((2, 2)), beta=0.95, O=1.0)
    assert "R_not_pd" in codes(Problem(sys=sys, cost=cost))


def test_zero_noise_flagged():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=np.zeros((3, 3)))
    cost = CostModel(Q=Q3, R=R2, beta=0.95, O=1.0)
    assert "noise_gram_not_pd" in codes(Problem(sys=sys, cost=cost))


def test_scalar_and_range_violations():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    bad = CostModel(Q=Q3, R=R2, beta=1.5, O=-2.0)
    got = codes(Problem(sys=sys, cost=bad))
    assert "beta_range" in got and "O_negative" in got


def test_indefinite_Q_flagged():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    Qbad = np.diag([1.0, -1.0, 1.0])
    cost = CostModel(Q=Qbad, R=R2, beta=0.95, O=1.0)
    assert "Q_not_psd" in codes(Problem(sys=sys, cost=cost))


def test_dimension_violations_reported_not_raised():
    sys = LinearSystem(A=A1, B=np.ones((2, 1)), C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=np.eye(1), beta=0.95, O=0.0)
    got = codes(Problem(sys=sys, cost=cost, x0=[1.0, 2.0]))
    assert "B_rows" in got and "x0_shape" in got


def test_validate_idempotent():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=np.zeros((3, 3)))
    cost = CostModel(Q=Q3, R=np.zeros((2, 2)), beta=1.2, O=-1.0)
    p = Problem(sys=sys, cost=cost)
    assert codes(p) == codes(p)


def test_psd_sqrt_reconstructs_Q():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        J = rng.normal(size=(q, q))
        # mix of full-rank and rank-deficient PSD matrices
        if rng.random() < 0.3:
            J[0] = 0.0
        Q = J.T @ J
        S = psd_sqrt(Q)
        assert np.max(np.abs(Q - S.T @ S)) < 1e-10


@pytest.mark.parametrize("problem", [
    make_problem(A1, 10.0),
    make_problem(A2, 10.0),
    random_stable_plant(5),
    make_problem(np.zeros((3, 3)), 1.0),  # stable, so stabilizable and detectable whatever B and Q
    Problem(sys=LinearSystem(A=np.eye(3), B=np.zeros((3, 2)), C=C3, Sigma_S=SIGMA),  # sqrt(beta)|lambda| < 1
            cost=CostModel(Q=Q3, R=R2, beta=BETA, O=1.0)),
    Problem(sys=LinearSystem(A=np.diag([0.5, 0.6, 0.7]), B=B, C=C3, Sigma_S=SIGMA),  # Q skips only stable modes
            cost=CostModel(Q=np.diag([1.0, 0.0, 0.0]), R=R2, beta=BETA, O=1.0)),
], ids=["sys1", "sys2", "q50", "A=0", "A=I,B=0", "unweighted stable modes"])
def test_well_posed_plants_pass_pbh(problem):
    assert validate(problem) == []


def _plant(A, Bm, Q):
    sys = LinearSystem(A=A, B=Bm, C=np.eye(len(A)), Sigma_S=0.1 * np.eye(len(A)))
    return Problem(sys=sys, cost=CostModel(Q=Q, R=[[1.0]], beta=0.95, O=1.0))


@pytest.mark.parametrize("A,Bm", [
    (np.diag([2.0, 0.5]), [[0.0], [1.0]]),  # B misses the unstable real mode
    (np.array([[0.0, -1.2, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.5]]), [[0.0], [0.0], [1.0]]),  # a complex pair
], ids=["real", "complex"])
def test_unstabilizable_plant_flagged(A, Bm):
    got = validate(_plant(A, Bm, np.eye(len(A))))
    assert [v.code for v in got] == ["not_stabilizable"]


@pytest.mark.parametrize("gap", [1e-5, 1e-7])
def test_unreached_mode_next_to_a_reached_one_flagged(gap):
    # two distinct eigenvalues inside one PBH cluster: the test at the eigenvalue itself still sees B miss it
    got = validate(_plant(np.diag([2.0, 2.0 + gap, 0.5]), [[0.0], [1.0], [1.0]], np.eye(3)))
    assert [v.code for v in got] == ["not_stabilizable"]


def test_undetectable_plant_flagged():
    # Q does not weigh the unstable mode, so its cost can grow unseen
    got = validate(_plant(np.diag([2.0, 0.5]), [[1.0], [1.0]], np.diag([0.0, 1.0])))
    assert [v.code for v in got] == ["not_detectable"]


def test_nonsquare_A_rejected():
    with pytest.raises(ValueError):
        LinearSystem(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.eye(2), Sigma_S=np.eye(2))


def test_non_finite_entries_flagged():
    A = A1.copy()
    A[0, 1] = np.nan
    sigma = SIGMA.copy()
    sigma[2, 2] = np.inf
    sys = LinearSystem(A=A, B=B, C=C3, Sigma_S=sigma)
    got = validate(Problem(sys=sys, cost=CostModel(Q=Q3, R=R2, beta=0.95, O=np.nan)))
    assert [v.code for v in got] == ["non_finite"] * 3
    assert [v.message.split()[0] for v in got] == ["A", "Sigma_S", "measurement"]
    # an infinite Sigma_S is reported once, not again by its definiteness tests
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=sigma)
    assert codes(Problem(sys=sys, cost=CostModel(Q=Q3, R=R2, beta=0.95, O=1.0))) == ["non_finite"]
