import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lqgsched import (
    CostModel,
    LinearSystem,
    MeasureCase,
    UnstableA,
    dare_solve,
    error_cov_seq,
    f_value,
    h_value,
    lyapunov_solve,
    never_measure_threshold,
    optimal_period,
    value_at,
)

from lqgsched.policy import _PhaseTable

from conftest import (
    A1,
    A2,
    B,
    BETA,
    C3,
    PROPERTY_SETTINGS,
    Q3,
    R2,
    SIGMA,
    X0,
    make_problem,
    random_admissible,
    random_admissible_with_finite_T,
    random_stable_plant,
)


def noise_rate(sys, P):
    return float(np.trace(sys.Sigma_S @ sys.C.T @ P @ sys.C))


def test_error_cov_seq_first_step():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    seq = error_cov_seq(sys, 1)
    assert np.allclose(seq[0], 0.0, atol=0.0)
    assert np.allclose(seq[1], sys.noise_gram(), atol=1e-15)


def test_error_cov_seq_matches_power_sum():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    seq = error_cov_seq(sys, 5)
    G = sys.noise_gram()
    for t in range(6):
        direct = sum(
            np.linalg.matrix_power(A1.T, tau) @ G @ np.linalg.matrix_power(A1, tau)
            for tau in range(t)
        ) if t else np.zeros((3, 3))
        assert np.max(np.abs(seq[t] - direct)) < 1e-10


def test_error_cov_seq_approaches_gramian_when_stable():
    sys = LinearSystem(A=A2, B=B, C=C3, Sigma_S=SIGMA)
    seq = error_cov_seq(sys, 80)
    W = lyapunov_solve(sys)
    # exact tail identity: W - P_T = (A')^T W A^T
    for T in (25, 50, 80):
        tail = np.linalg.matrix_power(A2.T, T) @ W @ np.linalg.matrix_power(A2, T)
        assert np.max(np.abs((W - seq[T]) - tail)) < 1e-10
    # geometric approach to the Gramian (max gap at T=50 computes to 0.2102)
    assert np.max(np.abs(seq[50] - W)) < 0.25
    assert np.max(np.abs(seq[80] - W)) < 0.06
    gaps = [np.max(np.abs(seq[T] - W)) for T in (25, 50, 80)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_error_cov_seq_psd_nondecreasing():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    seq = error_cov_seq(sys, 10)
    for t in range(10):
        assert np.min(np.linalg.eigvalsh(seq[t + 1] - seq[t])) >= -1e-10


def _rel(a, b, scale=None):
    scale = max(abs(a), abs(b)) if scale is None else scale
    return 0.0 if a == b else abs(a - b) / scale


def test_phase_table_matches_error_cov_seq():
    # Every table lookup against brute-force sums over the matrices P_t of
    # error_cov_seq, with g[t] = Tr((P_{t+1} - P_t) phi).
    rng = np.random.default_rng(29)
    n_stable = 0
    for _ in range(20):
        sys, cost = random_admissible(rng)
        are = dare_solve(sys, cost)
        beta, noise, r = cost.beta, noise_rate(sys, are.P), float(rng.uniform(0.0, 20.0))
        cost = CostModel(Q=cost.Q, R=cost.R, beta=beta, O=float(rng.uniform(0.0, 5.0)))
        n = 30
        seq = error_cov_seq(sys, n)
        tr = [float(np.trace(seq[t] @ are.phi)) for t in range(n + 1)]
        g = [float(np.trace((seq[t + 1] - seq[t]) @ are.phi)) for t in range(n)]
        table = _PhaseTable(sys, beta, are).grow(n)
        for T in range(1, n + 1):
            S = sum((1.0 - beta ** (t + 1)) / (1.0 - beta) * g[t] for t in range(T))
            E = sum(beta**t * tr[t] for t in range(T))
            f = E + noise * beta * (1.0 - beta**T) / (1.0 - beta) + beta**T * (r + cost.O)
            h_terms = (tr[T], beta * noise, -(1.0 - beta) * (r + cost.O))
            assert _rel(table.tr[T], tr[T]) < 1e-12
            assert _rel(table.S[T], S) < 1e-12
            assert _rel(f_value(T, r, sys, cost, are), f) < 1e-12
            h = h_value(T, r, sys, cost, are)
            assert _rel(h, sum(h_terms), scale=sum(map(abs, h_terms))) < 1e-12

        try:
            W = lyapunov_solve(sys)
        except UnstableA:
            continue
        n_stable += 1
        w_trace = float(np.trace(W @ are.phi))
        # a long sum: the tail bound beta^t Tr(W_inf phi)/(1 - beta) is cut at 1e-16 of Tr(W_inf phi)
        n_tail = next(t for t in range(100_000) if beta**t / (1.0 - beta) < 1e-16)
        seq = error_cov_seq(sys, n_tail)
        E_inf = math.fsum(beta**t * float(np.trace(seq[t] @ are.phi)) for t in range(n_tail))
        threshold = never_measure_threshold(sys, cost, are)
        assert _rel(threshold, w_trace / (1.0 - beta) - E_inf) < 1e-12
        never = optimal_period(sys, CostModel(Q=cost.Q, R=cost.R, beta=beta, O=2.0 * threshold), are=are)
        assert never.case_id is MeasureCase.NEVER_MEASURE
        assert _rel(never.r, E_inf + beta / (1.0 - beta) * noise) < 1e-12
    assert n_stable >= 5


def long_tail_sums(sys, beta, phi):
    """Brute-force S(inf) and E[inf] = sum_t beta^t Tr(P_t phi), each cut at 1e-16 relative.

    g[t] = Tr((A')^t G A^t phi) is pushed until it is 1e-22 of g[0] (A is
    stable, so what is left of S(inf) is far below 1e-16 of it); Tr(P_t phi)
    is then constant in floating point, and E's terms run until
    beta^t/(1 - beta) < 1e-16. Every term is nonnegative and fsum adds them exactly.
    """
    M, g = sys.noise_gram(), []
    while not g or g[-1] >= 1e-22 * g[0]:
        g.append(float(np.trace(M @ phi)))
        M = sys.A.T @ M @ sys.A
    t = np.arange(len(g))
    S_inf = math.fsum((1.0 - beta ** (t + 1)) / (1.0 - beta) * np.array(g))
    tr = np.concatenate([[0.0], np.cumsum(g)])  # tr[t] = Tr(P_t phi)
    t = np.arange(next(n for n in range(1, 10**6) if beta**n / (1.0 - beta) < 1e-16))
    E_inf = math.fsum(beta**t * tr[np.minimum(t, len(g))])
    return S_inf, E_inf


@pytest.mark.parametrize("plant,beta", [("sys2", 0.95), ("sys2", 0.99), ("sys2", 0.999), ("q50", 0.95)])
def test_never_measure_tail_matches_long_sums(plant, beta):
    p = make_problem(A2, 0.0) if plant == "sys2" else random_stable_plant(5)
    cost = replace(p.cost, beta=beta)
    are = dare_solve(p.sys, cost)
    S_inf, E_inf = long_tail_sums(p.sys, beta, are.phi)
    threshold = never_measure_threshold(p.sys, cost, are)
    assert _rel(threshold, S_inf) < 1e-12
    never = optimal_period(p.sys, replace(cost, O=2.0 * threshold), are=are)
    assert never.case_id is MeasureCase.NEVER_MEASURE and never.never_threshold == threshold
    assert _rel(never.r, E_inf + beta / (1.0 - beta) * noise_rate(p.sys, are.P)) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-14])
def test_never_measure_threshold_is_linear_in_noise(scale):
    # phi does not depend on Sigma_S, so the threshold scales with it; the doubling
    # sums must stop relative to their own size, also far below unit scale
    p = make_problem(A2, 0.0)
    are = dare_solve(p.sys, p.cost)
    base = never_measure_threshold(p.sys, p.cost, are)
    scaled = replace(p.sys, Sigma_S=scale * p.sys.Sigma_S)
    assert _rel(never_measure_threshold(scaled, p.cost, are) / scale, base) < 1e-12


@pytest.mark.parametrize("A,O", [(A2, 7.0), (A2, 3.0), (A1, 10.0), (A1, 300.0)], ids=["never", "sys2", "sys1", "sys1-T10"])
def test_phase_table_grows_only_to_T_star(A, O):
    # the never-measure tail is closed-form: no phase is pushed beyond the one T* reads
    p = make_problem(A, O)
    ps = optimal_period(p.sys, p.cost)
    value_at(ps, p.x0)
    phases = len(ps._table.tr) - 1
    assert phases == (0 if O == 7.0 else ps.period)


def test_f_single_step_value():
    p = make_problem(A1, 10.0)
    are = dare_solve(p.sys, p.cost)
    for r in (0.0, 5.0, 41.0):
        expected = BETA * noise_rate(p.sys, are.P) + BETA * (r + 10.0)
        assert f_value(1, r, p.sys, p.cost, are) == pytest.approx(expected, abs=1e-12)


def test_f_difference_is_discounted_h():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sys, cost = random_admissible(rng)
        are = dare_solve(sys, cost)
        r = float(rng.uniform(0.0, 20.0))
        for T in (1, 2, 5, 9):
            lhs = f_value(T + 1, r, sys, cost, are) - f_value(T, r, sys, cost, are)
            rhs = cost.beta**T * h_value(T, r, sys, cost, are)
            assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


def test_f_at_solution_reproduces_r(ps1_O10):
    ps = ps1_O10
    assert abs(f_value(ps.period, ps.r, ps.sys, ps.cost, ps.are) - ps.r) < 1e-8


def test_h_positive_in_measure_every_step_case():
    p = make_problem(A1, 0.01)
    ps = optimal_period(p.sys, p.cost)
    assert ps.case_id is MeasureCase.MEASURE_EVERY_STEP
    assert h_value(1, ps.r, p.sys, p.cost, ps.are) > 0.0


def test_h_nondecreasing_in_T(ps1_O10):
    ps = ps1_O10
    vals = [h_value(T, ps.r, ps.sys, ps.cost, ps.are) for T in range(1, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_h_constant_for_zero_A():
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=1.0)
    are = dare_solve(sys, cost)
    vals = [h_value(T, 2.0, sys, cost, are) for T in range(2, 8)]
    assert max(vals) - min(vals) < 1e-14


def test_f_h_reject_nonpositive_T(ps1_O10):
    ps = ps1_O10
    with pytest.raises(ValueError):
        f_value(0, 0.0, ps.sys, ps.cost, ps.are)
    with pytest.raises(ValueError):
        h_value(0, 0.0, ps.sys, ps.cost, ps.are)


@pytest.mark.parametrize("O,T_expected", [(10.0, 6), (50.0, 8), (300.0, 10)])
def test_benchmark_periods(O, T_expected):
    p = make_problem(A1, O)
    ps = optimal_period(p.sys, p.cost)
    assert ps.finite and ps.period == T_expected


def test_zero_price_measures_every_step():
    p = make_problem(A1, 0.0)
    ps = optimal_period(p.sys, p.cost)
    assert ps.case_id is MeasureCase.MEASURE_EVERY_STEP
    assert ps.period == 1
    assert ps.r == pytest.approx(BETA / (1 - BETA) * noise_rate(p.sys, ps.are.P), rel=1e-10)


def test_case_one_boundary():
    p = make_problem(A1, 0.0)
    are = dare_solve(p.sys, p.cost)
    edge = float(np.trace(p.sys.noise_gram() @ are.phi))
    below = optimal_period(p.sys, CostModel(Q3, R2, BETA, 0.99 * edge))
    above = optimal_period(p.sys, CostModel(Q3, R2, BETA, 1.01 * edge))
    assert below.period == 1
    assert above.period >= 2
    # a price exactly on a bracket edge S(T) takes the longer wait T + 1
    S = _PhaseTable(p.sys, BETA, are).grow(4).S
    for T, O in [(1, edge), (2, S[2]), (3, S[3]), (4, S[4])]:
        assert optimal_period(p.sys, CostModel(Q3, R2, BETA, O), are=are).period == T + 1


def test_stable_system_never_measures_above_threshold(ps2_O7):
    assert ps2_O7.case_id is MeasureCase.NEVER_MEASURE
    assert not ps2_O7.finite
    assert ps2_O7.never_threshold == pytest.approx(6.4305, abs=0.01)
    assert 7.0 >= ps2_O7.never_threshold


def test_threshold_unstable_raises():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=1.0)
    with pytest.raises(UnstableA):
        never_measure_threshold(sys, cost)


def test_threshold_zero_A_equals_single_phase_trace():
    # With A = 0 the error covariance saturates after one step, and the
    # threshold collapses to Tr(G phi).
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=0.0)
    are = dare_solve(sys, cost)
    thr = never_measure_threshold(sys, cost, are)
    assert thr == pytest.approx(float(np.trace(sys.noise_gram() @ are.phi)), abs=1e-9)


def test_unstable_A_always_finite_period():
    for O in (1e3, 1e6):
        p = make_problem(A1, O)
        ps = optimal_period(p.sys, p.cost)
        assert ps.finite


def test_optimality_of_period_on_grid():
    rng = np.random.default_rng(17)
    cases = [random_admissible_with_finite_T(rng) for _ in range(8)]
    p1 = make_problem(A1, 10.0)
    p2 = make_problem(A1, 50.0)
    cases += [
        (p1.sys, p1.cost, optimal_period(p1.sys, p1.cost)),
        (p2.sys, p2.cost, optimal_period(p2.sys, p2.cost)),
    ]
    for sys, cost, ps in cases:
        T_star = ps.period
        f_star = f_value(T_star, ps.r, sys, cost, ps.are)
        for T in range(1, 4 * T_star + 21):
            assert f_star <= f_value(T, ps.r, sys, cost, ps.are) + 1e-9


def test_bracket_at_solution():
    rng = np.random.default_rng(23)
    for _ in range(8):
        sys, cost, ps = random_admissible_with_finite_T(rng)
        hi = h_value(ps.period, ps.r, sys, cost, ps.are)
        assert hi > 0.0
        if ps.period >= 2:
            lo = h_value(ps.period - 1, ps.r, sys, cost, ps.are)
            assert lo <= 1e-12


def test_monotone_in_price():
    # waiting time and fixed-point value are nondecreasing along an O sweep
    prices = np.linspace(0.0, 400.0, 60)
    prev_T, prev_V = -1, -math.inf
    p = make_problem(A1, 0.0)
    are = dare_solve(p.sys, p.cost)
    for O in prices:
        ps = optimal_period(p.sys, CostModel(Q3, R2, BETA, float(O)), are=are)
        vals = value_at(ps, X0)
        assert ps.period >= prev_T
        assert vals.V >= prev_V - 1e-9
        prev_T, prev_V = ps.period, vals.V


def test_monotone_in_price_stable_system():
    sys = LinearSystem(A=A2, B=B, C=C3, Sigma_S=SIGMA)
    are = dare_solve(sys, CostModel(Q3, R2, BETA, 0.0))
    prev_T, prev_V = -1.0, -math.inf
    for O in np.linspace(0.01, 10.0, 40):
        ps = optimal_period(sys, CostModel(Q3, R2, BETA, float(O)), are=are)
        vals = value_at(ps, X0)
        assert ps.T_star >= prev_T
        assert vals.V >= prev_V - 1e-9
        prev_T, prev_V = ps.T_star, vals.V


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8))
def test_period_nondecreasing_in_price_property(seed, exponents):
    # prices log-spaced around the first phase's trace; a stable plant may reach never-measure (inf)
    sys, cost = random_admissible(np.random.default_rng(seed))
    are = dare_solve(sys, cost)
    base = float(np.trace(sys.noise_gram() @ are.phi))
    periods = [optimal_period(sys, replace(cost, O=base * 10.0**e), are=are).T_star for e in sorted(exponents)]
    assert periods == sorted(periods)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_at_solution_property(seed):
    # h changes sign between T* - 1 and T*, so T* minimises the cycle cost f
    sys, cost, ps = random_admissible_with_finite_T(np.random.default_rng(seed))
    assert h_value(ps.period, ps.r, sys, cost, ps.are) > 0.0
    if ps.period >= 2:
        assert h_value(ps.period - 1, ps.r, sys, cost, ps.are) <= 1e-12


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8))
def test_value_nondecreasing_in_price_property(seed, exponents):
    # prices around a finite-T* price; on a stable plant they often cross into never-measure
    rng = np.random.default_rng(seed)
    sys, cost, ps = random_admissible_with_finite_T(rng)
    x0 = rng.normal(size=sys.q)
    values = [value_at(optimal_period(sys, replace(cost, O=cost.O * 10.0**e), are=ps.are), x0).V
              for e in sorted(exponents)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12 * abs(lo)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_tends_to_threshold_for_stable_A_property(seed):
    # threshold - S(T) = sum_{t >= T} (1 - beta^{t+1})/(1 - beta) g[t] lies in [0, tail(T)],
    # tail(T) = Tr((A')^T W_inf A^T phi)/(1 - beta), which falls to 0 as T grows
    sys, cost, ps = random_admissible_with_finite_T(np.random.default_rng(seed))
    assume(ps.never_threshold is not None)
    table, beta = ps._table, cost.beta
    # S[T] is a sum of terms up to Tr(W_inf phi)/(1 - beta) in size: rounding only
    slack = 1e-12 * float(np.trace(table.W @ ps.are.phi)) / (1.0 - beta)
    T, M = 0, table.W
    while True:
        tail = float(np.trace(M @ ps.are.phi)) / (1.0 - beta)
        gap = ps.never_threshold - table.grow(T).S[T]
        assert -slack <= gap <= tail + slack, T
        if tail < slack:
            break
        T, M = T + 1, sys.A.T @ M @ sys.A


def test_value_components_relations(ps1_O10):
    vals = value_at(ps1_O10, X0)
    T = ps1_O10.period
    outlay = BETA**T * ps1_O10.O / (1 - BETA**T)
    assert vals.V == pytest.approx(vals.V_s + outlay, rel=1e-12)
    assert vals.V_reported == pytest.approx(vals.V_s_reported + outlay, rel=1e-12)
    assert vals.V_e == pytest.approx(vals.V_c + BETA * ps1_O10.O / (1 - BETA), rel=1e-12)
    xPx = float(X0 @ ps1_O10.are.P @ X0)
    assert vals.V_e_excluding_noise == pytest.approx(xPx + BETA * ps1_O10.O / (1 - BETA), rel=1e-12)
    assert vals.V == pytest.approx(xPx + ps1_O10.r, rel=1e-12)


def test_value_never_measure_case(ps2_O7):
    vals = value_at(ps2_O7, X0)
    assert vals.V == pytest.approx(vals.V_s, rel=1e-15)
    assert vals.V == pytest.approx(float(X0 @ ps2_O7.are.P @ X0) + ps2_O7.r, rel=1e-12)
    # never measuring beats the always-measure total here
    assert vals.V < vals.V_e


def test_measure_every_step_reported_equals_classic():
    p = make_problem(A1, 0.01)
    ps = optimal_period(p.sys, p.cost)
    assert ps.period == 1
    vals = value_at(ps, X0)
    assert vals.V_s_reported == pytest.approx(vals.V_c, rel=1e-12)
    assert vals.V_s == pytest.approx(vals.V_c, rel=1e-12)
