import dataclasses
import math

import numpy as np
import pytest

from lqgsched import (
    CostModel,
    LinearSystem,
    dare_solve,
    inner_dp_check,
    never_measure_cost,
    periodic_strategy_cost,
    policy_suboptimality_probe,
    solve_r_fixed_point,
    value_at,
    verify_solution,
)

from conftest import A1, B, BETA, C3, Q3, R2, SIGMA, X0, make_problem, random_admissible_with_finite_T


def test_fixed_point_agrees_with_closed_form(sys1_O10, ps1_O10):
    rep = solve_r_fixed_point(sys1_O10.sys, sys1_O10.cost, T_max=50)
    assert rep.T_oracle == 6
    assert abs(rep.r_oracle - ps1_O10.r) < 1e-6
    assert not rep.grid_capped
    # the f-curve is minimized at the schedule period
    assert int(rep.f_curve[np.argmin(rep.f_curve[:, 1]), 0]) == 6


def test_fixed_point_zero_price():
    p = make_problem(A1, 0.0)
    rep = solve_r_fixed_point(p.sys, p.cost, T_max=30)
    are = dare_solve(p.sys, p.cost)
    expected = BETA / (1 - BETA) * float(np.trace(SIGMA @ C3.T @ are.P @ C3))
    assert rep.T_oracle == 1
    assert rep.r_oracle == pytest.approx(expected, abs=1e-6)


def test_fixed_point_never_measure_curve(sys2_O7):
    rep = solve_r_fixed_point(sys2_O7.sys, sys2_O7.cost, T_max=500)
    diffs = np.diff(rep.f_curve[:, 1])
    assert np.all(diffs < 0.0)  # no interior minimizer
    assert rep.grid_capped


def test_contraction_rate():
    p = make_problem(A1, 10.0)
    rep = solve_r_fixed_point(p.sys, p.cost, T_max=50)
    d = rep.r_deltas
    ratios = d[1:-1] / d[:-2]  # last delta may underflow the tolerance
    assert np.all(ratios <= BETA + 1e-9)


def test_inner_dp_single_step(ps1_O10, sys1_O10):
    rep = inner_dp_check(
        sys1_O10.sys, sys1_O10.cost, ps1_O10.are.P, ps1_O10.r, 1, X0, n_mc=40_000, seed=7
    )
    assert rep.gap < 3.0 * rep.mc_se


def test_inner_dp_zero_A_and_zero_state():
    sys = LinearSystem(A=np.zeros((3, 3)), B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=R2, beta=BETA, O=2.0)
    are = dare_solve(sys, cost)
    T, r = 4, 3.0
    rep = inner_dp_check(sys, cost, are.P, r, T, np.zeros(3), n_mc=20_000, seed=2)
    # A = 0 kills the gains: only the noise floor and the terminal charge remain
    from lqgsched.riccati import finite_riccati

    L, _ = finite_riccati(are.P, T, sys, cost)
    expected = sum(
        BETA**t * float(np.trace(SIGMA @ C3.T @ L[T - t] @ C3)) for t in range(1, T + 1)
    ) + BETA**T * (r + 2.0)
    assert rep.closed_form == pytest.approx(expected, rel=1e-12)
    assert rep.gap < 3.0 * rep.mc_se


def test_inner_dp_window_on_benchmark(ps1_O10, sys1_O10):
    rep = inner_dp_check(
        sys1_O10.sys, sys1_O10.cost, ps1_O10.are.P, ps1_O10.r, 6, X0, n_mc=30_000, seed=11
    )
    assert rep.gap < 3.0 * rep.mc_se
    # the adjoint-window form deviates structurally on this non-normal A
    assert rep.gap_adjoint > rep.gap


def test_inner_collapse_identity(ps1_O10, sys1_O10):
    rep = inner_dp_check(
        sys1_O10.sys, sys1_O10.cost, ps1_O10.are.P, ps1_O10.r, 6, X0, n_mc=2, seed=0
    )
    target = float(X0 @ ps1_O10.are.P @ X0) + ps1_O10.r
    assert abs(rep.closed_form_adjoint - target) < 1e-10 * max(1.0, abs(target))


def test_periodic_cost_always_measure_identity(sys1_O10, ps1_O10):
    # querying every step with the optimal gain costs V_c + beta*O/(1-beta)
    vals = value_at(ps1_O10, X0)
    J = periodic_strategy_cost(sys1_O10.sys, sys1_O10.cost, ps1_O10.are.K, 1, X0)
    assert J == pytest.approx(vals.V_c + BETA * 10.0 / (1 - BETA), rel=1e-9)


def test_periodic_cost_unstable_long_period_is_infinite(sys1_O10, ps1_O10):
    # zero gain leaves the unstable plant open loop: cost diverges
    J = periodic_strategy_cost(sys1_O10.sys, sys1_O10.cost, np.zeros((2, 3)), 3, X0)
    assert math.isinf(J)


def test_probe_no_improvement(sys1_O10):
    rep = policy_suboptimality_probe(sys1_O10.sys, sys1_O10.cost, x0=X0)
    assert rep.max_gain <= 1e-6


def test_probe_wait_perturbation_strictly_worse(sys1_O10, ps1_O10):
    rep = solve_r_fixed_point(sys1_O10.sys, sys1_O10.cost, T_max=50)
    f6 = rep.f_curve[5, 1]
    f7 = rep.f_curve[6, 1]
    assert f7 - f6 > 0.0


def test_zero_control_worse_on_stable_system(sys2_O7, ps2_O7):
    J_zero = never_measure_cost(sys2_O7.sys, sys2_O7.cost, np.zeros((2, 3)), X0)
    J_opt = never_measure_cost(sys2_O7.sys, sys2_O7.cost, ps2_O7.are.K, X0)
    assert math.isfinite(J_zero)
    assert J_zero > J_opt
    assert J_zero > value_at(ps2_O7, X0).V


def test_oracle_battery_randomized():
    rng = np.random.default_rng(321)
    for _ in range(10):
        sys, cost, ps = random_admissible_with_finite_T(rng)
        rep = solve_r_fixed_point(sys, cost, T_max=max(200, 4 * ps.period), are=ps.are)
        assert rep.T_oracle == ps.period
        assert abs(rep.r_oracle - ps.r) < 1e-6


def test_verify_passes_on_benchmarks(sys1_O10, ps1_O10, sys2_O7, ps2_O7):
    rep1 = verify_solution(sys1_O10.sys, sys1_O10.cost, ps1_O10, x_probe=X0)
    assert rep1.passed, rep1.failures()
    rep2 = verify_solution(sys2_O7.sys, sys2_O7.cost, ps2_O7, x_probe=X0)
    assert rep2.passed, rep2.failures()
    assert rep2.grid_capped_note == "grid-capped: no interior minimizer"


def test_verify_names_corrupted_fixed_point(sys1_O10, ps1_O10):
    tampered = dataclasses.replace(ps1_O10, r=ps1_O10.r + 1.0)
    rep = verify_solution(sys1_O10.sys, sys1_O10.cost, tampered, x_probe=X0)
    assert not rep.passed
    assert "fixed_point_residual" in rep.failures()
