from dataclasses import replace

import numpy as np
import pytest

from lqgsched import (
    ALWAYS_MEASURE,
    NEVER_MEASURE,
    OPTIMAL,
    CostModel,
    LinearSystem,
    Problem,
    SimConfig,
    empirical_error_covariance,
    fixed_period,
    monte_carlo_value,
    optimal_period,
    simulate,
)

from conftest import A1, A2, B, BETA, C3, Q3, R2, SIGMA, X0, bracket_edge_prices, make_problem


def record_fields(rec):
    return (rec.t, rec.x, rec.x_bar, rec.err, rec.u, rec.i,
            rec.stage_cost, rec.cum_cost, rec.cum_state_control, rec.cum_measure)


def test_seed_determinism(ps1_O10, sys1_O10):
    cfg = SimConfig(horizon=120, seed=77, strategy=OPTIMAL)
    a = simulate(sys1_O10, ps1_O10, cfg)
    b = simulate(sys1_O10, ps1_O10, cfg)
    for fa, fb in zip(record_fields(a), record_fields(b)):
        assert np.array_equal(fa, fb)
    c = simulate(sys1_O10, ps1_O10, SimConfig(horizon=120, seed=78, strategy=OPTIMAL))
    assert not np.array_equal(a.x, c.x)


def test_cost_decomposition_exact(ps1_O10, sys1_O10):
    cfg = SimConfig(horizon=90, seed=5, strategy=OPTIMAL)
    rec = simulate(sys1_O10, ps1_O10, cfg)
    assert np.array_equal(rec.cum_cost, rec.cum_state_control + rec.cum_measure)
    # stage costs rebuild the running totals and the raw trajectories
    stage_ref = np.array([
        BETA**t * (rec.x[t] @ Q3 @ rec.x[t] + rec.u[t] @ R2 @ rec.u[t] + rec.i[t] * 10.0)
        for t in range(90)
    ])
    assert np.max(np.abs(stage_ref - rec.stage_cost)) < 1e-9
    assert np.max(np.abs(np.cumsum(rec.stage_cost) - rec.cum_cost)) < 1e-9
    assert np.array_equal(rec.err, rec.x - rec.x_bar)


def test_noiseless_loop_matches_deterministic_lqr():
    # Zero process noise is rejected by validate() but the simulator itself
    # accepts it: the loop collapses to the deterministic closed loop.
    ps = optimal_period(*(lambda p: (p.sys, p.cost))(make_problem(A1, 0.0)))
    quiet_sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=np.zeros((3, 3)))
    problem = Problem(sys=quiet_sys, cost=CostModel(Q3, R2, BETA, 0.0), x0=X0)
    H = 120
    cfg = SimConfig(horizon=H, seed=0, strategy=NEVER_MEASURE)
    rec = simulate(problem, ps, cfg)

    K = ps.are.K
    x = X0.copy()
    expected = 0.0
    for t in range(H):
        expected += BETA**t * float(x @ (Q3 + K.T @ R2 @ K) @ x)
        x = (A1 - B @ K) @ x
    assert rec.total_cost == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(rec.x[-1]) < 1e-8 * np.linalg.norm(X0)
    assert rec.n_measurements == 0

    mean, se = monte_carlo_value(problem, ps, SimConfig(horizon=H, seed=0, n_runs=8, strategy=NEVER_MEASURE))
    assert se == 0.0
    assert mean == pytest.approx(expected, rel=1e-9)


def test_higher_price_longer_period_larger_error():
    p50 = make_problem(A1, 50.0)
    p300 = make_problem(A1, 300.0)
    ps50 = optimal_period(p50.sys, p50.cost)
    ps300 = optimal_period(p300.sys, p300.cost)
    cfg = SimConfig(horizon=70, seed=11, strategy=OPTIMAL)
    rec50 = simulate(p50, ps50, cfg)
    rec300 = simulate(p300, ps300, cfg)
    assert list(np.flatnonzero(rec50.i)) == [8, 16, 24, 32, 40, 48, 56, 64]
    assert list(np.flatnonzero(rec300.i)) == [10, 20, 30, 40, 50, 60]
    # same seed, longer blind window: the error excursion grows
    assert np.max(np.linalg.norm(rec300.err, axis=1)) > np.max(np.linalg.norm(rec50.err, axis=1))


@pytest.mark.parametrize("A", [A1, A2], ids=["sys1", "sys2"])
def test_optimal_trajectory_queries_follow_period_on_bracket_edges(A):
    # the single trajectory (online controller) and the Monte Carlo rollout
    # (measure_times) run one schedule, also where T* flips between neighbours
    are, prices = bracket_edge_prices(A, T_max=8)
    for O in prices:
        p = make_problem(A, O)
        ps = optimal_period(p.sys, p.cost, are=are)
        H = 3 * ps.period + 1
        rec = simulate(p, ps, SimConfig(horizon=H, strategy=OPTIMAL))
        assert np.array_equal(np.flatnonzero(rec.i), OPTIMAL.measure_times(ps, H)), O


def test_batch_costs_match_single_runs(ps1_O10, sys1_O10):
    from lqgsched.sim import _batch_costs

    cfg = SimConfig(horizon=150, seed=40, n_runs=4, strategy=fixed_period(5))
    batch = _batch_costs(sys1_O10, ps1_O10, cfg)
    for r in range(4):
        rec = simulate(sys1_O10, ps1_O10, SimConfig(horizon=150, seed=40 + r, n_runs=1, strategy=fixed_period(5)))
        assert batch[r] == pytest.approx(rec.total_cost, rel=1e-9)


def random_stable_plant(seed: int, q: int = 50, p: int = 10) -> Problem:
    """A seeded Schur-stable plant (spectral radius 0.9) with unit-scale weights."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(q, q))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    J, M = rng.normal(size=(q, q)), rng.normal(size=(p, p))
    sys = LinearSystem(A=A, B=rng.normal(size=(q, p)), C=np.eye(q), Sigma_S=0.1 * np.eye(q))
    cost = CostModel(Q=J.T @ J / q + np.eye(q), R=M.T @ M / p + np.eye(p), beta=BETA, O=1.0)
    return Problem(sys=sys, cost=cost, x0=rng.normal(size=q))


def test_state_control_cost_matches_per_row_quadratic_forms():
    from lqgsched.sim import _state_control_cost

    problem = random_stable_plant(8)
    rng = np.random.default_rng(9)
    X, U = rng.normal(size=(40, problem.q)), rng.normal(size=(40, problem.p))
    Q, R = problem.cost.Q, problem.cost.R
    expected = [x @ Q @ x + u @ R @ u for x, u in zip(X, U)]
    np.testing.assert_allclose(_state_control_cost(problem.cost, X, U), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "strategy", [fixed_period(3), ALWAYS_MEASURE, NEVER_MEASURE], ids=["fixed3", "always", "never"]
)
def test_batch_costs_match_single_runs_q50(strategy):
    from lqgsched.sim import _batch_costs

    problem = random_stable_plant(4)
    ps = optimal_period(problem.sys, problem.cost)
    cfg = SimConfig(horizon=100, seed=60, n_runs=3, strategy=strategy)
    batch = _batch_costs(problem, ps, cfg)
    single = [simulate(problem, ps, replace(cfg, seed=60 + r, n_runs=1)).total_cost for r in range(3)]
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)


def test_always_measure_tracks_state(ps1_O10, sys1_O10):
    cfg = SimConfig(horizon=40, seed=2, strategy=ALWAYS_MEASURE)
    rec = simulate(sys1_O10, ps1_O10, cfg)
    assert np.all(rec.i[1:] == 1)
    assert np.max(np.abs(rec.err[1:])) == 0.0


def test_empirical_error_covariance_phases(ps1_O10, sys1_O10):
    cfg = SimConfig(horizon=10, seed=303, n_runs=20_000, strategy=OPTIMAL)
    at0 = empirical_error_covariance(sys1_O10, ps1_O10, cfg, 0)
    assert np.max(np.abs(at0)) == 0.0

    at1 = empirical_error_covariance(sys1_O10, ps1_O10, cfg, 1)
    target = C3 @ SIGMA @ C3.T
    assert np.max(np.abs(at1 - target)) < 0.01

    # phase 3: the sample covariance discriminates the propagation direction
    at3 = empirical_error_covariance(sys1_O10, ps1_O10, cfg, 3)
    G_adj = C3.T @ SIGMA @ C3
    G_fwd = C3 @ SIGMA @ C3.T
    adj = np.zeros((3, 3))
    fwd = np.zeros((3, 3))
    for _ in range(3):
        adj = A1.T @ adj @ A1 + G_adj
        fwd = A1 @ fwd @ A1.T + G_fwd
    dist_fwd = np.max(np.abs(at3 - fwd))
    dist_adj = np.max(np.abs(at3 - adj))
    assert dist_fwd < dist_adj  # the physical loop follows forward propagation
    assert dist_fwd < 0.05


def test_stabilized_tail_independent_of_start(sys1_O10, ps1_O10):
    # tail time-average of |x|^2 is a property of the loop, not of x0
    H = 240
    n = 40

    def tail_avg(x0):
        problem = Problem(sys=sys1_O10.sys, cost=sys1_O10.cost, x0=np.asarray(x0, dtype=float))
        sums = []
        for r in range(n):
            rec = simulate(problem, ps1_O10, SimConfig(horizon=H, seed=900 + r, strategy=OPTIMAL))
            sums.append(float(np.mean(np.sum(rec.x[H // 2:] ** 2, axis=1))))
        arr = np.asarray(sums)
        return arr.mean(), arr.std(ddof=1) / np.sqrt(n)

    m_a, se_a = tail_avg(X0)
    m_b, se_b = tail_avg([-5.0, 2.0, 30.0])
    assert abs(m_a - m_b) < 4.0 * np.hypot(se_a, se_b)


def test_csv_round_trip_values(sys1_O10, ps1_O10, tmp_path):
    rec = simulate(sys1_O10, ps1_O10, SimConfig(horizon=12, seed=1, strategy=OPTIMAL))
    path = tmp_path / "traj.csv"
    rec.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == (
        ["t"] + [f"x_{k}" for k in (1, 2, 3)] + [f"xbar_{k}" for k in (1, 2, 3)]
        + [f"err_{k}" for k in (1, 2, 3)] + ["u_1", "u_2", "i", "stage_cost", "cum_cost"]
    )
    assert len(lines) == 13
    row5 = lines[6].split(",")
    assert float(row5[1]) == rec.x[5, 0]  # shortest round-trip decimals are exact
    assert float(row5[-1]) == rec.cum_cost[5]


def test_empirical_error_covariance_needs_two_runs(ps1_O10, sys1_O10):
    with pytest.raises(ValueError, match="n_runs >= 2"):
        empirical_error_covariance(sys1_O10, ps1_O10, SimConfig(horizon=10, seed=1, n_runs=1), 3)


def test_rollout_totals_do_not_depend_on_chunking(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    H, n = 40, 7
    cfgs = [SimConfig(horizon=H, seed=21, n_runs=n, strategy=s) for s in (OPTIMAL, fixed_period(3), NEVER_MEASURE)]
    whole = [sim._batch_costs(sys1_O10, ps1_O10, cfg) for cfg in cfgs]
    # at most two runs' noise per chunk: chunks of 2, 2, 2 and a one-run remainder
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * H * sys1_O10.q)
    firsts = sorted({first for first, *_ in sim._rollout(sys1_O10, ps1_O10, OPTIMAL, 21, n, H)})
    assert firsts == [0, 2, 4, 6]
    for cfg, totals in zip(cfgs, whole):
        np.testing.assert_allclose(sim._batch_costs(sys1_O10, ps1_O10, cfg), totals, rtol=1e-12, atol=0.0)


def test_monte_carlo_memory_bounded(ps1_O10, sys1_O10, monkeypatch):
    import tracemalloc

    import lqgsched.sim as sim

    H = 200
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 100 * H * sys1_O10.q)

    def peak(n_runs):
        tracemalloc.start()
        try:
            monte_carlo_value(sys1_O10, ps1_O10, SimConfig(horizon=H, seed=3, n_runs=n_runs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the whole noise tensor of 2000 runs would be 9.6 MB
    assert peak(2000) - peak(200) < 1_000_000
