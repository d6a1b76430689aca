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
    initial_state,
    monte_carlo_value,
    optimal_period,
    simulate,
    step_decide,
)
from lqgsched.model import psd_sqrt

from conftest import A1, A2, B, BETA, C3, Q3, R2, SIGMA, X0, bracket_edge_prices, make_problem, random_stable_plant


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
    # the single trajectory queries at measure_times, the multiples of the solved
    # T*, also where T* flips between neighbours
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
    sizes = [len(X) for t, X, *_ in sim._rollout(sys1_O10, ps1_O10, OPTIMAL, 21, n, H) if t == 0]
    assert sizes == [2, 2, 2, 1]
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


def test_monte_carlo_memory_does_not_grow_with_runs(ps1_O10, sys1_O10, monkeypatch):
    # Ten times the runs, the same chunk: a float kept per run would add 72 kB.
    import tracemalloc

    import lqgsched.sim as sim

    H = 2
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 500 * H * sys1_O10.q)
    shared = np.random.default_rng(0)  # the memory under test does not depend on the noise
    monkeypatch.setattr(sim, "_run_rng", lambda seed, run: shared)

    def peak(n_runs):
        tracemalloc.start()
        try:
            monte_carlo_value(sys1_O10, ps1_O10, SimConfig(horizon=H, n_runs=n_runs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(10_000) - peak(1_000)) < 8 * 2_000


def test_monte_carlo_moments_merge_chunks(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    cfg = SimConfig(horizon=30, seed=8, n_runs=9, strategy=fixed_period(4))
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 30 * sys1_O10.q)  # chunks of 2, 2, 2, 2 and 1 run
    totals = sim._batch_costs(sys1_O10, ps1_O10, cfg)
    mean, se = monte_carlo_value(sys1_O10, ps1_O10, cfg)
    assert mean == pytest.approx(totals.mean(), rel=1e-12, abs=0.0)
    assert se == pytest.approx(totals.std(ddof=1) / np.sqrt(9), rel=1e-12, abs=0.0)


def test_error_covariance_merges_chunks(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    t, n = 4, 7
    cfg = SimConfig(horizon=10, seed=5, n_runs=n, strategy=fixed_period(3))
    E = np.concatenate([X - Xbar for step, X, Xbar, _, _ in sim._rollout(sys1_O10, ps1_O10, cfg.strategy, 5, n, t + 1)
                        if step == t])
    D = E - E.mean(axis=0)
    two_pass = D.T @ D / (n - 1)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * (t + 1) * sys1_O10.q)  # chunks of 2, 2, 2 and 1 run
    streamed = empirical_error_covariance(sys1_O10, ps1_O10, cfg, t)
    np.testing.assert_allclose(streamed, two_pass, rtol=1e-12, atol=1e-12 * np.max(np.abs(two_pass)))


def test_error_covariance_memory_does_not_grow_with_runs(ps1_O10, sys1_O10, monkeypatch):
    # Ten times the runs, the same chunk: an error row kept per run (and its centred copy) would add 432 kB.
    import tracemalloc

    import lqgsched.sim as sim

    H = 2
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 500 * H * sys1_O10.q)
    shared = np.random.default_rng(0)  # the memory under test does not depend on the noise
    monkeypatch.setattr(sim, "_run_rng", lambda seed, run: shared)

    def peak(n_runs):
        tracemalloc.start()
        try:
            empirical_error_covariance(sys1_O10, ps1_O10, SimConfig(horizon=H, n_runs=n_runs), H - 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(10_000) - peak(1_000)) < 8 * 2_000


def rollout_reference(problem, ps, strategy, seed, H):
    """Run ``seed`` of a schedule one vector at a time: x, x_bar, u and i per step."""
    sys, K = problem.sys, ps.are.K
    N = sys.C @ psd_sqrt(sys.Sigma_S)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((H, problem.q))
    queries = set(strategy.measure_times(ps, H).tolist())
    x, xs, xbars, us, i = problem.x0.copy(), [], [], [], []
    for t in range(H):
        if t == 0 or t in queries:
            x_bar = x.copy()
        else:
            x_bar = sys.A @ x_bar + sys.B @ u
        u = -(K @ x_bar)
        xs.append(x), xbars.append(x_bar), us.append(u), i.append(int(t in queries))
        x = sys.A @ x + sys.B @ u + N @ z[t]
    return np.array(xs), np.array(xbars), np.array(us), np.array(i)


@pytest.mark.parametrize("plant", ["sys1", "sys2", "q50"])
def test_rollout_streams_match_per_run_reference(plant):
    # simulate reads these schedules from run 0 of the batched rollout
    problem = {"sys1": lambda: make_problem(A1, 10.0), "sys2": lambda: make_problem(A2, 3.0),
               "q50": lambda: random_stable_plant(6)}[plant]()
    ps = optimal_period(problem.sys, problem.cost)
    H = 60
    for strategy in (ALWAYS_MEASURE, NEVER_MEASURE, fixed_period(4)):
        rec = simulate(problem, ps, SimConfig(horizon=H, seed=17, strategy=strategy))
        x, x_bar, u, i = rollout_reference(problem, ps, strategy, 17, H)
        assert np.array_equal(rec.i, i), strategy
        for got, ref in ((rec.x, x), (rec.x_bar, x_bar), (rec.u, u)):
            scale = np.max(np.abs(ref), axis=0)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), strategy


@pytest.mark.parametrize("plant", ["sys1", "sys2", "q50"])
def test_optimal_trajectory_matches_online_session(plant):
    # simulate runs the optimal schedule as run 0 of the batched rollout; the deployed
    # controller, driven on the same noise, queries at the same steps with the same controls
    problem = {"sys1": lambda: make_problem(A1, 10.0), "sys2": lambda: make_problem(A2, 3.0),
               "q50": lambda: random_stable_plant(6)}[plant]()
    if plant == "q50":
        threshold = optimal_period(problem.sys, problem.cost).never_threshold
        problem = replace(problem, cost=replace(problem.cost, O=0.3 * threshold))
    ps = optimal_period(problem.sys, problem.cost)
    H, seed = 120, 23
    rec = simulate(problem, ps, SimConfig(horizon=H, seed=seed, strategy=OPTIMAL))

    sys = problem.sys
    N = sys.C @ psd_sqrt(sys.Sigma_S)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((H, problem.q))
    x, u, state = problem.x0.copy(), None, initial_state(ps, problem.x0)
    I, U = np.zeros(H, dtype=int), np.empty((H, problem.p))
    for t in range(H):
        I[t], u, state = step_decide(state, x, ps, u)
        U[t] = u
        x = sys.A @ x + sys.B @ u + N @ z[t]
    assert 3 <= I.sum() < H - 1
    assert np.array_equal(rec.i, I)
    assert np.all(np.abs(rec.u - U) <= 1e-12 * np.max(np.abs(U), axis=0))


def test_csv_text_matches_per_cell_repr():
    from lqgsched.sim import TrajectoryRecord

    rng = np.random.default_rng(12)
    H, q, p = 40, 50, 10
    x, x_bar, u = rng.normal(size=(H, q)) * 1e3, rng.normal(size=(H, q)), rng.normal(size=(H, p)) * 1e-7
    x[3, 7], x_bar[5, 0], u[9, 2] = -0.0, np.inf, -np.inf
    i = (rng.random(H) < 0.3).astype(int)
    stage = rng.random(H)
    stage[4] = -0.0
    rec = TrajectoryRecord(t=np.arange(H), x=x, x_bar=x_bar, err=x - x_bar, u=u, i=i, stage_cost=stage,
                           cum_cost=np.cumsum(stage), cum_state_control=np.cumsum(stage), cum_measure=np.zeros(H))
    lines = [",".join(["t", *(f"{n}_{k + 1}" for n, m in (("x", q), ("xbar", q), ("err", q), ("u", p))
                              for k in range(m)), "i", "stage_cost", "cum_cost"])]
    for k in range(H):
        cells = [repr(float(v)) for v in (*rec.x[k], *rec.x_bar[k], *rec.err[k], *rec.u[k])]
        lines.append(",".join([str(int(rec.t[k])), *cells, str(int(rec.i[k])),
                               repr(float(rec.stage_cost[k])), repr(float(rec.cum_cost[k]))]))
    text = rec.csv_text()
    assert text == "\n".join(lines) + "\n"
    assert ",-0.0," in text and ",inf," in text and ",-inf," in text
