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
    fixed_period,
    initial_state,
    monte_carlo_value,
    optimal_period,
    simulate,
    step_decide,
)
from lqgsched.model import psd_sqrt

from conftest import (A1, A2, B, BETA, C3, Q3, R2, SIGMA, X0, bracket_edge_prices, make_problem,
                      plant_q50_at_three_tenths, random_stable_plant)
from reference import batch_costs, empirical_error_covariance, measure_times


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
        assert np.array_equal(np.flatnonzero(rec.i), measure_times(OPTIMAL, ps, H)), O


def test_batch_costs_match_single_runs(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    monkeypatch.setattr(sim, "_GROUP_RUNS", 1)  # a stream per run: run k draws from seed + k
    cfg = SimConfig(horizon=150, seed=40, n_runs=4, strategy=fixed_period(5))
    batch = batch_costs(sys1_O10, ps1_O10, cfg)
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
    # one state and control per column, the rollout's layout
    np.testing.assert_allclose(_state_control_cost(problem.cost, X.T, U.T), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "strategy", [fixed_period(3), ALWAYS_MEASURE, NEVER_MEASURE], ids=["fixed3", "always", "never"]
)
def test_batch_costs_match_single_runs_q50(strategy, monkeypatch):
    import lqgsched.sim as sim

    monkeypatch.setattr(sim, "_GROUP_RUNS", 1)  # a stream per run: run k draws from seed + k
    problem = random_stable_plant(4)
    ps = optimal_period(problem.sys, problem.cost)
    cfg = SimConfig(horizon=100, seed=60, n_runs=3, strategy=strategy)
    batch = batch_costs(problem, ps, cfg)
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


def test_empirical_error_covariance_at_the_horizon_is_outside_it(ps1_O10, sys1_O10):
    with pytest.raises(ValueError, match="step 10 outside horizon 10"):
        empirical_error_covariance(sys1_O10, ps1_O10, SimConfig(horizon=10, seed=1, n_runs=2), 10)


def test_one_run_monte_carlo_has_no_standard_error(ps1_O10, sys1_O10):
    cfg = SimConfig(horizon=50, seed=3, n_runs=1)
    mean, se = monte_carlo_value(sys1_O10, ps1_O10, cfg)
    assert se == 0.0
    assert mean == pytest.approx(simulate(sys1_O10, ps1_O10, cfg).total_cost, rel=1e-12)


def test_rollout_totals_do_not_depend_on_chunking(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    H, n = 40, 7
    monkeypatch.setattr(sim, "_GROUP_RUNS", 2)
    cfgs = [SimConfig(horizon=H, seed=21, n_runs=n, strategy=s) for s in (OPTIMAL, fixed_period(3), NEVER_MEASURE)]
    whole = [batch_costs(sys1_O10, ps1_O10, cfg) for cfg in cfgs]
    # the least budget, one group a chunk: chunks of 2, 2, 2 and a one-run remainder
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)
    assert chunk_sizes(sys1_O10, ps1_O10, n, H) == [2, 2, 2, 1]
    for cfg, totals in zip(cfgs, whole):
        np.testing.assert_allclose(batch_costs(sys1_O10, ps1_O10, cfg), totals, rtol=1e-12, atol=0.0)


def test_monte_carlo_memory_bounded(ps1_O10, sys1_O10, monkeypatch):
    import tracemalloc

    import lqgsched.sim as sim

    H = 200
    monkeypatch.setattr(sim, "_GROUP_RUNS", 100)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)  # chunks of one group, 100 runs

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
    monkeypatch.setattr(sim, "_GROUP_RUNS", 500)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)  # chunks of one group, 500 runs
    shared = np.random.default_rng(0)  # the memory under test does not depend on the noise
    monkeypatch.setattr(sim, "_run_rng", lambda seed, group: shared)

    def peak(n_runs):
        tracemalloc.start()
        try:
            monte_carlo_value(sys1_O10, ps1_O10, SimConfig(horizon=H, n_runs=n_runs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(10_000) - peak(1_000)) < 8 * 2_000


def test_rollout_holds_no_per_step_query_mask(sys2_O7, ps2_O7):
    # Ten times the horizon on a stable plant, querying every step: a query mask and a list of query
    # times kept per step would add 9 bytes a step, 40 kB here.
    import tracemalloc

    def peak(H):
        tracemalloc.start()
        try:
            monte_carlo_value(sys2_O7, ps2_O7, SimConfig(horizon=H, seed=1, n_runs=4, strategy=ALWAYS_MEASURE))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5_000) - peak(500) < 8_000


def test_monte_carlo_moments_merge_chunks(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    cfg = SimConfig(horizon=30, seed=8, n_runs=9, strategy=fixed_period(4))
    monkeypatch.setattr(sim, "_GROUP_RUNS", 2)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)  # one group a chunk: chunks of 2, 2, 2, 2 and 1 run
    totals = batch_costs(sys1_O10, ps1_O10, cfg)
    mean, se = monte_carlo_value(sys1_O10, ps1_O10, cfg)
    assert mean == pytest.approx(totals.mean(), rel=1e-12, abs=0.0)
    assert se == pytest.approx(totals.std(ddof=1) / np.sqrt(9), rel=1e-12, abs=0.0)


def test_error_covariance_merges_chunks(ps1_O10, sys1_O10, monkeypatch):
    import lqgsched.sim as sim

    t, n = 4, 7
    cfg = SimConfig(horizon=10, seed=5, n_runs=n, strategy=fixed_period(3))
    monkeypatch.setattr(sim, "_GROUP_RUNS", 2)
    E = np.concatenate([X - Xbar for step, X, Xbar, _, _ in sim._rollout(sys1_O10, ps1_O10, cfg.strategy, 5, n, t + 1)
                        if step == t])
    D = E - E.mean(axis=0)
    two_pass = D.T @ D / (n - 1)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)  # one group a chunk: chunks of 2, 2, 2 and 1 run
    streamed = empirical_error_covariance(sys1_O10, ps1_O10, cfg, t)
    np.testing.assert_allclose(streamed, two_pass, rtol=1e-12, atol=1e-12 * np.max(np.abs(two_pass)))


def test_error_covariance_memory_does_not_grow_with_runs(ps1_O10, sys1_O10, monkeypatch):
    # Ten times the runs, the same chunk: an error row kept per run (and its centred copy) would add 432 kB.
    import tracemalloc

    import lqgsched.sim as sim

    H = 2
    monkeypatch.setattr(sim, "_GROUP_RUNS", 500)
    monkeypatch.setattr(sim, "_CHUNK_VALUES", 1)  # chunks of one group, 500 runs
    shared = np.random.default_rng(0)  # the memory under test does not depend on the noise
    monkeypatch.setattr(sim, "_run_rng", lambda seed, group: shared)

    def peak(n_runs):
        tracemalloc.start()
        try:
            empirical_error_covariance(sys1_O10, ps1_O10, SimConfig(horizon=H, n_runs=n_runs), H - 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(10_000) - peak(1_000)) < 8 * 2_000


def test_monte_carlo_holds_four_state_buffers():
    # A chunk of n runs holds its noise, four (q, n) state buffers and its controls, 5q + p values a run, and the
    # cost's Q X takes q more: the chunk budget of 6q + p. A fifth state buffer would add a whole (q, n) buffer.
    import tracemalloc

    problem = plant_q50_at_three_tenths()
    ps = optimal_period(problem.sys, problem.cost)
    q, p, n = problem.q, problem.p, 400  # one chunk of 400 runs
    tracemalloc.start()
    try:
        monte_carlo_value(problem, ps, SimConfig(seed=1, n_runs=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * (6 * q + p) + 8 * n * q // 2


def rollout_reference(problem, ps, strategy, seed, H):
    """Run ``seed`` of a schedule one vector at a time: x, x_bar, u and i per step."""
    sys, K = problem.sys, ps.are.K
    N = sys.C @ psd_sqrt(sys.Sigma_S)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((H, problem.q))
    queries = set(measure_times(strategy, ps, H).tolist())
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
    # simulate reads these schedules from a one-run rollout, on stream seed
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
    # simulate runs the optimal schedule as a one-run rollout; the deployed
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


def random_record(H, q, p, seed=12, odd_rows=(3, 5, 9, 4)):
    """A trajectory record of random values with -0.0, inf, -inf and a -0.0 stage cost at ``odd_rows``."""
    from lqgsched.sim import TrajectoryRecord

    rng = np.random.default_rng(seed)
    x, x_bar, u = rng.normal(size=(H, q)) * 1e3, rng.normal(size=(H, q)), rng.normal(size=(H, p)) * 1e-7
    x[odd_rows[0], q // 7], x_bar[odd_rows[1], 0], u[odd_rows[2], p // 5] = -0.0, np.inf, -np.inf
    i = (rng.random(H) < 0.3).astype(int)
    stage = rng.random(H)
    stage[odd_rows[3]] = -0.0
    return TrajectoryRecord(t=np.arange(H), x=x, x_bar=x_bar, err=x - x_bar, u=u, i=i, stage_cost=stage,
                            cum_cost=np.cumsum(stage), cum_state_control=np.cumsum(stage),
                            cum_measure=np.zeros(H))


def test_csv_text_matches_per_cell_repr():
    H, q, p = 40, 50, 10
    rec = random_record(H, q, p)
    lines = [",".join(["t", *(f"{n}_{k + 1}" for n, m in (("x", q), ("xbar", q), ("err", q), ("u", p))
                              for k in range(m)), "i", "stage_cost", "cum_cost"])]
    for k in range(H):
        cells = [repr(float(v)) for v in (*rec.x[k], *rec.x_bar[k], *rec.err[k], *rec.u[k])]
        lines.append(",".join([str(int(rec.t[k])), *cells, str(int(rec.i[k])),
                               repr(float(rec.stage_cost[k])), repr(float(rec.cum_cost[k]))]))
    text = rec.csv_text()
    assert text == "\n".join(lines) + "\n"
    assert ",-0.0," in text and ",inf," in text and ",-inf," in text


def test_streamed_csv_matches_csv_text_across_blocks(tmp_path):
    import io

    from lqgsched.sim import _csv_rows

    for q, p in ((5, 2), (50, 10)):
        # the odd cells sit on both sides of the first block boundary: 195 rows at q = 5, 24 at q = 50
        edge = _csv_rows(q, p)
        rec = random_record(2 * edge + 1, q, p, odd_rows=(edge - 1, edge, edge - 1, edge))
        text = rec.csv_text()
        assert text.count("\n") == 2 * edge + 2
        assert ",-0.0," in text and ",inf," in text and ",-inf," in text
        path = tmp_path / f"traj{q}.csv"
        rec.write_csv(path)
        assert path.read_bytes() == text.encode()
        stream = io.StringIO()
        rec.write_csv(stream)
        assert stream.getvalue() == text
        # a range of rows has the header only when it starts at row 0
        assert rec.csv_text(0, edge) + rec.csv_text(edge, edge + 1) + rec.csv_text(edge + 1) == text
        assert not rec.csv_text(edge, edge + 1).startswith("t,")


def test_streamed_csv_memory_does_not_grow_with_horizon(tmp_path):
    # Ten blocks of rows against two: a CSV formatted whole would add about 3.3 MB.
    import tracemalloc

    from lqgsched.sim import _csv_rows

    rows = _csv_rows(10, 2)

    def peak(H):
        rec = random_record(H, 10, 2)
        tracemalloc.start()
        try:
            rec.write_csv(tmp_path / f"traj{H}.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 * rows) - peak(2 * rows) < 100_000


def test_simulate_csv_blocks_are_sized_by_cells(tmp_path):
    # A q = 50 simulate of 400 runs peaks at 2.1 MB traced, mostly its trajectory and its chunk of runs.
    # Blocks of 256 CSV rows (42k cells at q = 50) would lift it to 4.6 MB; the cell budget makes them 24 rows.
    import contextlib
    import io
    import tracemalloc

    import numpy.random  # noqa: F401 -- imported before the trace, so its modules are not counted

    from lqgsched.cli import main, save_problem

    problem, path = random_stable_plant(6), str(tmp_path / "q50.json")
    save_problem(problem, path)
    O = 0.3 * optimal_period(problem.sys, problem.cost).never_threshold
    argv = ["simulate", "--problem", path, "--O", repr(O), "--runs", "400", "--horizon", "500",
            "--out", str(tmp_path / "traj.csv")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


STRATEGIES = {"optimal": OPTIMAL, "fixed3": fixed_period(3), "never": NEVER_MEASURE}


def chunk_sizes(problem, ps, n_runs, H):
    """The runs of each chunk of the rollout, in order."""
    import lqgsched.sim as sim

    return [len(X) for t, X, *_ in sim._rollout(problem, ps, OPTIMAL, 0, n_runs, H) if t == 0]


@pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=STRATEGIES.keys())
def test_costs_do_not_depend_on_chunk_budget(ps1_O10, sys1_O10, monkeypatch, strategy):
    # 2100 runs are two full groups and one of 52 runs; a chunk holds whole groups
    import lqgsched.sim as sim

    cfg = SimConfig(horizon=30, seed=17, n_runs=2100, strategy=strategy)
    assert chunk_sizes(sys1_O10, ps1_O10, cfg.n_runs, 2) == [2100]
    whole = batch_costs(sys1_O10, ps1_O10, cfg)
    for budget, sizes in ((1, [1024, 1024, 52]), (2 * 1024 * (6 * 3 + 2), [2048, 52])):
        monkeypatch.setattr(sim, "_CHUNK_VALUES", budget)
        assert chunk_sizes(sys1_O10, ps1_O10, cfg.n_runs, 2) == sizes
        np.testing.assert_allclose(batch_costs(sys1_O10, ps1_O10, cfg), whole, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("group", [2, 3], ids=["group2", "group3"])
@pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=STRATEGIES.keys())
def test_group_of_a_job_equals_a_job_on_its_seed(ps1_O10, sys1_O10, monkeypatch, strategy, group):
    # group g of a job draws stream seed + g, as group 0 of a job of its size on seed + g does
    import lqgsched.sim as sim

    monkeypatch.setattr(sim, "_GROUP_RUNS", group)
    cfg = SimConfig(horizon=40, seed=31, n_runs=8, strategy=strategy)
    batch = batch_costs(sys1_O10, ps1_O10, cfg)
    for g, first in enumerate(range(0, 8, group)):
        runs = min(group, 8 - first)
        alone = batch_costs(sys1_O10, ps1_O10, replace(cfg, seed=31 + g, n_runs=runs))
        np.testing.assert_allclose(batch[first:first + runs], alone, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=STRATEGIES.keys())
def test_full_group_costs_do_not_depend_on_runs(ps1_O10, sys1_O10, monkeypatch, strategy):
    import lqgsched.sim as sim

    monkeypatch.setattr(sim, "_GROUP_RUNS", 4)
    cfg = SimConfig(horizon=40, seed=9, n_runs=8, strategy=strategy)
    eight = batch_costs(sys1_O10, ps1_O10, cfg)
    for n_runs in (4, 9, 13):
        more = batch_costs(sys1_O10, ps1_O10, replace(cfg, n_runs=n_runs))
        full = min(n_runs, 8)  # the runs of groups 0 and 1 that are full in both jobs
        np.testing.assert_allclose(more[:full], eight[:full], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("group", [3, 7], ids=["block3", "block7"])
def test_noise_blocks_give_the_same_error_covariance(ps1_O10, sys1_O10, monkeypatch, group):
    # a block of runs that share one stream: a job of 8 runs in groups of 3 (3, 3, 2) or
    # of 7 (7, 1) samples the errors of the jobs of those sizes on seeds 13, 14, ...
    import lqgsched.sim as sim

    monkeypatch.setattr(sim, "_GROUP_RUNS", group)
    cfg = SimConfig(horizon=40, seed=13, n_runs=8, strategy=fixed_period(9))
    t = 34
    E = np.concatenate([X - Xbar for g, first in enumerate(range(0, cfg.n_runs, group))
                        for step, X, Xbar, _, _ in sim._rollout(sys1_O10, ps1_O10, cfg.strategy, cfg.seed + g,
                                                                min(group, cfg.n_runs - first), t + 1)
                        if step == t])
    assert len(E) == cfg.n_runs
    D = E - E.mean(axis=0)
    pooled = empirical_error_covariance(sys1_O10, ps1_O10, cfg, t)
    np.testing.assert_allclose(pooled, D.T @ D / (cfg.n_runs - 1), rtol=1e-12, atol=1e-12 * np.max(np.abs(pooled)))
    assert np.max(np.abs(pooled)) > 0.0


def test_monte_carlo_holds_no_noise_block(ps1_O10, sys1_O10):
    # 1000 runs of 500 steps: a block of 174 steps of their noise was 4.2 MB; a step of it is 24 kB
    import tracemalloc

    tracemalloc.start()
    try:
        monte_carlo_value(sys1_O10, ps1_O10, SimConfig(horizon=500, seed=4, n_runs=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_monte_carlo_memory_does_not_grow_with_horizon():
    # Ten times the steps, the same runs: noise held for the whole horizon would add
    # 1800 steps x 50 values x 4 runs, 2.9 MB.
    import tracemalloc

    problem = random_stable_plant(6)
    ps = optimal_period(problem.sys, problem.cost)

    def peak(H):
        tracemalloc.start()
        try:
            monte_carlo_value(problem, ps, SimConfig(horizon=H, seed=2, n_runs=4, strategy=fixed_period(3)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # the policy's cached closed-loop operands are built here, outside the comparison
    assert peak(2000) - peak(200) < 100_000
