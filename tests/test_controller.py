import importlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lqgsched import (
    ControllerState,
    InfinitePeriod,
    MeasurementUnavailable,
    initial_state,
    make_packet,
    optimal_period,
    step_decide,
)
from lqgsched.cli import save_problem
from lqgsched.model import psd_sqrt

from conftest import (
    A1,
    A2,
    B,
    PROPERTY_SETTINGS,
    X0,
    bracket_edge_prices,
    make_problem,
    random_admissible_with_finite_T,
    random_stable_plant,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")


def drive_plant(ps, x0, H, seed=0):
    """Run the online session against a seeded plant; returns full telemetry."""
    sys = ps.sys
    rng = np.random.default_rng(seed)
    noise_sqrt = psd_sqrt(sys.Sigma_S)
    state = initial_state(ps, x0)
    x = np.asarray(x0, dtype=float).copy()
    u_prev = None
    out = []
    for t in range(H):
        i, u, state = step_decide(state, x, ps, u_prev)
        out.append((i, u, state, x.copy()))
        w = noise_sqrt @ rng.standard_normal(sys.q)
        x = sys.A @ x + sys.B @ u + sys.C @ w
        u_prev = u
    return out


def test_packet_zero_state_zero_controls(ps1_O10):
    pkt = make_packet(np.zeros(3), ps1_O10)
    assert pkt.T == 6
    assert np.all(pkt.controls == 0.0)


def test_packet_length_matches_period():
    p = make_problem(A1, 50.0)
    ps = optimal_period(p.sys, p.cost)
    pkt = make_packet(X0, ps)
    assert pkt.T == 8
    assert pkt.controls.shape == (8, 2)


def test_packet_two_computation_routes_agree(ps1_O10):
    ps = ps1_O10
    pkt = make_packet(X0, ps)
    K = ps.are.K
    closed = A1 - B @ K
    for j in range(pkt.T):
        direct = -K @ (np.linalg.matrix_power(closed, j) @ X0)
        assert np.max(np.abs(pkt.controls[j] - direct)) < 1e-10


def test_packet_requires_cap_for_never_measure(ps2_O7):
    with pytest.raises(InfinitePeriod):
        make_packet(X0, ps2_O7)
    pkt = make_packet(X0, ps2_O7, horizon=12)
    assert pkt.T == 12


@pytest.mark.parametrize("schedule, horizon", [("finite", 0), ("finite", -3), ("never", 0)])
def test_packet_rejects_horizon_below_one(ps1_O10, ps2_O7, schedule, horizon):
    ps = {"finite": ps1_O10, "never": ps2_O7}[schedule]
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        make_packet(X0, ps, horizon=horizon)


def test_first_step_is_free(ps1_O10):
    state = initial_state(ps1_O10, X0)
    i, u, state = step_decide(state, X0, ps1_O10, None)
    assert i == 0
    assert np.array_equal(u, -(ps1_O10.are.K @ X0))
    assert state.t == 1 and state.m == 0


def test_trigger_quiet_on_fresh_state(ps1_O10):
    # right after a measurement the surrogate covariance is zero, so any
    # positive price keeps the trigger off
    telemetry = drive_plant(ps1_O10, X0, 2)
    assert telemetry[1][0] == 0


def test_online_period_matches_schedule(ps1_O10):
    telemetry = drive_plant(ps1_O10, X0, 60)
    fires = [t for t, (i, _, _, _) in enumerate(telemetry) if i == 1]
    assert fires == [6, 12, 18, 24, 30, 36, 42, 48, 54]


def test_zero_price_fires_every_step():
    p = make_problem(A1, 0.0)
    ps = optimal_period(p.sys, p.cost)
    telemetry = drive_plant(ps, X0, 10)
    assert [i for i, _, _, _ in telemetry] == [0] + [1] * 9


def test_measurement_required_when_trigger_fires(ps1_O10):
    ps = ps1_O10
    state = initial_state(ps, X0)
    x = X0
    u = None
    for _ in range(6):
        _, u_out, state = step_decide(state, x, ps, u)
        u = u_out
    with pytest.raises(MeasurementUnavailable):
        step_decide(state, None, ps, u)


def test_never_measure_trigger_stays_off(ps2_O7):
    telemetry = drive_plant(ps2_O7, X0, 80)
    assert all(i == 0 for i, _, _, _ in telemetry)


def test_state_counts_steps_since_query(ps1_O10):
    assert list(ControllerState._fields) == ["m", "x_bar", "t"]
    T = ps1_O10.period
    for t, (i, _, state, _) in enumerate(drive_plant(ps1_O10, X0, 40)):
        assert state.t == t + 1
        assert state.m == t % T  # 0 after the free step 0 and after each query, at most T - 1
        assert i == (t > 0 and state.m == 0)


@pytest.mark.parametrize("A", [A1, A2], ids=["sys1", "sys2"])
def test_online_fires_at_period_on_bracket_edges(A):
    # at these prices T* flips between neighbours; the session follows the solved T*
    are, prices = bracket_edge_prices(A)
    assert len(prices) == 3 * 29
    for O in prices:
        p = make_problem(A, O)
        ps = optimal_period(p.sys, p.cost, are=are)
        H = 3 * ps.period + 1
        fires = [t for t, (i, _, _, _) in enumerate(drive_plant(ps, X0, H)) if i == 1]
        assert fires == list(range(ps.period, H, ps.period)), O
        assert fires[0] == make_packet(X0, ps).T, O


def test_estimate_is_noiseless_propagation(ps1_O10):
    ps = ps1_O10
    telemetry = drive_plant(ps, X0, 30, seed=3)
    x_hat = X0.copy()
    for t, (i, u, state, x_true) in enumerate(telemetry):
        if i == 1:
            x_hat = x_true.copy()
        elif t > 0:
            x_hat = A1 @ x_hat + B @ telemetry[t - 1][1]
        assert np.array_equal(state.x_bar, x_hat)
        assert np.array_equal(u, -(ps.are.K @ x_hat))


def packet_chain_stream(ps, x0, H, seed):
    """Replay the packet representation against an identically seeded plant."""
    sys = ps.sys
    rng = np.random.default_rng(seed)
    noise_sqrt = psd_sqrt(sys.Sigma_S)
    x = np.asarray(x0, dtype=float).copy()
    pkt = make_packet(x, ps)
    j = 0
    stream = []
    for t in range(H):
        if t > 0 and j == pkt.T:
            pkt = make_packet(x, ps)
            j = 0
            i = 1
        else:
            i = 0
        u = pkt.controls[j]
        j += 1
        stream.append((i, u.copy()))
        w = noise_sqrt @ rng.standard_normal(sys.q)
        x = sys.A @ x + sys.B @ u + sys.C @ w
    return stream


def test_online_equals_packet_chain_randomized():
    rng = np.random.default_rng(99)
    for _ in range(5):
        sys, cost, ps = random_admissible_with_finite_T(rng, T_cap=12)
        x0 = rng.normal(size=sys.q) * 3.0
        H = 5 * ps.period + 7
        online = drive_plant(ps, x0, H, seed=1234)
        chain = packet_chain_stream(ps, x0, H, seed=1234)
        for (i_a, u_a, _, _), (i_b, u_b) in zip(online, chain):
            assert i_a == i_b
            assert np.array_equal(u_a, u_b)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_online_queries_are_multiples_of_period_property(seed):
    rng = np.random.default_rng(seed)
    sys, cost, ps = random_admissible_with_finite_T(rng, T_cap=12)
    H = 4 * ps.period + 3
    telemetry = drive_plant(ps, rng.normal(size=sys.q), H, seed=seed)
    fires = [t for t, (i, _, _, _) in enumerate(telemetry) if i == 1]
    assert fires == list(range(ps.period, H, ps.period))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), x_scale=st.floats(0.0, 10.0))
def test_online_equals_packet_chain_property(seed, x_scale):
    rng = np.random.default_rng(seed)
    sys, cost, ps = random_admissible_with_finite_T(rng, T_cap=12)
    x0 = rng.normal(size=sys.q) * x_scale
    H = 3 * ps.period + 5
    online = drive_plant(ps, x0, H, seed=seed)
    chain = packet_chain_stream(ps, x0, H, seed=seed)
    for (i_a, u_a, _, _), (i_b, u_b) in zip(online, chain):
        assert i_a == i_b
        assert np.array_equal(u_a, u_b)


def test_online_equals_packet_chain_q50():
    # the shared operands at BLAS sizes: a q=50, p=10 plant, several windows
    problem = random_stable_plant(7)
    ps0 = optimal_period(problem.sys, problem.cost)
    ps = optimal_period(problem.sys, replace(problem.cost, O=0.3 * ps0.never_threshold), are=ps0.are)
    assert 2 <= ps.period <= 20
    H = 4 * ps.period + 3
    online = drive_plant(ps, problem.x0, H, seed=31)
    chain = packet_chain_stream(ps, problem.x0, H, seed=31)
    assert sum(i for i, _ in chain) == 4
    for (i_a, u_a, _, _), (i_b, u_b) in zip(online, chain):
        assert i_a == i_b
        assert np.array_equal(u_a, u_b)


def test_closed_loop_operands_are_shared_and_read_only(ps1_O10):
    sys, are = ps1_O10.sys, ps1_O10.are
    minus_K = are.minus_K
    assert are.minus_K is minus_K and sys.noise_factor is sys.noise_factor  # built once per record
    assert np.array_equal(minus_K, -are.K)
    for M in (sys.A, sys.B, sys.noise_factor, minus_K, are.K):
        assert M.flags.c_contiguous
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
    assert not are.K.flags.writeable  # the solved gain is read-only too


def _read_only(v):
    v = v.copy()
    v.setflags(write=False)
    return v


# Every way of giving a vector that step_decide converts with np.asarray(c, dtype=float).ravel().
VECTOR_FORMS = {
    "list": lambda v: v.tolist(),
    "tuple": lambda v: tuple(v.tolist()),
    "column": lambda v: v.reshape(-1, 1),
    "int": lambda v: np.round(100.0 * v).astype(int),
    "float32": lambda v: v.astype(np.float32),
    "strided": lambda v: np.repeat(v, 3)[::3],
    "read_only": _read_only,
}


def _same_step(a, b):
    (i_a, u_a, s_a), (i_b, u_b, s_b) = a, b
    return (i_a, u_a.dtype, u_a.tobytes(), s_a.m, s_a.t, s_a.x_bar.dtype, s_a.x_bar.tobytes()) == (
        i_b, u_b.dtype, u_b.tobytes(), s_b.m, s_b.t, s_b.x_bar.dtype, s_b.x_bar.tobytes())


@pytest.mark.parametrize("form", VECTOR_FORMS)
def test_other_control_forms_give_the_same_bits(ps1_O10, form):
    # a 1-D float64 array goes to B.dot as given; every other form is converted first, to the same bits
    ps = ps1_O10
    _, u0, state = step_decide(initial_state(ps, X0), X0, ps, None)
    u = np.array([0.3141592653589793, -2.718281828459045]) * u0
    given = VECTOR_FORMS[form](u)
    x_bar = state.x_bar.copy()
    step = step_decide(state, None, ps, given)
    assert _same_step(step, step_decide(state, None, ps, np.asarray(given, dtype=float).ravel()))
    assert np.array_equal(state.x_bar, x_bar)  # B u is added into the new estimate, never into the old one


@pytest.mark.parametrize("form", VECTOR_FORMS)
def test_other_measurement_forms_give_the_same_bits(ps1_O10, form):
    ps = ps1_O10
    state = ControllerState(ps.period - 1, X0.copy(), ps.period)  # the trigger fires at this step
    x = np.array([1.1, -2.3, 0.7]) * X0
    given = VECTOR_FORMS[form](x)
    step = step_decide(state, given, ps, None)
    assert step[0] == 1
    assert _same_step(step, step_decide(state, np.asarray(given, dtype=float).ravel(), ps, None))


@pytest.mark.parametrize("config, O, T_star", [("sys1.json", 10.0, 6), ("sys2.json", 7.0, None), ("q50", 0.3, 4)])
def test_benchmark_online_session_agrees_with_packets(monkeypatch, tmp_path, config, O, T_star):
    # the benchmark rejects a run whose online session disagrees with make_packet; catch that here first
    path = os.path.join(ROOT, "configs", config)
    if config == "q50":  # O is a fraction of the threshold; the in-place add and the out= products at BLAS sizes
        problem, path = random_stable_plant(7), str(tmp_path / "q50.json")
        O *= optimal_period(problem.sys, problem.cost).never_threshold
        save_problem(problem, path)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    result = importlib.import_module("online").run_session(path, O, 300, 7)
    assert (result["steps"], result["T_star"], result["mismatches"]) == (300, T_star, 0)
    assert result["windows"] == (1 + (300 - 1) // T_star if T_star else 1)
