import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lqgsched import (
    CostModel,
    LinearSystem,
    Problem,
    SimConfig,
    Strategy,
    Violation,
    VerifyReport,
    make_packet,
    simulate,
    solve_r_fixed_point,
    validate,
    value_at,
)
from lqgsched.model import _definite, _frozen, psd_sqrt
from lqgsched.policy import _PhaseTable, _solve_prices
from lqgsched.riccati import dare_solve

from conftest import (A1, A2, B, BETA, C3, Q3, R2, SIGMA, X0, PROPERTY_SETTINGS, jordan_plant, make_problem,
                      random_admissible, random_stable_plant)


def codes(problem):
    return [v.code for v in validate(problem)]


def test_benchmark_problem_is_valid():
    assert validate(make_problem(A1, 10.0)) == []


def test_zero_R_flagged():
    sys = LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA)
    cost = CostModel(Q=Q3, R=np.zeros((2, 2)), beta=0.95, O=1.0)
    assert "R_not_pd" in codes(Problem(sys=sys, cost=cost))


def test_non_symmetric_R_flagged():
    # _definite asks for symmetry first: both eigenvalues of this R are 0.2, yet it is no weight
    R = np.array([[0.2, 0.1], [0.0, 0.2]])
    assert not _definite(R, strict=True)
    cost = CostModel(Q=Q3, R=R, beta=0.95, O=1.0)
    assert codes(Problem(sys=LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA), cost=cost)) == ["R_not_pd"]


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


def _sys1_with_Q(Q):
    return Problem(sys=LinearSystem(A=A1, B=B, C=C3, Sigma_S=SIGMA), cost=CostModel(Q=Q, R=R2, beta=0.95, O=1.0))


def test_symmetry_is_judged_relative_to_the_matrix():
    # an asymmetry of 1e-9 in a Q whose largest entry is 4.1e6 is 2.4e-16 relative: rounding, not an unsymmetric weight
    M = np.random.default_rng(0).normal(size=(3, 3))
    Q = 1e6 * (M @ M.T + np.eye(3))
    Q[0][1] += 1e-9
    assert codes(_sys1_with_Q(Q)) == []
    # an asymmetry of 1e-5 relative, on sys1's own Q of entries 0.1, is still refused
    Q = Q3.copy()
    Q[0][1] += 1e-6
    assert codes(_sys1_with_Q(Q)) == ["Q_not_psd"]


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


# Ill-posed problems and the violations validate finds in each, at every scale.
REJECTED = [
    (lambda: _plant(np.diag([2.0, 0.5]), [[0.0], [1.0]], np.eye(2)), ["not_stabilizable"]),  # an unreached real mode
    (lambda: _plant(np.array([[0.0, -1.2, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.5]]), [[0.0], [0.0], [1.0]],
                    np.eye(3)), ["not_stabilizable"]),  # an unreached complex pair
    (lambda: _plant(np.diag([2.0, 2.0 + 1e-7, 0.5]), [[0.0], [1.0], [1.0]], np.eye(3)),
     ["not_stabilizable"]),  # an unreached mode inside an eigenvalue cluster
    (lambda: _plant(np.diag([2.0, 0.5]), [[1.0], [1.0]], np.diag([0.0, 1.0])), ["not_detectable"]),  # unweighted
    (lambda: jordan_plant("not_stabilizable"), ["not_stabilizable"]),
    (lambda: jordan_plant("not_detectable"), ["not_detectable"]),
    (lambda: Problem(LinearSystem(A1, B, C3, SIGMA), CostModel(Q3, np.diag([0.2, 0.0]), BETA, 1.0)), ["R_not_pd"]),
    (lambda: Problem(LinearSystem(A1, B, C3, np.diag([0.08, 0.08, 0.0])), CostModel(Q3, R2, BETA, 1.0)),
     ["noise_gram_not_pd"]),
]


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-30, 30))
def test_validate_verdict_does_not_depend_on_units_property(seed, k):
    # Scaling (Q, R, O) or (Sigma_S, O) by c, or mapping (B, R) to (sqrt(c) B, c R), scales the solve exactly
    # (test_scaling_is_exact_property); validate must give the same violations at every c = 4^k, on a valid
    # plant and on each rejected one. Each cutoff is relative to its own matrix, and each PBH block is
    # normalised, so no verdict turns on a unit.
    c, replace = 4.0**k, dataclasses.replace
    cases = [(lambda: Problem(*random_admissible(np.random.default_rng(seed))), []), *REJECTED]
    for make, expected in cases:
        problem = make()
        sys, cost = problem.sys, problem.cost
        verdict = validate(problem)
        assert [v.code for v in verdict] == expected
        for scaled in (Problem(sys, replace(cost, Q=c * cost.Q, R=c * cost.R, O=c * cost.O)),
                       Problem(replace(sys, Sigma_S=c * sys.Sigma_S), replace(cost, O=c * cost.O)),
                       Problem(replace(sys, B=2.0**k * sys.B), replace(cost, R=c * cost.R))):
            assert validate(scaled) == verdict


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


# Every frozen record of the package, found by scanning its modules, so a new record is checked too.
RECORDS = sorted({obj for name in ("model", "riccati", "policy", "controller", "sim", "oracle")
                  for obj in vars(importlib.import_module(f"lqgsched.{name}")).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("lqgsched")},
                 key=lambda cls: cls.__qualname__)


@pytest.fixture(scope="module")
def samples(sys1_O10, ps1_O10):
    """One instance of every record, most of them from a solve and a short simulation of sys1."""
    oracle = solve_r_fixed_point(sys1_O10.sys, sys1_O10.cost, T_max=20, are=ps1_O10.are)
    span = _PhaseTable(sys1_O10.sys, sys1_O10.cost.beta, ps1_O10.are).at(3)
    found = [sys1_O10, sys1_O10.sys, sys1_O10.cost, ps1_O10, ps1_O10.are, span,
             value_at(ps1_O10, sys1_O10.x0), make_packet(sys1_O10.x0, ps1_O10), Violation("Q_not_psd", "Q is bad"),
             Strategy(3), SimConfig(), simulate(sys1_O10, ps1_O10, SimConfig(horizon=5)), oracle,
             VerifyReport([("offset_match", True, "")], oracle)]
    return {type(obj): obj for obj in found}


def test_every_record_is_sampled(samples):
    assert len(RECORDS) == 14
    assert set(samples) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_methods_are_not_generated_code(cls):
    # dataclass(frozen=True) compiles each class's methods from source text, which costs import time
    for name, attr in vars(cls).items():
        fn = getattr(attr, "__wrapped__", attr)
        if callable(fn) and hasattr(fn, "__code__"):
            assert fn.__code__.co_filename != "<string>", f"{cls.__qualname__}.{name}"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_is_frozen(samples, cls):
    obj = samples[cls]
    name = dataclasses.fields(cls)[0].name
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_keeps_its_dataclass_interface(samples, cls):
    obj = samples[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    assert dataclasses.is_dataclass(obj) and cls.__match_args__ == tuple(names)
    copy = dataclasses.replace(obj)
    assert type(copy) is cls and repr(copy) == repr(obj)
    assert list(dataclasses.asdict(obj)) == names


def _twin(cls):
    """The frozen dataclass the record replaces: same name, fields and flags, methods generated by dataclasses."""
    specs = [(f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare, hash=f.hash))
             for f in dataclasses.fields(cls)]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return lambda obj: twin(*(getattr(obj, f.name) for f in dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_repr_eq_hash_match_a_frozen_dataclass(samples, cls):
    obj, twin = samples[cls], _twin(cls)
    assert repr(obj) == repr(twin(obj))
    assert obj == obj and not obj != obj and obj != object()
    try:
        expected = hash(twin(obj))
    except TypeError:  # an array field: unhashable, as it was
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected


def test_record_repr_eq_hash_on_small_records():
    assert repr(Violation("Q_not_psd", "Q is bad")) == "Violation(code='Q_not_psd', message='Q is bad')"
    assert str(Violation("Q_not_psd", "Q is bad")) == "Q_not_psd: Q is bad"
    assert repr(Strategy(3)) == "Strategy(period=3)"
    assert repr(SimConfig()) == "SimConfig(horizon=500, seed=0, n_runs=1, strategy=Strategy(period=None))"
    assert Strategy(3) == Strategy(period=3) and Strategy(3) != Strategy(4) and Strategy(3) != 3
    assert SimConfig() == SimConfig(500, 0, 1, Strategy()) and SimConfig() != SimConfig(seed=1)
    assert hash(Strategy(3)) == hash((3,))
    assert hash(SimConfig()) == hash((500, 0, 1, Strategy(None)))
    assert {Violation("a", "b"), Violation("a", "b")} == {Violation("a", "b")}
    with pytest.raises(TypeError):
        hash(VerifyReport([], None))  # its list field is unhashable


def test_policy_solution_skips_W_inf_in_repr_and_eq(ps2_O7):
    assert ps2_O7.W_inf is not None and "W_inf" not in repr(ps2_O7)
    assert ps2_O7 == dataclasses.replace(ps2_O7, W_inf=None)


def test_record_post_init_coerces_and_validates():
    cost = CostModel([[1, 0], [0, 2]], [[3]], 1, 2)
    assert cost.Q.dtype == float and cost.R.shape == (1, 1)
    assert type(cost.beta) is float and type(cost.O) is float
    assert Problem(make_problem(A1, 1.0).sys, cost).x0.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="n_runs must be >= 1"):
        SimConfig(n_runs=0)
    with pytest.raises(ValueError, match="n_runs must be >= 1"):
        dataclasses.replace(SimConfig(), n_runs=0)
    with pytest.raises(ValueError, match="A must be a 2-D matrix"):
        LinearSystem([1.0], B, C3, SIGMA)
    with pytest.raises(ValueError, match="a query period must be >= 0"):
        Strategy(-1)


@pytest.mark.parametrize("make", [
    lambda: Violation("a"),
    lambda: Violation(message="b"),
    lambda: Violation("a", "b", "c"),
    lambda: Violation("a", code="b"),
    lambda: Violation("a", "b", level=1),
    lambda: Strategy(1, period=2),
    lambda: SimConfig(runs=3),
], ids=["missing", "missing-positional", "too-many", "duplicate", "unknown", "duplicate-default", "unknown-default"])
def test_record_rejects_bad_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_record_keeps_its_arrays_when_the_caller_writes_to_its_own():
    # validate caches the eigenvalues of A; a later write to the caller's A must not make them stale
    A, Bcol, x0 = np.diag([0.5, 0.5]), np.array([[1.0], [0.0]]), np.array([1.0, 2.0])
    sys = LinearSystem(A=A, B=Bcol, C=np.eye(2), Sigma_S=np.eye(2))
    problem = Problem(sys, CostModel(Q=np.eye(2), R=[[1.0]], beta=0.95, O=1.0), x0)
    assert validate(problem) == []
    A[1, 1], x0[0] = 1.5, 9.0
    assert sys.A[1, 1] == 0.5 and problem.x0[0] == 1.0
    assert validate(problem) == []
    assert dare_solve(sys, problem.cost).residual <= 1e-6
    # the written array is a plant that B cannot stabilize
    fresh = Problem(LinearSystem(A=A, B=Bcol, C=np.eye(2), Sigma_S=np.eye(2)), problem.cost)
    assert codes(fresh) == ["not_stabilizable"]


@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
def test_record_arrays_are_c_contiguous_and_read_only(layout):
    make = {"transposed": lambda M: M.T.copy().T, "fortran": np.asfortranarray,
            "strided": lambda M: np.repeat(M, 2, axis=-1)[..., ::2]}[layout]
    sys = LinearSystem(A=make(A1), B=make(B), C=make(C3), Sigma_S=make(SIGMA))
    cost = CostModel(Q=make(Q3), R=make(R2), beta=BETA, O=1.0)
    problem = Problem(sys, cost, make(X0))
    assert not make(A1).flags.c_contiguous
    for M, expected in ((sys.A, A1), (sys.B, B), (sys.C, C3), (sys.Sigma_S, SIGMA), (cost.Q, Q3), (cost.R, R2),
                        (problem.x0, X0)):
        assert M.flags.c_contiguous and M.flags.owndata and not M.flags.writeable
        assert M.dtype == np.float64 and np.array_equal(M, expected)
        with pytest.raises(ValueError):
            M[0] = 0.0


def test_frozen_keeps_a_frozen_array_and_copies_any_other():
    M = _frozen(Q3)
    assert M is not Q3 and Q3.flags.writeable  # the caller's array is copied, not frozen in place
    assert _frozen(M) is M
    view = M[:, :]
    assert not view.flags.writeable and _frozen(view) is not view  # a view does not own its data
    base = np.eye(3)
    ro_view = base.view()
    ro_view.setflags(write=False)
    assert _frozen(ro_view) is not ro_view  # its base is still writable
    assert _frozen(np.eye(3, dtype=np.float32)).dtype == np.float64


def test_per_price_cost_models_share_Q_and_R(sys1_O10):
    cost = sys1_O10.cost
    solutions = _solve_prices(sys1_O10.sys, cost, [1.0, 10.0, 100.0])
    assert all(ps.cost.Q is cost.Q and ps.cost.R is cost.R for ps in solutions)
    assert all(ps.sys is sys1_O10.sys for ps in solutions)
    assert dataclasses.replace(cost, O=5.0).Q is cost.Q
    assert dataclasses.replace(sys1_O10).x0 is sys1_O10.x0


def test_dare_solve_returns_read_only_matrices(ps1_O10):
    # K and minus_K: test_closed_loop_operands_are_shared_and_read_only
    for M in (ps1_O10.are.P, ps1_O10.are.phi):
        assert M.flags.c_contiguous and not M.flags.writeable


def _bad_shape(case):
    sys = {"A": A1, "B": B, "C": C3, "Sigma_S": SIGMA}
    cost = {"Q": Q3, "R": R2}
    if case == "B_cols":
        sys["B"], cost["R"] = np.hstack([B, B]), 0.2 * np.eye(4)
    elif case == "C_shape":
        sys["C"] = np.eye(3, 2)
    elif case == "Sigma_S_shape":
        sys["Sigma_S"] = 0.08 * np.eye(2)
    elif case == "Q_shape":
        cost["Q"] = 0.1 * np.eye(2)
    elif case == "R_shape":
        cost["R"] = 0.2 * np.eye(3)
    elif case == "Sigma_S_indefinite":
        sys["Sigma_S"] = np.diag([0.08, -0.08, 0.08])
    else:  # Sigma_S_asymmetric
        sys["Sigma_S"] = SIGMA + np.triu(np.full((3, 3), 0.01), 1)
    return Problem(LinearSystem(**sys), CostModel(**cost, beta=BETA, O=1.0), X0)


@pytest.mark.parametrize("case, expected", [
    ("B_cols", ["B_cols"]),
    ("C_shape", ["C_shape"]),
    ("Sigma_S_shape", ["Sigma_S_shape"]),
    ("Q_shape", ["Q_shape"]),
    ("R_shape", ["R_shape"]),
    ("Sigma_S_indefinite", ["Sigma_S_not_psd", "noise_gram_not_pd"]),
    ("Sigma_S_asymmetric", ["Sigma_S_not_psd"]),
])
def test_shape_and_noise_violations(case, expected):
    assert codes(_bad_shape(case)) == expected

