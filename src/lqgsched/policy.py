"""Optimal measurement scheduling for the discounted LQG loop with paid queries.

Every scheduling quantity is a prefix sum over one price-independent phase
sequence g[t] = Tr((A')^t G A^t phi), G = C' Sigma_S C, held with its prefix
sums in one table per (sys, beta, are):

    tr[T] = sum_{t<T} g[t] = Tr(P_T phi),
    S[T]  = sum_{t<T} (1 - beta^{t+1})/(1 - beta) g[t],
    E[T]  = sum_{t<T} beta^t tr[t].

The optimal waiting time T* is the first T with S(T) > O; the table grows
only to T*. For Schur-stable A, S(inf) is the never-measure threshold: any O
at or above it makes waiting forever optimal. Writing (1 - beta^{t+1})/(1 -
beta) as sum_{k<=t} beta^k and swapping the sums gives it in closed form,
S(inf) = Tr(X phi) with X = sum_k beta^k (A')^k W_inf A^k, a sum of positive
terms; then E[inf] = Tr(W_inf phi)/(1 - beta) - S(inf). The value offset r
solves r = min_T f(T, r) and is read off the table per case (the oracle
module iterates it by brute force). A sweep shares one Riccati solve and table.

Covariance convention: P_t follows the adjoint recursion P_{t+1} = A' P_t A + G
(error_cov_seq builds these matrices; the tests check the table against it).
A physical simulation propagates forward (A Cov A' + C Sigma_S C'), which
differs on non-normal A; the simulator and oracle modules quantify that gap.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .model import CostModel, LinearSystem, psd_sqrt
from .riccati import AreSolution, UnstableA, dare_solve, dlyap_adjoint, lyapunov_solve

__all__ = [
    "MeasureCase",
    "PolicySolution",
    "ValueSummary",
    "NonFiniteSearch",
    "error_cov_seq",
    "f_value",
    "h_value",
    "optimal_period",
    "never_measure_threshold",
    "value_at",
]

# Waiting times beyond this are treated as a search failure, not a policy.
T_SEARCH_CAP = 10_000


class MeasureCase(Enum):
    MEASURE_EVERY_STEP = "measure_every_step"
    FINITE_PERIOD = "finite_period"
    NEVER_MEASURE = "never_measure"


class _PhaseTable:
    """Prefix sums tr, S and E of the phase sequence of one (sys, beta, are).

    Index T of each list sums the first T phases, so every list starts at 0.0.
    The lists grow on demand; W_inf and the threshold are solved once, on first use.
    """

    def __init__(self, sys: LinearSystem, beta: float, are: AreSolution):
        self.sys, self.beta, self.are = sys, beta, are
        self.noise = float(np.trace(sys.Sigma_S @ sys.C.T @ are.P @ sys.C))  # Tr(Sigma_S C'PC)
        self.tr, self.S, self.E = [0.0], [0.0], [0.0]
        self._M = sys.noise_gram()  # (A')^n G A^n for the next phase n

    def _push(self) -> None:
        t, beta = len(self.tr) - 1, self.beta
        g = float(np.trace(self._M @ self.are.phi))
        self._M = self.sys.A.T @ self._M @ self.sys.A
        self.E.append(self.E[-1] + beta**t * self.tr[-1])
        self.S.append(self.S[-1] + (1.0 - beta ** (t + 1)) / (1.0 - beta) * g)
        self.tr.append(self.tr[-1] + g)

    def grow(self, n: int) -> _PhaseTable:
        """Hold at least n phases."""
        while len(self.tr) <= n:
            self._push()
        return self

    def period(self, O: float) -> int | None:
        """First T <= T_SEARCH_CAP with S[T] > O, or None if there is none."""
        while len(self.S) <= T_SEARCH_CAP and self.S[-1] <= O:
            self._push()
        hi = min(len(self.S), T_SEARCH_CAP + 1)
        T = bisect.bisect_right(self.S, O, 1, hi)
        return T if T < hi else None

    @cached_property
    def W(self) -> np.ndarray:
        """sum_t (A')^t G A^t; raises UnstableA unless A is Schur-stable."""
        return lyapunov_solve(self.sys)

    @cached_property
    def threshold(self) -> float:
        """S(inf) = Tr(X phi), X = dlyap_adjoint(sqrt(beta) A, W_inf); raises UnstableA unless A is Schur-stable."""
        return float(np.trace(dlyap_adjoint(math.sqrt(self.beta) * self.sys.A, self.W) @ self.are.phi))

    @property
    def E_inf(self) -> float:
        """E[inf] = sum_t beta^t Tr(P_t phi); needs the threshold, so a stable A."""
        return float(np.trace(self.W @ self.are.phi)) / (1.0 - self.beta) - self.threshold


@dataclass(frozen=True)
class PolicySolution:
    """Solved schedule: waiting time T_star, value offset r, and inputs.

    T_star is an integer for finite schedules and math.inf when measuring is
    never worth the price (possible only for Schur-stable A).
    """

    sys: LinearSystem
    cost: CostModel
    are: AreSolution
    T_star: float
    r: float
    O: float
    case_id: MeasureCase
    never_threshold: float | None = None
    _table: _PhaseTable | None = field(default=None, repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.T_star)

    @property
    def period(self) -> int:
        if not self.finite:
            raise ValueError("schedule never measures; no finite period exists")
        return int(self.T_star)

    @cached_property
    def _loop(self) -> _ClosedLoop:
        """The closed-loop operands of this policy, built on first use and shared by every caller."""
        return _closed_loop(self.sys, self)


def _frozen(M: np.ndarray) -> np.ndarray:
    """A C-contiguous, read-only copy of M."""
    M = np.array(M, dtype=float, order="C")
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class _ClosedLoop:
    """What the controller and the simulator multiply by: C-contiguous, read-only copies.

    The online step and the packet propagate x_hat <- A x_hat + B u and apply
    u = minus_K x_hat. The batch rollout keeps one run per column and makes
    the same products on its matrix of runs, adding the noise N z with
    N = C Sigma_S^{1/2}; on a single run they are the very BLAS calls of the
    online step. period is T*, or 0 for a schedule that never measures.
    """

    A: np.ndarray
    B: np.ndarray
    minus_K: np.ndarray
    N: np.ndarray
    period: int


def _closed_loop(sys: LinearSystem, ps: PolicySolution) -> _ClosedLoop:
    """The plant ``sys`` closed by the gain and schedule of ``ps``."""
    return _ClosedLoop(
        A=_frozen(sys.A), B=_frozen(sys.B), minus_K=_frozen(-ps.are.K),
        N=_frozen(sys.C @ psd_sqrt(sys.Sigma_S)), period=ps.period if ps.finite else 0,
    )


def error_cov_seq(sys: LinearSystem, T: int) -> np.ndarray:
    """Unmeasured-error covariances cov[t], t = 0..T, under the adjoint recursion, shape (T+1, q, q).

    cov[0] = 0 and cov[t+1] = A' cov[t] A + C'Sigma_S C, which telescopes to
    sum_{tau=0}^{t-1} (A')^tau C'Sigma_S C A^tau.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    q = sys.q
    G = sys.noise_gram()
    cov = np.zeros((T + 1, q, q))
    for t in range(T):
        nxt = sys.A.T @ cov[t] @ sys.A + G
        cov[t + 1] = (nxt + nxt.T) / 2.0
    return cov


class NonFiniteSearch(RuntimeError):
    """Bracket search exhausted its cap without locating a finite waiting time."""


def _table_for(T: int, sys: LinearSystem, cost: CostModel, are: AreSolution) -> _PhaseTable:
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return _PhaseTable(sys, cost.beta, are).grow(T)


def f_value(T: int, r: float, sys: LinearSystem, cost: CostModel, are: AreSolution) -> float:
    """Cycle cost of waiting T steps and then paying for a query.

    f(T, r) = sum_{t=0}^{T-1} beta^t Tr(P_t phi)
            + sum_{t=1}^{T} beta^t Tr(Sigma_S C'PC)
            + beta^T (r + O).
    The offset r solves r = min_{T >= 1} f(T, r).
    """
    table, beta = _table_for(T, sys, cost, are), cost.beta
    noise_sum = table.noise * beta * (1.0 - beta**T) / (1.0 - beta)
    return table.E[T] + noise_sum + beta**T * (r + cost.O)


def h_value(T: int, r: float, sys: LinearSystem, cost: CostModel, are: AreSolution) -> float:
    """Forward difference of the cycle cost: f(T+1, r) - f(T, r) = beta^T h(T, r).

    h(T, r) = Tr(P_T phi) + beta Tr(Sigma_S C'PC) - (1 - beta)(r + O), and is
    nondecreasing in T, so the sign change of h locates the minimizer of f.
    """
    table, beta = _table_for(T, sys, cost, are), cost.beta
    return table.tr[T] + beta * table.noise - (1.0 - beta) * (r + cost.O)


def never_measure_threshold(sys: LinearSystem, cost: CostModel, are: AreSolution | None = None) -> float:
    """Price above which a Schur-stable loop should never buy a measurement.

    Equals S(inf) = sum_k beta^k Tr((A')^k W_inf A^k phi); requires
    spectral_radius(A) < 1 and raises UnstableA otherwise.
    """
    return _PhaseTable(sys, cost.beta, are or dare_solve(sys, cost)).threshold


def _solve_prices(sys: LinearSystem, cost: CostModel, prices: list[float],
                  are: AreSolution | None = None) -> list[PolicySolution]:
    """The schedule at each price (cost.O is ignored): one Riccati solve, one table, at most one W_inf."""
    table = _PhaseTable(sys, cost.beta, are or dare_solve(sys, cost))
    try:
        threshold = table.threshold
    except UnstableA:
        threshold = None
    return [_solve_price(table, replace(cost, O=O), threshold) for O in prices]


def _solve_price(table: _PhaseTable, cost: CostModel, threshold: float | None) -> PolicySolution:
    beta, O = cost.beta, cost.O
    common = dict(sys=table.sys, cost=cost, are=table.are, O=O, never_threshold=threshold, _table=table)
    if threshold is not None and O >= threshold:
        r = table.E_inf + beta / (1.0 - beta) * table.noise
        return PolicySolution(T_star=math.inf, r=r, case_id=MeasureCase.NEVER_MEASURE, **common)
    T = table.period(O)
    if T is None:
        raise NonFiniteSearch(
            f"no waiting time up to {T_SEARCH_CAP} exceeded the bracket for O={O}; "
            "O is within tolerance of the never-measure threshold"
        )
    r = table.E[T] / (1.0 - beta**T) + beta / (1.0 - beta) * table.noise + beta**T * O / (1.0 - beta**T)
    case = MeasureCase.MEASURE_EVERY_STEP if T == 1 else MeasureCase.FINITE_PERIOD
    return PolicySolution(T_star=float(T), r=r, case_id=case, **common)


def optimal_period(sys: LinearSystem, cost: CostModel, are: AreSolution | None = None) -> PolicySolution:
    """Solve for the optimal waiting time T* and the value offset r.

    T* is the first T with S(T) > O, which resolves a price sitting exactly
    on a bracket boundary toward the longer wait. For stable A the
    never-measure threshold is checked first; an exhausted search cap
    (T_SEARCH_CAP) means O sits just under the threshold and is reported as
    an error rather than a schedule.
    """
    return _solve_prices(sys, cost, [cost.O], are)[0]


@dataclass(frozen=True)
class ValueSummary:
    """Value of the solved schedule from a given state, with comparison figures.

    V / V_s are the fixed-point value and its measurement-outlay-free part.
    V_reported / V_s_reported use a one-phase-shorter error window
    (phases 0..T*-2 normalized by 1 - beta^(T*-1)); the benchmark validation
    targets this library reproduces were produced with that window, so both
    variants are kept. V_c is the free-measurement optimum, V_e the cost of
    measuring every step (V_c plus the query outlay), and
    V_e_excluding_noise drops the stationary noise floor from V_e.
    """

    V: float
    V_s: float
    V_c: float
    V_e: float
    V_e_excluding_noise: float
    V_reported: float
    V_s_reported: float


def value_at(ps: PolicySolution, x: np.ndarray) -> ValueSummary:
    """Evaluate the schedule's value function and comparison figures at x."""
    x = np.asarray(x, dtype=float).ravel()
    beta, O = ps.cost.beta, ps.O
    table = ps._table or _PhaseTable(ps.sys, beta, ps.are)
    xPx = float(x @ ps.are.P @ x)

    V = xPx + ps.r
    V_c = xPx + beta / (1.0 - beta) * table.noise
    V_e = V_c + beta * O / (1.0 - beta)
    V_e_bare = xPx + beta * O / (1.0 - beta)

    if not ps.finite:
        return ValueSummary(
            V=V, V_s=V, V_c=V_c, V_e=V_e, V_e_excluding_noise=V_e_bare,
            V_reported=V, V_s_reported=V,
        )

    T = ps.period
    outlay = beta**T * O / (1.0 - beta**T)
    V_s = V - outlay

    if T >= 2:
        table.grow(T)
        V_s_rep = V_c + table.E[T - 1] / (1.0 - beta ** (T - 1))
    else:
        V_s_rep = V_c
    V_rep = V_s_rep + outlay

    return ValueSummary(
        V=V, V_s=V_s, V_c=V_c, V_e=V_e, V_e_excluding_noise=V_e_bare,
        V_reported=V_rep, V_s_reported=V_s_rep,
    )
