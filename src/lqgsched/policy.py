"""Optimal measurement scheduling for the discounted LQG loop with paid queries.

Every scheduling quantity is a sum over one price-independent sequence of
phases M_t = (A')^t G A^t, G = C' Sigma_S C. With c_t = sum_{k<=t} beta^k,
tr[T] = Tr(W_T phi), S(T) = Tr(Y_T phi) and E[T] = Tr(Ehat_T phi), where

    W_T = sum_{t<T} M_t,  Y_T = sum_{t<T} c_t M_t,  Ehat_T = sum_{t<T} beta^t W_t.

One table per (sys, beta, are) holds them for blocks of 2^j phases, each
block two of the one below joined (_PhaseTable._join), and at any T folds in
the blocks of T's set bits, highest first; it keeps the sums per T, so a T
has one value whichever price asked for it. The optimal waiting time T* is
the first T with S(T) > O: T doubles until S passes O, then bisects back
down, O(log T*) joins at any distance from the never-measure threshold. The
solved schedule is one integer, PolicySolution.period: T*, or 0 when
measuring is never worth the price. For Schur-stable A the blocks converge;
their limit gives W_inf, E[inf] and the threshold S(inf), itself a block's
S, so every price below it has a finite T*. The value offset r solves
r = min_T f(T, r) over the cycle costs _PhaseTable.f, and is read off the
sums per case (the oracle module re-derives it from explicit matrix powers
as min_T f(T, 0)/(1 - beta^T) on a grid). A sweep shares one Riccati
solve and one table, which lives only for the solve: a PolicySolution keeps
W_inf and two numbers beside its records, whose read-only arrays the
controller and the simulator multiply by directly (sys.A, sys.B and
are.minus_K).

Covariance convention: P_t follows the adjoint recursion P_{t+1} = A' P_t A + G
(error_cov_seq in tests/reference.py builds these matrices one step at a
time; the tests check the table against it). A physical simulation
propagates forward (A Cov A' + C Sigma_S C'), which differs on non-normal
A; the simulator and oracle modules quantify that gap.
"""

from __future__ import annotations

import math
from dataclasses import field
from enum import Enum
from functools import cached_property

import numpy as np

from .model import CostModel, LinearSystem, _frozen, record
from .riccati import (DOUBLING_STEPS, AreSolution, NonConvergence, UnstableA, _check_lyapunov, _converged,
                      _require_schur_stable, dare_solve)

__all__ = [
    "MeasureCase",
    "PolicySolution",
    "ValueSummary",
    "optimal_period",
    "never_measure_threshold",
    "value_at",
]


class MeasureCase(Enum):
    MEASURE_EVERY_STEP = "measure_every_step"
    FINITE_PERIOD = "finite_period"
    NEVER_MEASURE = "never_measure"


@record
class _Span:
    """n phases: An = A^n, b = beta^n, c = sum_{k<n} beta^k, sums = (W_n, Y_n, Ehat_n) and their traces with phi.

    Each trace has the bits of np.trace(X @ phi), so S(1) is exactly Tr(G phi)."""

    An: np.ndarray
    b: float
    c: float
    sums: np.ndarray
    tr: float
    S: float  # inf once a block of an unstable A overflows
    E: float


class _PhaseTable:
    """The phase sums of one (sys, beta, are), kept per number of phases T; their limit is solved on first use."""

    def __init__(self, sys: LinearSystem, beta: float, are: AreSolution):
        self.sys, self.beta, self.are = sys, beta, are
        self.noise = float(np.trace(sys.Sigma_S @ sys.C.T @ are.P @ sys.C))  # Tr(Sigma_S C'PC)
        G, q = sys.noise_gram(), sys.q
        self._memo = {0: self._span(np.eye(q), 1.0, 0.0, np.zeros((3, q, q))),
                      1: self._span(sys.A, beta, 1.0, np.array([G, G, np.zeros((q, q))]))}

    def _span(self, An: np.ndarray, b: float, c: float, sums: np.ndarray) -> _Span:
        tr, S, E = (sums @ self.are.phi).trace(axis1=1, axis2=2).tolist()
        return _Span(An, b, c, sums, tr, S if math.isfinite(S) else math.inf, E)

    def _join(self, p: _Span, s: _Span) -> _Span:
        """The m phases of p followed by the n phases of s; every term is positive.

        W_{m+n} = W_m + (A')^m W_n A^m, Y_{m+n} = Y_m + (A')^m (c_{m-1} W_n + beta^m Y_n) A^m,
        Ehat_{m+n} = Ehat_m + beta^m (c_{n-1} W_m + (A')^m Ehat_n A^m).
        """
        W, Y, E = s.sums
        with np.errstate(over="ignore", invalid="ignore"):  # an unstable A^m may overflow: S then reads inf
            Z = p.An.T @ np.array([W, p.c * W + p.b * Y, E]) @ p.An
            Z[2] = p.b * (s.c * p.sums[0] + Z[2])
            return self._span(p.An @ s.An, p.b * s.b, p.c + p.b * s.c, p.sums + Z)

    def at(self, T: int) -> _Span:
        """The first T phases: a block of 2^j joins two of 2^(j-1), any other T its rest to its lowest bit's block."""
        span = self._memo.get(T)
        if span is None:
            low = T & -T
            head = low // 2 if T == low else T - low
            span = self._memo[T] = self._join(self.at(head), self.at(T - head))
        return span

    def period(self, O: float) -> int:
        """T*, the first T with S(T) > O: T doubles until S passes O, then bisects back down."""
        n = 1
        while not (S := self.at(n).S) > O:
            if n == 1 << DOUBLING_STEPS:
                raise NonConvergence(f"S(T) = {S!r} is still at or below O = {O!r} at T = 2^{DOUBLING_STEPS}: the "
                                     "phase sums are bounded, but A has no never-measure threshold (its spectral "
                                     "radius is not below 1 - 1e-9)", residual=math.inf)
            n *= 2
        T, step = n // 2, n // 4  # S(T) <= O < S(T + 2 step)
        while step:
            if not self.at(T + step).S > O:
                T += step
            step //= 2
        return T + 1

    def f(self, T: int, r: float, O: float) -> float:
        """Cycle cost of waiting T >= 1 steps and then paying O for a query.

        f(T, r) = sum_{t=0}^{T-1} beta^t Tr(P_t phi) + sum_{t=1}^{T} beta^t Tr(Sigma_S C'PC) + beta^T (r + O);
        the offset r solves r = min_{T >= 1} f(T, r).
        """
        return self.at(T).E + self.noise * self.beta * (1.0 - self.beta**T) / (1.0 - self.beta) + self.beta**T * (r + O)

    def h(self, T: int, r: float, O: float) -> float:
        """Forward difference of the cycle cost at price O, T >= 1: f(T+1, r) - f(T, r) = beta^T h(T, r).

        h(T, r) = Tr(P_T phi) + beta Tr(Sigma_S C'PC) - (1 - beta)(r + O) is nondecreasing in T,
        so the sign change of h locates the minimizer of f.
        """
        return self.at(T).tr + self.beta * self.noise - (1.0 - self.beta) * (r + O)

    @cached_property
    def limit(self) -> _Span:
        """The blocks' limit, the sums of every phase (W_inf is sums[0]); raises UnstableA unless A is Schur-stable."""
        _require_schur_stable(self.sys)
        span = self.at(1)
        for _ in range(DOUBLING_STEPS):  # the memo is left to the search: a price far below S(inf) needs few blocks
            span, old = self._join(span, span), span
            if all(map(_converged, span.sums - old.sums, span.sums)):
                break
        _check_lyapunov(self.sys, span.sums[0])
        return span


@record
class PolicySolution:
    """Solved schedule: the query period, the value offset r, what value_at reads, and the inputs.

    period is T*, or 0 when measuring is never worth the price (possible
    only for Schur-stable A); T_star, finite, case_id and O are views.
    noise is Tr(Sigma_S C'PC), window the reported window's E[T*-1]/(1 - beta^(T*-1)) (0 for T* <= 1),
    and W_inf the read-only sum of every phase (None without a threshold), one array for a whole sweep.
    """

    sys: LinearSystem
    cost: CostModel
    are: AreSolution
    period: int
    r: float
    never_threshold: float | None
    noise: float
    window: float
    W_inf: np.ndarray | None = field(repr=False, compare=False)

    @property
    def T_star(self) -> float:
        """T* as a number: the period, or math.inf for a schedule that never measures."""
        return float(self.period) if self.period else math.inf

    @property
    def finite(self) -> bool:
        return self.period > 0

    @property
    def O(self) -> float:
        return self.cost.O

    @property
    def case_id(self) -> MeasureCase:
        if not self.period:
            return MeasureCase.NEVER_MEASURE
        if self.period == 1:
            return MeasureCase.MEASURE_EVERY_STEP
        return MeasureCase.FINITE_PERIOD


def never_measure_threshold(sys: LinearSystem, cost: CostModel, are: AreSolution | None = None) -> float:
    """Price above which a Schur-stable loop should never buy a measurement.

    Equals S(inf), the limit of the phase sums; requires spectral_radius(A)
    < 1 - 1e-9 and raises UnstableA otherwise.
    """
    return _PhaseTable(sys, cost.beta, are or dare_solve(sys, cost)).limit.S


def _solve_prices(sys: LinearSystem, cost: CostModel, prices: list[float],
                  are: AreSolution | None = None) -> list[PolicySolution]:
    """The schedule at each price (cost.O is ignored): one Riccati solve and one table."""
    table = _PhaseTable(sys, cost.beta, are or dare_solve(sys, cost))
    try:
        threshold, W_inf = table.limit.S, _frozen(table.limit.sums[0])  # one copy, shared by every price
    except UnstableA:
        threshold = W_inf = None
    return [_solve_price(table, CostModel(cost.Q, cost.R, cost.beta, O), threshold, W_inf) for O in prices]


def _solve_price(table: _PhaseTable, cost: CostModel, threshold: float | None,
                 W_inf: np.ndarray | None) -> PolicySolution:
    beta, O = cost.beta, cost.O
    if threshold is not None and O >= threshold:
        r = table.limit.E + beta / (1.0 - beta) * table.noise
        return PolicySolution(table.sys, cost, table.are, 0, r, threshold, table.noise, 0.0, W_inf)
    T = table.period(O)
    r = table.at(T).E / (1.0 - beta**T) + beta / (1.0 - beta) * table.noise + beta**T * O / (1.0 - beta**T)
    window = table.at(T - 1).E / (1.0 - beta ** (T - 1)) if T >= 2 else 0.0  # the search visited T* - 1
    return PolicySolution(table.sys, cost, table.are, T, r, threshold, table.noise, window, W_inf)


def optimal_period(sys: LinearSystem, cost: CostModel, are: AreSolution | None = None) -> PolicySolution:
    """Solve for the optimal waiting time T* and the value offset r.

    T* is the first T with S(T) > O, which resolves a price sitting exactly
    on a bracket boundary toward the longer wait. For stable A the
    never-measure threshold is checked first, and every price below it has a
    finite T*. Where S(T) stays bounded without a threshold (spectral radius
    of A within 1e-9 of 1), a price above its bound raises NonConvergence.
    """
    return _solve_prices(sys, cost, [cost.O], are)[0]


@record
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
    beta, O = ps.cost.beta, ps.cost.O
    xPx = float(x @ ps.are.P @ x)

    V = xPx + ps.r
    V_c = xPx + beta / (1.0 - beta) * ps.noise
    V_e = V_c + beta * O / (1.0 - beta)
    V_e_bare = xPx + beta * O / (1.0 - beta)

    T = ps.period
    outlay, V_s_rep = 0.0, V  # a schedule that never measures pays no outlay
    if T:
        outlay = beta**T * O / (1.0 - beta**T)
        V_s_rep = V_c + ps.window  # the solve summed the window from the sums at T* - 1

    return ValueSummary(V, V - outlay, V_c, V_e, V_e_bare, V_s_rep + outlay, V_s_rep)
