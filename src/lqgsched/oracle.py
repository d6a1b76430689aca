"""Brute-force cross-checks for the analytic scheduling pipeline.

verify_solution scores two kinds of check. Five derive their numbers
without the scheduler's cycle-cost code (policy's phase table), from
explicit matrix powers on a waiting-time grid: offset_match reads the offset
r, the least cycle-cost ratio, or for a never-measure schedule on a
Schur-stable A the never-measure rate in closed form, which the grid
truncates; period_match, f_curve_minimum and
curve_decreasing read the signs of h(T, r), which alone decide the period
(f(T+1, r) - f(T, r) = beta^T h(T, r) loses h to rounding once beta^T is
small); inner_collapse re-costs the finite window in closed form in one
backward Riccati pass from P, which keeps one weight and one adjoint error
sum at a time rather than the window's T* weights. Two check the solve's
own arithmetic: fixed_point_residual and bracket read f and h at the
solved T* and r off one phase table. No check simulates: the window's
Monte Carlo re-costing (inner_dp_check) is a test reference, in
tests/reference.py. The module also provides exact expected-cost
evaluators for arbitrary periodic strategies under the physical (forward)
noise propagation Cov <- A Cov A' + C Sigma_S C';
these anchor the Monte Carlo validation.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CostModel, LinearSystem, record
from .policy import PolicySolution, _PhaseTable
from .riccati import AreSolution, NonConvergence, _step, dare_solve, dlyap_adjoint, spectral_radius

__all__ = [
    "OracleReport",
    "VerifyReport",
    "solve_r_fixed_point",
    "periodic_strategy_cost",
    "never_measure_cost",
    "verify_solution",
]

# verify_solution's offset_match needs |r_oracle - r| <= OFFSET_TOL |r| (both are closed forms, so a few ulps apart);
# its sign checks of h(T, r) = Tr(P_T phi) + beta Tr(Sigma_S C'PC) - (1 - beta)(r + O) take an h within TIE_ULPS
# ulps of the size of its terms, |Tr(P_T phi)| + beta |Tr(Sigma_S C'PC)| + (1 - beta)|r + O|, for a tie that rounding
# decides, and accept either sign there.
OFFSET_TOL = 1e-10
TIE_ULPS = 16


def _tie_bound(trace, noise: float, beta: float, r: float, O: float):
    """The rounding bound of h(T, r) whose first term is ``trace`` = Tr(P_T phi): TIE_ULPS ulps of its terms' size."""
    return TIE_ULPS * np.finfo(float).eps * (np.abs(trace) + beta * abs(noise) + (1.0 - beta) * abs(r + O))


def _first_above(h: np.ndarray, bound) -> int:
    """The first T with h(T) > bound, where h[T-1] is h(T); len(h) + 1 when no T has."""
    return int(np.argmax(np.append(h > bound, True))) + 1


@record
class OracleReport:
    """The value offset and waiting time that solve_r_fixed_point derives in closed form on its grid.

    h holds h(T, r_oracle) for T = 1..T_max-1, whose signs decide the period; T_oracle is its first positive T.
    tie holds the rounding bound of each h (_tie_bound): a sign within it is a tie. The cycle cost f(T, r_oracle)
    itself is not kept, since f(T+1, r) - f(T, r) = beta^T h(T, r) and every check reads h.
    Nothing is iterated, so convergence_iters is always 1; it stays only because bench/trace_child.py reads it.
    """

    r_oracle: float
    T_oracle: int
    convergence_iters: int
    grid_capped: bool
    h: np.ndarray  # shape (T_max - 1,)
    tie: np.ndarray  # shape (T_max - 1,)


def _phase_traces_from_powers(
    sys: LinearSystem, phi: np.ndarray, n: int
) -> np.ndarray:
    """err_trace[t] = Tr(P_t phi) with P_t = sum_{tau<t} (A')^tau G A^tau.

    Built from explicitly accumulated powers of A rather than the planning
    recursion, so agreement with the scheduler is a genuine cross-check. On a
    long grid the powers of an unstable A may overflow to inf or NaN. A grid
    that numpy cannot allocate raises NonConvergence.
    """
    try:
        out = np.empty(n)
    except (MemoryError, ValueError) as e:  # ValueError: a length past the address space
        raise NonConvergence(f"the oracle's grid of {n} waiting times cannot be allocated: {e}",
                             residual=math.inf) from e
    G = sys.noise_gram()
    A_pow = np.eye(sys.q)
    P_sum = np.zeros((sys.q, sys.q))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            out[t] = float(np.trace(P_sum @ phi))
            P_sum = P_sum + A_pow.T @ G @ A_pow
            A_pow = A_pow @ sys.A
    return out


def solve_r_fixed_point(
    sys: LinearSystem,
    cost: CostModel,
    T_max: int = 200,
    are: AreSolution | None = None,
) -> OracleReport:
    """Solve r = min_{1<=T<=T_max} f(T, r) in closed form, and the first T at which f rises.

    Each f(T, r) = base_T + beta^T (r + O) is affine in r with slope beta^T < 1,
    so the fixed point of their minimum is the least of their fixed points,
    r = min_T (base_T + beta^T O) / (1 - beta^T) (Dinkelbach's ratio form).
    T_oracle is the first T with h(T, r) = Tr(P_T phi) + beta Tr(Sigma_S C'PC)
    - (1 - beta)(r + O) > 0, since f(T+1, r) - f(T, r) = beta^T h(T, r); when no
    T < T_max qualifies it is T_max and ``grid_capped`` is set (no interior
    minimum, consistent with a never-measure schedule). An r that is not
    finite (overflowed phase traces) raises NonConvergence.
    """
    if are is None:
        are = dare_solve(sys, cost)
    beta, O = cost.beta, cost.O

    err_trace = _phase_traces_from_powers(sys, are.phi, T_max)
    disc = beta ** np.arange(T_max)
    err_prefix = np.cumsum(disc * err_trace)  # index T-1 -> sum_{t<T}
    noise_rate = float(np.trace(sys.Sigma_S @ sys.C.T @ are.P @ sys.C))
    beta_T = beta ** np.arange(1, T_max + 1)
    base = err_prefix + noise_rate * beta * (1.0 - beta_T) / (1.0 - beta)

    r = float(np.min((base + beta_T * O) / (1.0 - beta_T)))
    if not math.isfinite(r):
        raise NonConvergence(f"r = {r}: the explicit powers of A overflow on the oracle's grid of "
                             f"{T_max} waiting times", residual=math.inf)
    h = err_trace[1:] + beta * noise_rate - (1.0 - beta) * (r + O)  # h(T, r) for T = 1..T_max-1
    T_star = _first_above(h, 0.0)  # T_max, where the grid ends, when no h > 0
    return OracleReport(r_oracle=r, T_oracle=T_star, convergence_iters=1, grid_capped=T_star == T_max,
                        h=h, tie=_tie_bound(err_trace[1:], noise_rate, beta, r, O))


def _never_measure_limits(sys: LinearSystem, cost: CostModel, are: AreSolution,
                          r: float) -> tuple[float, float, float]:
    """h(inf, r) and its tie bound, and r_inf, the offset of a schedule that never measures, in closed form.

    h(inf, r) = Tr(W phi) + beta Tr(Sigma_S C'PC) - (1 - beta)(r + O), W = sum_t (A')^t G A^t = dlyap_adjoint(A, G).
    r_inf = beta/(1 - beta) (Tr(X phi) + Tr(Sigma_S C'PC)), X = sum_t beta^t (A')^t G A^t is
    dlyap_adjoint(sqrt(beta) A, G): the waiting cost sum_t beta^t Tr(P_t phi) is beta/(1 - beta) Tr(X phi), since
    P_t sums the phases before t. A must be Schur-stable.
    """
    beta, O, G = cost.beta, cost.O, sys.noise_gram()
    trace = float(np.trace(dlyap_adjoint(sys.A, G) @ are.phi))
    noise = float(np.trace(sys.Sigma_S @ sys.C.T @ are.P @ sys.C))
    X = dlyap_adjoint(math.sqrt(beta) * sys.A, G)
    return (trace + beta * noise - (1.0 - beta) * (r + O), float(_tie_bound(trace, noise, beta, r, O)),
            beta / (1.0 - beta) * (float(np.trace(X @ are.phi)) + noise))


def _window_cost(sys: LinearSystem, cost: CostModel, P: np.ndarray, T: int, r: float,
                 x: np.ndarray, M: np.ndarray, G: np.ndarray) -> float:
    """Closed-form cost from x of the T-step window with symmetric terminal weight P, in one backward Riccati pass:

    x'L_T x + sum_{t<T} beta^t Tr(Cov_t phi_t) + sum_{t=1..T} beta^t Tr(Sigma_S C' L_{T-t} C) + beta^T (r + O),
    L_0 = P, L_{k+1} = _step(L_k), phi_t the sensitivity at L_{T-1-t}, Cov_0 = 0, Cov_{t+1} = M Cov_t M' + G;
    (M, G) is (A, C Sigma_S C') forward, (A', C' Sigma_S C) adjoint. The error sum is taken in adjoint form,
    sum_{t=1..T-1} Tr(G Lam_t) with Lam_T = 0 and Lam_t = beta^t phi_t + M' Lam_{t+1} M, so each step keeps
    one L and one Lam: no Cov_t, and no window of L_k.
    """
    beta, SC, L = cost.beta, sys.Sigma_S @ sys.C.T, P
    Lam = np.zeros_like(G)
    err = noise = 0.0
    for t in reversed(range(T)):  # L is L_{T-1-t}, whose sensitivity is phi_t
        noise += beta ** (t + 1) * float(np.trace(SC @ L @ sys.C))
        L, _, phi = _step(L, sys, cost)
        if t:
            Lam = beta**t * phi + M.T @ Lam @ M
            err += float(np.trace(G @ Lam))
    return float(x @ L @ x) + err + noise + beta**T * (r + cost.O)


def periodic_strategy_cost(
    sys: LinearSystem,
    cost: CostModel,
    gain: np.ndarray,
    period: int,
    x0: np.ndarray,
) -> float:
    """Exact expected discounted cost of: query every ``period`` steps, u = -gain x_bar.

    Uses the physical forward propagation for the estimation-error
    covariance, so it predicts exactly what a simulation of the plant
    realizes. Returns inf when the cycle map is not discount-stable.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    x0 = np.asarray(x0, dtype=float).ravel()
    beta, O = cost.beta, cost.O
    A, B, C = sys.A, sys.B, sys.C
    Atil = A - B @ gain
    stage_w = cost.Q + gain.T @ cost.R @ gain

    G_fwd = C @ sys.Sigma_S @ C.T
    M = np.zeros_like(A)
    N = 0.0
    cov = np.zeros_like(A)
    Apow = np.eye(sys.q)
    for j in range(period):
        M = M + beta**j * (Apow.T @ stage_w @ Apow)
        N += beta**j * float(np.trace(cost.Q @ cov))
        cov = A @ cov @ A.T + G_fwd
        Apow = Atil @ Apow
    Phi = Apow  # Atil^period
    gamma = beta**period

    if math.sqrt(gamma) * spectral_radius(Phi) >= 1.0 - 1e-12:
        return math.inf
    H = dlyap_adjoint(math.sqrt(gamma) * Phi, M)
    head = float(x0 @ H @ x0) + gamma / (1.0 - gamma) * float(np.trace(H @ cov))
    return head + (N + gamma * O) / (1.0 - gamma)


def never_measure_cost(sys: LinearSystem, cost: CostModel, gain: np.ndarray, x0: np.ndarray) -> float:
    """Exact expected discounted cost of never querying with u = -gain x_bar.

    Finite only when beta * rho(A)^2 < 1 (the open-loop error must be
    discount-summable) and the estimate loop A - B gain is discount-stable.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    beta = cost.beta
    A, B, C = sys.A, sys.B, sys.C
    Atil = A - B @ gain
    sb = math.sqrt(beta)
    if sb * spectral_radius(A) >= 1.0 - 1e-12 or sb * spectral_radius(Atil) >= 1.0 - 1e-12:
        return math.inf
    H = dlyap_adjoint(sb * Atil, cost.Q + gain.T @ cost.R @ gain)
    G_fwd = C @ sys.Sigma_S @ C.T
    Hw = dlyap_adjoint(sb * A.T, G_fwd)  # sum_t beta^t A^t G (A')^t
    return float(x0 @ H @ x0) + beta / (1.0 - beta) * float(np.trace(cost.Q @ Hw))


@record
class VerifyReport:
    """Named agreement checks between the analytic schedule and the oracle, whose report they read."""

    checks: list  # of (name, passed, detail)
    oracle: OracleReport

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]


def verify_solution(
    problem_sys: LinearSystem,
    problem_cost: CostModel,
    ps: PolicySolution,
    x_probe: np.ndarray | None = None,
) -> VerifyReport:
    """Run the oracle against a solved schedule and score the agreement checks.

    Checks (documented tolerances; h_o is the oracle's h(T, r_oracle) on its grid). A sign of h is read
    up to a tie: an h within its rounding bound (_tie_bound, TIE_ULPS ulps of its terms) counts as either sign.
      fixed_point_residual  |f(T*, r) - r| < 1e-8 |r|       (finite schedules)
      offset_match          |r_oracle - r| <= OFFSET_TOL |r|; a never-measure schedule on Schur-stable A is
                            read against r_inf, the never-measure rate in closed form (_never_measure_limits)
      period_match          T_oracle == T*, or every h_o from one to the other ties (finite schedules)
      f_curve_minimum       h_o <= 0 before T* and h_o > 0 from T* on, over the grid
      bracket               h(T*-1, r) <= 0 < h(T*, r)
      curve_decreasing      h_o <= 0 over the grid and, for Schur-stable A, h_o(inf) <= 0 in closed
                            form: f never rises, so never measuring is optimal (never-measure)
      grid_capped           no h_o > 0 on the grid                       (never-measure)
      inner_collapse        adjoint window cost, in closed form, collapses onto x'Px + r at the fixed
                            point, within max(1e-10, 10 ps.are.residual) relative, no stricter than
                            the accepted solve (no Monte Carlo runs)
    """
    sys, cost = problem_sys, problem_cost
    checks: list = []

    T_max = max(200, 4 * ps.period) if ps.finite else 500
    rep = solve_r_fixed_point(sys, cost, T_max=T_max, are=ps.are)

    if ps.finite:
        T_star, table = ps.period, _PhaseTable(sys, cost.beta, ps.are)
        resid = abs(table.f(T_star, ps.r, cost.O) - ps.r)
        checks.append(("fixed_point_residual", resid < 1e-8 * abs(ps.r), f"|f(T*,r)-r| = {resid:.3e}"))
        checks.append(
            ("offset_match", abs(rep.r_oracle - ps.r) <= OFFSET_TOL * abs(ps.r),
             f"|r_oracle - r| = {abs(rep.r_oracle - ps.r):.3e}")
        )
        # the T whose h_o may be the first positive one: from the first h_o above -tie to the first above tie
        T_lo, T_hi = _first_above(rep.h, -rep.tie), _first_above(rep.h, rep.tie)
        checks.append(
            ("period_match", T_lo <= T_star <= T_hi, f"T_oracle={rep.T_oracle}, T*={T_star}")
        )
        below, above = slice(T_star - 1), slice(T_star - 1, None)
        lo, hi = rep.h[below].max(initial=-math.inf), rep.h[above].min(initial=math.inf)
        ok = bool(np.all(rep.h[below] <= rep.tie[below]) and np.all(rep.h[above] > -rep.tie[above]))
        checks.append(("f_curve_minimum", ok, f"max h(T<T*) = {lo:.3e}, min h(T>=T*) = {hi:.3e}"))

        def tie(T):
            return _tie_bound(table.at(T).tr, table.noise, cost.beta, ps.r, cost.O)

        h_hi = table.h(T_star, ps.r, cost.O)
        if T_star >= 2:
            h_lo = table.h(T_star - 1, ps.r, cost.O)
            ok = h_lo <= tie(T_star - 1) and h_hi > -tie(T_star)
            checks.append(("bracket", bool(ok), f"h(T*-1)={h_lo:.3e}, h(T*)={h_hi:.3e}"))
        else:
            checks.append(("bracket", bool(h_hi > -tie(1)), f"h(1)={h_hi:.3e}"))

        x = np.ones(sys.q) if x_probe is None else np.asarray(x_probe, dtype=float).ravel()
        window = _window_cost(sys, cost, ps.are.P, T_star, ps.r, x, sys.A.T, sys.noise_gram())
        target = float(x @ ps.are.P @ x) + ps.r
        rel = abs(window - target) / abs(target)
        checks.append(("inner_collapse", rel < max(1e-10, 10 * ps.are.residual), f"relative deviation {rel:.3e}"))
    else:
        on_grid = bool(np.all(rep.h <= rep.tie))
        ok, detail = on_grid, f"max h = {rep.h.max():.3e}"
        if not rep.h.any():  # f(T, r) does not depend on T, so every schedule ties with never measuring
            detail = "h = 0 over the grid: f is constant and every schedule ties"
        name, r_o = "r_oracle", rep.r_oracle
        if float(np.max(np.abs(sys.eigenvalues))) < 1.0:  # past the grid, h_o rises to its limit
            h_inf, tie_inf, r_inf = _never_measure_limits(sys, cost, ps.are, rep.r_oracle)
            if not h_inf <= tie_inf:
                ok, detail = False, f"{detail}, h(inf) = {h_inf:.3e}"
            # the grid's least ratio cuts never measuring off after T_max waiting times, about beta^T_max (r + O) short
            name, r_o = "r_inf", r_inf
        checks.append(("curve_decreasing", ok, detail))
        gap = abs(r_o - ps.r)
        checks.append(("offset_match", gap <= OFFSET_TOL * abs(ps.r), f"|{name} - r| = {gap:.3e}"))
        checks.append(("grid_capped", on_grid, "minimizer on grid boundary"))

    return VerifyReport(checks=checks, oracle=rep)
