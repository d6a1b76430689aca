"""Online controller and its batch-packet equivalent.

Two implementations of the same policy:

* ``make_packet`` — at a measurement, emit the waiting time and the whole
  open-loop control sequence for the coming window in one packet.
* ``step_decide`` — run the loop one step at a time, keeping the count of
  steps since the last query and the state estimate. The optimal schedule is
  state-independent and periodic, so the trigger is that count reaching the
  solved period T*; it reads T* from the policy and derives nothing itself.

Both compute controls by propagating the estimate with x_hat <- A x_hat + B u
and applying u = -K x_hat. Both read the operands that the solved policy
prepares once (C-contiguous, read-only copies of A, B and the negated gain
-K), and both make the same three products, ``A.dot(x_hat)``,
``B.dot(u)`` and ``(-K).dot(x_hat)``. The floating-point operations are
identical, so the two produce bit-identical control streams on the same
trajectory. Negating K once, before any product, is exact, so u equals
-(K @ x_hat) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .policy import PolicySolution

__all__ = [
    "ControlPacket",
    "ControllerState",
    "InfinitePeriod",
    "MeasurementUnavailable",
    "make_packet",
    "initial_state",
    "step_decide",
]


class InfinitePeriod(ValueError):
    """A packet cannot represent a schedule that never measures."""


class MeasurementUnavailable(ValueError):
    """The trigger fired but no measurement value was supplied."""


@dataclass(frozen=True)
class ControlPacket:
    """Waiting time and the open-loop controls to apply until the next query."""

    T: int
    controls: np.ndarray  # shape (T, p)

    def as_dict(self) -> dict:
        return {"T": self.T, "controls": [float(v) for v in self.controls.ravel()]}

    @classmethod
    def from_dict(cls, d: dict, p: int) -> "ControlPacket":
        T = int(d["T"])
        controls = np.asarray(d["controls"], dtype=float).reshape(T, p)
        return cls(T=T, controls=controls)


def make_packet(x: np.ndarray, ps: PolicySolution, horizon: int | None = None) -> ControlPacket:
    """Controls for one waiting window starting from measured state x.

    Entry j equals -K (A - BK)^j x, generated by propagating the noiseless
    estimate. A never-measure schedule has no finite packet; pass ``horizon``
    to truncate it explicitly, otherwise InfinitePeriod is raised.
    """
    loop = ps._loop
    if loop.period:
        T = loop.period if horizon is None else min(loop.period, int(horizon))
    else:
        if horizon is None:
            raise InfinitePeriod(
                "schedule never measures; supply horizon= to cap the packet length"
            )
        T = int(horizon)
    A, B, minus_K = loop.A, loop.B, loop.minus_K
    x_hat = np.asarray(x, dtype=float).ravel()
    controls = np.empty((T, ps.sys.p))
    for j in range(T):
        if j > 0:
            x_hat = A.dot(x_hat) + B.dot(controls[j - 1])
        controls[j] = minus_K.dot(x_hat)
    return ControlPacket(T=T, controls=controls)


class ControllerState(NamedTuple):
    """Recursive sufficient statistic of the online controller (immutable).

    m      -- steps since the last query (0 right after one); the trigger
              fires when m + 1 reaches T*.
    x_bar  -- state estimate (exact propagation of the last measured state).
    t      -- global step the next step_decide call will execute.
    """

    m: int
    x_bar: np.ndarray
    t: int


def initial_state(ps: PolicySolution, x0: np.ndarray) -> ControllerState:
    """Session start: the initial state is known for free, so no query is charged."""
    return ControllerState(0, np.asarray(x0, dtype=float).ravel().copy(), 0)


def step_decide(
    state: ControllerState,
    measurement: np.ndarray | None,
    ps: PolicySolution,
    prev_control: np.ndarray | None,
) -> tuple[int, np.ndarray, ControllerState]:
    """Advance the controller one step; returns (i_t, u_t, next_state).

    The trigger fires once m + 1 reaches the solved period T*, so it fires
    first T* steps after a query and never for a never-measure schedule. On
    i_t = 1 the estimate is reset to the supplied measurement and m restarts
    from zero; otherwise the estimate propagates through the model with the
    previous control.
    """
    loop = ps._loop

    if state.t == 0:
        # Free initial knowledge: act on x0 without buying a query.
        return 0, loop.minus_K.dot(state.x_bar), ControllerState(0, state.x_bar, 1)

    if 0 < loop.period <= state.m + 1:
        if measurement is None:
            raise MeasurementUnavailable(f"trigger fired at t={state.t} with no measurement")
        x_bar = np.asarray(measurement, dtype=float).ravel().copy()
        return 1, loop.minus_K.dot(x_bar), ControllerState(0, x_bar, state.t + 1)

    if prev_control is None:
        raise ValueError("prev_control is required when no measurement is taken")
    x_bar = loop.A.dot(state.x_bar) + loop.B.dot(np.asarray(prev_control, dtype=float).ravel())
    return 0, loop.minus_K.dot(x_bar), ControllerState(state.m + 1, x_bar, state.t + 1)
