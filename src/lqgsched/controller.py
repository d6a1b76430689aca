"""Online controller and the packet of open-loop controls it sends at a query.

* ``step_decide`` — run the loop one step at a time, keeping the count of
  steps since the last query and the state estimate. The optimal schedule is
  state-independent and periodic, so the trigger is that count reaching the
  solved period; it reads ``ps.period`` (0: never) and derives nothing itself.
* ``make_packet`` — at a measurement, emit the waiting time and the whole
  open-loop control sequence for the coming window in one packet. The packet
  is ``step_decide`` run with no measurement, so its controls are the online
  controller's, bit for bit.

A step propagates the estimate with x_hat <- A x_hat + B u and applies
u = -K x_hat, reading the policy's records directly: A and B of ``ps.sys``
and the negated gain ``ps.are.minus_K`` (C-contiguous arrays the records own
read-only). Negating K once, before any product, is exact, so u equals
-(K @ x_hat) bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import record
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


@record
class ControlPacket:
    """Waiting time and the open-loop controls to apply until the next query."""

    T: int
    controls: np.ndarray  # shape (T, p)


def make_packet(x: np.ndarray, ps: PolicySolution, horizon: int | None = None) -> ControlPacket:
    """Controls for one waiting window starting from measured state x.

    Entry j equals -K (A - BK)^j x: the packet is step_decide run from
    ``initial_state(ps, x)`` with no measurement, each step fed the previous
    entry. Inside a window m + 1 stays below T*, so the trigger never fires. A
    never-measure schedule has no finite packet; pass ``horizon`` to truncate
    it explicitly, otherwise InfinitePeriod is raised. A ``horizon`` below 1
    raises ValueError.
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if ps.period:
        T = ps.period if horizon is None else min(ps.period, int(horizon))
    elif horizon is None:
        raise InfinitePeriod(
            "schedule never measures; supply horizon= to cap the packet length"
        )
    else:
        T = int(horizon)
    state, u = initial_state(ps, x), None
    controls = np.empty((T, ps.sys.p))
    for j in range(T):
        _, u, state = step_decide(state, None, ps, u)
        controls[j] = u
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


# step_decide builds each next state with tuple.__new__, which skips the Python-level __new__ of the NamedTuple.
_state = tuple.__new__
_FLOAT64 = np.dtype(np.float64)


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
    i_t = 1 the estimate is reset to the supplied measurement, converted and
    copied with ``np.asarray(measurement, dtype=float).ravel().copy()``, and m
    restarts from zero. Otherwise the estimate propagates through the model
    with the previous control: ``A.dot(x_bar)``, then ``B.dot(u)`` added into
    that fresh product in place. make_packet runs these steps with no
    measurement, so its controls share this arithmetic. A 1-D float64
    array ``prev_control``, which is what this function returns as u_t, goes
    to ``B.dot`` as given; any other is converted first with
    ``np.asarray(prev_control, dtype=float).ravel()``, which gives the same
    bits.
    """
    m, x_bar, t = state
    minus_K = ps.are.minus_K

    if t == 0:
        # Free initial knowledge: act on x0 without buying a query.
        return 0, minus_K.dot(x_bar), _state(ControllerState, (0, x_bar, 1))

    if 0 < ps.period <= m + 1:
        if measurement is None:
            raise MeasurementUnavailable(f"trigger fired at t={t} with no measurement")
        x_bar = np.asarray(measurement, dtype=float).ravel().copy()
        return 1, minus_K.dot(x_bar), _state(ControllerState, (0, x_bar, t + 1))

    u = prev_control
    # dtype by identity: numpy's native float64 descriptor is one object, and any other float64 takes the conversion
    if type(u) is not np.ndarray or u.dtype is not _FLOAT64 or u.ndim != 1:
        if u is None:
            raise ValueError("prev_control is required when no measurement is taken")
        u = np.asarray(u, dtype=float).ravel()
    sys = ps.sys
    x_bar = sys.A.dot(x_bar)
    x_bar += sys.B.dot(u)
    return 0, minus_K.dot(x_bar), _state(ControllerState, (m + 1, x_bar, t + 1))
