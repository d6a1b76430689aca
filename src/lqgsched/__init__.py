"""Co-design of feedback control and paid measurement scheduling for
discounted LQG systems: Riccati machinery, the optimal query period, the
online trigger controller, seeded closed-loop simulation, and a brute-force
oracle that cross-checks the analytic solution."""

from .controller import (
    ControllerState,
    ControlPacket,
    InfinitePeriod,
    MeasurementUnavailable,
    initial_state,
    make_packet,
    step_decide,
)
from .model import (
    CostModel,
    LinearSystem,
    Problem,
    Violation,
    validate,
)
from .oracle import (
    OracleReport,
    VerifyReport,
    never_measure_cost,
    periodic_strategy_cost,
    solve_r_fixed_point,
    verify_solution,
)
from .policy import (
    MeasureCase,
    PolicySolution,
    ValueSummary,
    never_measure_threshold,
    optimal_period,
    value_at,
)
from .riccati import (
    AreSolution,
    NonConvergence,
    UnstableA,
    dare_solve,
    spectral_radius,
)
from .sim import (
    ALWAYS_MEASURE,
    NEVER_MEASURE,
    OPTIMAL,
    SimConfig,
    Strategy,
    TrajectoryRecord,
    fixed_period,
    monte_carlo_value,
    simulate,
)

__version__ = "0.1.0"
