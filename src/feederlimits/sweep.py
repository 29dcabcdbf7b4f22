"""Brute-force (P, Q) grid oracle for measuring transfer limits on a feeder.

For every real power on a grid, each reactive power is tried in turn; points
violating a voltage, ampacity or substation limit (or failing to converge)
are discarded, and the reactive power maximising the transferred real power
is kept.  The resulting frontier yields measured marginal and thermal limits
that the closed-form predictions are scored against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, NoFeasiblePointError
from .feeder import FeederModel, solve_feeder, two_bus_equivalent
from .limits import OperatingPoint, TwoBusCase, binding_limit, locus_estimate
from .twobus import ComplexPower

# feasibility slack so points sitting exactly on a limit survive rounding
_LIMIT_SLACK = 1e-9
# one power flow per point; 31x the 401 x 801 acceptance grid
_MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class SweepConfig:
    """Grid and constraints for one sweep.

    Ranges are (min, max, step) in per-unit.  Branch ampacities come from
    the feeder model itself.  Bad or oversized grids raise DomainError
    before any point is allocated.
    """

    p_range: tuple[float, float, float]
    q_range: tuple[float, float, float]
    v_plus: float
    p_plus: float | None = None

    def __post_init__(self):
        for lo, hi, step in (self.p_range, self.q_range):
            if not all(map(math.isfinite, (lo, hi, step))):
                raise DomainError(f"grid range and step must be finite: {(lo, hi, step)!r}")
            if step <= 0.0:
                raise DomainError("grid step must be positive")
            if hi < lo:
                raise DomainError("empty grid range")
        # written so that NaN fails the check
        if not self.v_plus > 0.0:
            raise DomainError(f"voltage limit must be positive: {self.v_plus!r}")
        if self.p_plus is not None and not math.isfinite(self.p_plus):
            raise DomainError(f"substation power limit must be finite: {self.p_plus!r}")
        try:
            points = _grid_count(*self.p_range) * _grid_count(*self.q_range)
        except OverflowError:  # (hi - lo) / step overflowed to inf
            points = math.inf
        if points > _MAX_GRID_POINTS:
            raise DomainError(f"grid of {points} points exceeds the {_MAX_GRID_POINTS} cap")

    def p_values(self) -> list[float]:
        return _grid(*self.p_range)

    def q_values(self) -> list[float]:
        return _grid(*self.q_range)


def _grid_count(lo: float, hi: float, step: float) -> int:
    return math.floor((hi - lo) / step + 1e-9) + 1


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + k * step for k in range(_grid_count(lo, hi, step))]


@dataclass(frozen=True)
class FrontierPoint:
    p_gen: float
    q_gen: float
    p0_sub: float
    max_current: float
    vg: float


@dataclass(frozen=True)
class SweepErrors:
    """Prediction minus measurement, per-unit; negative = under-prediction."""

    pg_marginal: float
    p0_marginal: float
    pg_thermal: float | None
    p0_thermal: float | None


@dataclass(frozen=True)
class SweepReport:
    frontier: list[FrontierPoint]
    measured_pg_marginal: float
    measured_p0_marginal: float
    measured_pg_thermal: float
    measured_p0_thermal: float
    case: TwoBusCase
    s_load: ComplexPower
    predicted_marginal: OperatingPoint
    predicted_thermal: OperatingPoint | None
    errors: SweepErrors


def improves(p0: float, q: float, best: FrontierPoint | None) -> bool:
    """Frontier preference: larger transfer wins, exact ties go to smaller |q|."""
    if best is None:
        return True
    if p0 != best.p0_sub:
        return p0 > best.p0_sub
    return abs(q) < abs(best.q_gen)


def best_reactive_point(model, bus, p, q_values, v_plus, p_plus):
    """Feasible point with maximum transferred power at fixed generation.

    Ties in transferred power break toward the reactive power of smallest
    magnitude.  Returns None when no grid point is feasible.
    """
    best = None
    for q in q_values:
        try:
            res = solve_feeder(model, {bus: ComplexPower(p, q)})
        except ConvergenceError:
            continue
        if any(abs(v) > v_plus + _LIMIT_SLACK for v in res.voltages.values()):
            continue
        violated = False
        for br in model.branches:
            if res.branch_currents[(br.from_bus, br.to_bus)] > br.ampacity + _LIMIT_SLACK:
                violated = True
                break
        if violated:
            continue
        p0 = res.s0_sub.p
        if p_plus is not None and p0 > p_plus + _LIMIT_SLACK:
            continue
        if improves(p0, q, best):
            max_current = max(res.branch_currents.values())
            vg = abs(res.voltages[bus])
            best = FrontierPoint(p, q, p0, max_current, vg)
    return best


def run_sweep(model: FeederModel, bus: str, config: SweepConfig) -> SweepReport:
    """Sweep the grid, extract measured limits and score the predictions.

    The two-bus equivalent comes first, so a bad bus fails before any
    power flow runs.
    """
    case, s_load = two_bus_equivalent(model, bus, v_plus=config.v_plus)
    q_values = config.q_values()
    columns = (
        best_reactive_point(model, bus, p, q_values, config.v_plus, config.p_plus)
        for p in config.p_values()
    )
    frontier = [pt for pt in columns if pt is not None]
    if not frontier:
        raise NoFeasiblePointError("no grid point satisfies all constraints")

    marginal_pt = max(frontier, key=lambda pt: pt.p0_sub)
    thermal_pt = max(frontier, key=lambda pt: pt.p_gen)

    predicted = binding_limit(case)
    predicted_marginal = predicted.marginal
    predicted_thermal = predicted.thermal

    p_load = s_load.p
    errors = SweepErrors(
        pg_marginal=(predicted_marginal.sg.p + p_load) - marginal_pt.p_gen,
        p0_marginal=predicted_marginal.s0.p - marginal_pt.p0_sub,
        pg_thermal=(
            (predicted_thermal.sg.p + p_load) - thermal_pt.p_gen
            if predicted_thermal is not None
            else None
        ),
        p0_thermal=(
            predicted_thermal.s0.p - thermal_pt.p0_sub
            if predicted_thermal is not None
            else None
        ),
    )
    return SweepReport(
        frontier=frontier,
        measured_pg_marginal=marginal_pt.p_gen,
        measured_p0_marginal=marginal_pt.p0_sub,
        measured_pg_thermal=thermal_pt.p_gen,
        measured_p0_thermal=thermal_pt.p0_sub,
        case=case,
        s_load=s_load,
        predicted_marginal=predicted_marginal,
        predicted_thermal=predicted_thermal,
        errors=errors,
    )


def frontier_curves(report: SweepReport) -> list[dict]:
    """Measured frontier with the closed-form overlays, one record per point.

    Estimated current and reactive power assume operation on the voltage
    limit, so they diverge from measurements at low generation where the
    limit is not yet active.
    """
    if not report.frontier:
        raise NoFeasiblePointError("empty frontier")
    case = report.case
    s_load = report.s_load
    records = []
    for pt in report.frontier:
        est = locus_estimate(case, pt.p_gen - s_load.p)
        if est is None:
            i_est = math.nan
            q_est = math.nan
        else:
            i_est = est.current
            q_est = est.sg.q + s_load.q
        records.append(
            {
                "p_gen": pt.p_gen,
                "p0_sub": pt.p0_sub,
                "max_current": pt.max_current,
                "current_est": i_est,
                "q_gen": pt.q_gen,
                "q_gen_est": q_est,
                "vg": pt.vg,
            }
        )
    return records
