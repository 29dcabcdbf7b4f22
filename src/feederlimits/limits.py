"""Maximum power transfer limits of the constrained two-bus circuit.

Two limits exist, both expressed through losses.  The thermal limit is the
largest generation for which the line current stays at its ampacity while the
voltage rides its upper bound.  The marginal limit is the point past which
incremental losses outgrow incremental generation, so the net transferred
power falls even though more is being generated.  The binding limit is the
smaller of the two generated powers.

Both limit points lie on the |Vg| = V+ locus, so each is set exactly there
rather than re-solved: |Vg| = V+, rotated losses V0² + 2·P̃ − V+², and the
high-voltage branch exactly when V+² ≥ P̃ + V0²/2, which at the marginal
point means λ ≥ λ′.  The locus is the circle (P̃ − V+²)² + Q̃² = (V0·V+)²
in the rotated plane; every other closed-form point on it is a line's first cut.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, ThermalLimitError
from .twobus import (
    Branch,
    ComplexPower,
    Impedance,
    RotatedPower,
    _require_line,
    rotate,
    unrotate,
)

# On the voltage locus the drop |Z|·I = |Vg − V0| is at most V+ + V0.  A
# drop beyond _FAR times that bound misses the locus so far that the
# thermal root argument is −inf in floating point.
_FAR = 1e100


@dataclass(frozen=True)
class TwoBusCase:
    """One instance of the constrained transfer problem.

    v0: source (reference) bus voltage, per-unit.
    z: series line impedance.
    v_plus: upper voltage limit at the generator bus.
    i_plus: line current limit (ampacity); +inf means unbounded.
    """

    v0: float
    z: Impedance
    v_plus: float
    i_plus: float

    def __post_init__(self):
        # written so that NaN fails every comparison; the formulas square
        # both voltages, so their squares must be finite too
        if not (0.0 < self.v0 and self.v0 * self.v0 < math.inf
                and 0.0 < self.v_plus and self.v_plus * self.v_plus < math.inf
                and self.i_plus >= 0.0):
            raise DomainError(f"invalid case parameters: {self}")
        _require_line(self.z)


@dataclass(frozen=True)
class OperatingPoint:
    """A fully-resolved steady state of the two-bus circuit."""

    sg: ComplexPower
    s0: ComplexPower
    vg: float
    current: float
    losses: ComplexPower
    efficiency: float
    pf_gen: float
    pf_sub: float
    branch: Branch


class Limit(enum.Enum):
    THERMAL = "thermal"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class LimitReport:
    """Both limit points; thermal is None when the ampacity is so large that
    the thermal point falls off the voltage-limit locus entirely, and
    thermal_error then says why."""

    thermal: OperatingPoint | None
    marginal: OperatingPoint
    binding: Limit
    lambda_prime: float
    thermal_error: str | None


def metrics(sg: ComplexPower, s0: ComplexPower) -> tuple[float, float, float]:
    """(thermal efficiency, generator power factor, substation power factor).

    Efficiency is clamped to zero when no positive real power reaches the
    substation; power factors are unsigned.
    """
    if sg.p > 0.0:
        efficiency = max(0.0, s0.p) / sg.p
    else:
        efficiency = 0.0
    return efficiency, sg.power_factor(), s0.power_factor()


def operating_point(sg_t: RotatedPower, case: TwoBusCase) -> OperatingPoint:
    """Operating point of a rotated injection on the |Vg| = V+ locus.

    The injection must lie on the locus, as both limit points do by
    construction.  There the rotated losses follow from the rotated real
    power alone, V0² + 2·P̃ − V+², and the point is on the high-voltage
    branch exactly when V+² ≥ P̃ + V0²/2 (for the marginal point, when
    λ ≥ λ′).
    """
    z = case.z
    z_mag = z.magnitude()
    v_plus_sq = case.v_plus**2
    v0_sq = case.v0**2
    losses_t = max(v0_sq + 2.0 * sg_t.p_t - v_plus_sq, 0.0)
    if v_plus_sq >= sg_t.p_t + v0_sq / 2.0:
        branch = Branch.HIGH_VOLTAGE
    else:
        branch = Branch.LOW_VOLTAGE
    sg = unrotate(sg_t, z)
    losses = ComplexPower(
        losses_t * z.r / z_mag**2, losses_t * z.x / z_mag**2
    )
    s0 = sg - losses
    current = math.sqrt(losses_t) / z_mag
    # s0 is not finite when sg or the losses are not
    if not (math.isfinite(s0.p) and math.isfinite(s0.q) and math.isfinite(current)):
        raise DomainError(f"operating point leaves the float range: {case}")
    efficiency, pf_gen, pf_sub = metrics(sg, s0)
    return OperatingPoint(
        sg=sg,
        s0=s0,
        vg=case.v_plus,
        current=current,
        losses=losses,
        efficiency=efficiency,
        pf_gen=pf_gen,
        pf_sub=pf_sub,
        branch=branch,
    )


def _locus_cut(v0: float, v_plus: float, at: RotatedPower, along: RotatedPower) -> float | None:
    """Smallest t with at + t·along on the locus, or None: the root of a·t² + 2b·t + c = 0
    for d = at − (V+², 0), a = |along|², b = d·along, c = |d|² − (V0·V+)², in the form
    that does not cancel.  |d| − V0·V+ is summed as (|d| − V+²) + V+·(V+ − V0), so that
    V+ close to V0 costs no digits."""
    w = v_plus * v_plus
    dp, dq = at.p_t - w, at.q_t
    dist = math.hypot(dp, dq)
    a = along.p_t * along.p_t + along.q_t * along.q_t
    b = dp * along.p_t + dq * along.q_t
    c = ((dist - w) + v_plus * (v_plus - v0)) * (dist + v0 * v_plus)
    disc = b * b - a * c
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    return c / (s - b) if b < 0.0 else -(b + s) / a


def locus_estimate(case: TwoBusCase, pg_net: float) -> OperatingPoint | None:
    """Closed-form operating point on the |Vg| = V+ locus at a net generation.

    Its reactive power is the lower-loss one that pins the generator voltage
    at the limit.  None when the locus is unreachable at this generation.
    """
    z = case.z
    qg = _locus_cut(case.v0, case.v_plus, rotate(ComplexPower(pg_net, 0.0), z),
                    rotate(ComplexPower(0.0, 1.0), z))
    return None if qg is None else operating_point(rotate(ComplexPower(pg_net, qg), z), case)


def upf_limit_generation(z: Impedance, v0: float, v_plus: float) -> float:
    """Generated power where unity-power-factor operation first hits V+.

    NaN when no unity-power-factor generation lifts the voltage to V+,
    which happens on near-reactive lines.
    """
    pg = _locus_cut(v0, v_plus, RotatedPower(0.0, 0.0), rotate(ComplexPower(1.0, 0.0), z))
    return math.nan if pg is None else pg


def boundary_generation(z: Impedance, v0: float, v_plus: float) -> float:
    """Generated power on the solution boundary (zero discriminant) at |Vg| = V+.

    It meets the locus where P̃ = V+² − V0²/2.  NaN when the boundary never
    reaches V+, i.e. V+ < V0/2.
    """
    p_t = v_plus * v_plus - v0 * v0 / 2.0
    q_t = _locus_cut(v0, v_plus, RotatedPower(p_t, 0.0), RotatedPower(0.0, 1.0))
    return math.nan if q_t is None else unrotate(RotatedPower(p_t, q_t), z).p


def thermal_rotated_roots(case: TwoBusCase) -> tuple[float, float]:
    """Rotated coordinates (p_t, q_t) of the thermal limit point.

    Of the two reactive roots ±q_t the negative one gives the larger
    generated power, so it is the one returned.
    """
    z_mag = case.z.magnitude()
    if z_mag * case.i_plus > _FAR * (case.v_plus + case.v0):
        if case.i_plus == math.inf:
            raise ThermalLimitError("ampacity is unbounded, no thermal limit point exists")
        # about −(|Z|·I+)⁴/4 there, below the float range; squaring the
        # ampacity to compute it could raise OverflowError
        arg = -math.inf
    else:
        try:
            p_t = 0.5 * (case.v_plus**2 - case.v0**2 + z_mag**2 * case.i_plus**2)
            arg = (case.v_plus * case.i_plus * z_mag) ** 2 - p_t * p_t
        except OverflowError as exc:
            # the point exists exactly when |V+ − V0| ≤ |Z|·I+ ≤ V+ + V0
            if abs(case.v_plus - case.v0) <= z_mag * case.i_plus <= case.v_plus + case.v0:
                raise DomainError(f"thermal limit squares leave the float range: {case}") from exc
            arg = -math.inf
    if arg < 0.0:
        raise ThermalLimitError(
            "thermal limit does not intersect the voltage-limit locus "
            f"(root argument {arg:.3e} < 0)"
        )
    return p_t, -math.sqrt(arg)


def thermal_limit(case: TwoBusCase) -> OperatingPoint:
    """Operating point at ampacity current on the voltage-limit locus."""
    p_t, q_t = thermal_rotated_roots(case)
    return operating_point(RotatedPower(p_t, q_t), case)


def marginal_limit(case: TwoBusCase) -> OperatingPoint:
    """Operating point where marginal losses equal marginal generation.

    The rotated coordinates depend only on the R/X ratio through r/|Z| and
    x/|Z|, which stay well-defined for purely resistive or purely reactive
    lines.
    """
    z = case.z
    z_mag = z.magnitude()
    cos_term = z.r / z_mag  # lambda / hypot(1, lambda)
    sin_term = z.x / z_mag  # 1 / hypot(1, lambda)
    p_t = case.v_plus * (case.v_plus - case.v0 * cos_term)
    q_t = -case.v0 * case.v_plus * sin_term
    return operating_point(RotatedPower(p_t, q_t), case)


def marginal_transfer(case: TwoBusCase) -> float:
    """Closed-form net transferred power at the marginal limit."""
    z_mag = case.z.magnitude()
    return (case.v0**2 / z_mag) * (
        case.v_plus / case.v0 - case.z.r / z_mag
    )


def lambda_prime(v0: float, v_plus: float) -> float:
    """R/X ratio below which the marginal point crosses to the low-voltage branch."""
    denom = 4.0 * v_plus * v_plus - v0 * v0
    if denom <= 0.0:
        raise DomainError("lambda_prime undefined: 4*v_plus^2 <= v0^2")
    return v0 / math.sqrt(denom)


def binding_limit(case: TwoBusCase) -> LimitReport:
    """Both limit points and which of the two binds (smaller generated power).

    A current limit too generous to intersect the voltage-limit locus leaves
    no thermal point; the marginal limit then binds by default.
    """
    lam_prime = lambda_prime(case.v0, case.v_plus)
    thermal_error = None
    try:
        thermal = thermal_limit(case)
    except ThermalLimitError as exc:
        thermal = None
        thermal_error = str(exc)
    marginal = marginal_limit(case)
    if thermal is None or marginal.sg.p < thermal.sg.p:
        binding = Limit.MARGINAL
    else:
        binding = Limit.THERMAL
    return LimitReport(
        thermal=thermal,
        marginal=marginal,
        binding=binding,
        lambda_prime=lam_prime,
        thermal_error=thermal_error,
    )

