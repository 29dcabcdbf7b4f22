"""Closed-form power flow for the single-line, two-bus circuit.

A generator feeds a fixed-voltage reference bus through a series impedance
``Z = R + jX``.  After rotating apparent powers by ``Z*`` the circuit has a
closed-form solution in squared voltage and losses with two branches: the
familiar high-voltage/low-loss operating point and its low-voltage/high-loss
companion.  Everything here is per-unit and purely functional.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateImpedanceError, DomainError, NoSolutionError

# Discriminants in [-DISCRIMINANT_SLACK, 0) are treated as exactly zero so
# that points sitting on the solution boundary survive rounding.
DISCRIMINANT_SLACK = 1e-12


@dataclass(frozen=True)
class Impedance:
    """Series line impedance R + jX, both components non-negative, per-unit."""

    r: float
    x: float

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not (self.r >= 0.0 and self.x >= 0.0):
            raise DomainError(f"impedance components must be non-negative numbers: {self}")

    def magnitude(self) -> float:
        return math.hypot(self.r, self.x)

    def lam(self) -> float:
        """R/X ratio; +inf for a purely resistive line (x = 0)."""
        if self.x == 0.0:
            return math.inf
        return self.r / self.x

    def as_complex(self) -> complex:
        return complex(self.r, self.x)


@dataclass(frozen=True)
class ComplexPower:
    """Real/reactive power pair, per-unit."""

    p: float
    q: float

    def magnitude(self) -> float:
        return math.hypot(self.p, self.q)

    def power_factor(self) -> float:
        """|p| over apparent power; 1.0 by convention at zero apparent power."""
        s = self.magnitude()
        if s == 0.0:
            return 1.0
        return abs(self.p) / s

    def as_complex(self) -> complex:
        return complex(self.p, self.q)

    def __add__(self, other: "ComplexPower") -> "ComplexPower":
        return ComplexPower(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "ComplexPower") -> "ComplexPower":
        return ComplexPower(self.p - other.p, self.q - other.q)


@dataclass(frozen=True)
class RotatedPower:
    """Apparent power after multiplication by Z* (units of volt squared)."""

    p_t: float
    q_t: float


class Branch(enum.Enum):
    """Which root of the two-bus quadratic to take."""

    HIGH_VOLTAGE = "high_voltage"
    LOW_VOLTAGE = "low_voltage"


@dataclass(frozen=True)
class TwoBusSolution:
    """One root of the two-bus power flow: squared voltage and rotated losses."""

    vg_sq: float
    losses_t: float
    branch: Branch


def _require_line(z: Impedance):
    if z.magnitude() == 0.0:
        raise DegenerateImpedanceError("impedance magnitude must be positive")


def rotate(s: ComplexPower, z: Impedance) -> RotatedPower:
    """Map S to S·Z*, the coordinate change that normalises the line."""
    _require_line(z)
    return RotatedPower(s.p * z.r + s.q * z.x, s.q * z.r - s.p * z.x)


def unrotate(s_t: RotatedPower, z: Impedance) -> ComplexPower:
    """Inverse of :func:`rotate`: divide by Z*."""
    _require_line(z)
    z_sq = z.r * z.r + z.x * z.x
    return ComplexPower(
        (s_t.p_t * z.r - s_t.q_t * z.x) / z_sq,
        (s_t.q_t * z.r + s_t.p_t * z.x) / z_sq,
    )


def discriminant(sg_t: RotatedPower, v0: float) -> float:
    """V0^4/4 + V0^2·P̃g − Q̃g², negative when no solution exists."""
    return v0**4 / 4.0 + v0 * v0 * sg_t.p_t - sg_t.q_t * sg_t.q_t


def feasible(sg_t: RotatedPower, v0: float) -> bool:
    """Whether the rotated generator injection admits a power flow solution."""
    return discriminant(sg_t, v0) >= -DISCRIMINANT_SLACK


def solve(sg_t: RotatedPower, v0: float, branch: Branch) -> TwoBusSolution:
    """Solve the two-bus power flow for a rotated generator injection.

    Returns the squared generator-bus voltage and the rotated loss scalar for
    the requested branch.  Raises :class:`NoSolutionError` when the
    discriminant is negative beyond rounding slack.
    """
    if v0 <= 0.0:
        raise ValueError("reference voltage must be positive")
    disc = discriminant(sg_t, v0)
    if disc < -DISCRIMINANT_SLACK:
        raise NoSolutionError(
            f"no power flow solution: discriminant {disc:.3e} < 0"
        )
    root = math.sqrt(max(disc, 0.0))
    base = sg_t.p_t + v0 * v0 / 2.0
    if branch is Branch.HIGH_VOLTAGE:
        vg_sq, losses_t = base + root, base - root
    else:
        vg_sq, losses_t = base - root, base + root
    return TwoBusSolution(vg_sq=vg_sq, losses_t=losses_t, branch=branch)


def net_power_transferred(
    sg: ComplexPower, z: Impedance, vg_sq: float, v0: float
) -> float:
    """Real power arriving at the reference bus, Pg minus resistive losses.

    ``vg_sq`` must be the squared voltage solving the circuit for ``sg``;
    the rotated loss scalar is then V0² + 2·P̃g − |Vg|².
    """
    _require_line(z)
    p_t = sg.p * z.r + sg.q * z.x
    z_sq = z.r * z.r + z.x * z.x
    return sg.p - (z.r / z_sq) * (v0 * v0 + 2.0 * p_t - vg_sq)


def upf_limit_power(pg: float, vg_sq: float, v0: float, z_mag: float) -> float:
    """Transferred power in the fully-resistive limit (R/X → ∞)."""
    if z_mag <= 0.0:
        raise DegenerateImpedanceError("impedance magnitude must be positive")
    return -pg + (v0 * v0 + vg_sq) / z_mag


def upf_limit_generation(z: Impedance, v0: float, v_plus: float) -> float:
    """Generated power where unity-power-factor operation first hits V+.

    NaN when no unity-power-factor generation lifts the voltage to V+,
    which happens on near-reactive lines.
    """
    _require_line(z)
    z_sq = z.r * z.r + z.x * z.x
    w = v_plus * v_plus
    disc = z.r * z.r * w * w + z_sq * w * (v0 * v0 - w)
    if disc < 0.0:
        return math.nan
    return (z.r * w - math.sqrt(disc)) / z_sq


def boundary_generation(z: Impedance, v0: float, v_plus: float) -> float:
    """Generated power on the solution boundary (zero discriminant) at |Vg| = V+.

    NaN when the boundary never reaches V+, i.e. V+ < V0/2.
    """
    arg = v_plus * v_plus - v0 * v0 / 4.0
    if arg < 0.0:
        return math.nan
    p_t = v_plus * v_plus - v0 * v0 / 2.0
    q_t = -v0 * math.sqrt(arg)
    return unrotate(RotatedPower(p_t, q_t), z).p


def boundary_power(z: Impedance, v0: float, vg: float) -> float:
    """Transferred power on the solution boundary (zero discriminant).

    The reactive term requires vg²/v0² ≥ 1/4; below that the boundary does
    not reach the requested voltage (unless x = 0, which kills the term).
    """
    _require_line(z)
    z_mag = z.magnitude()
    arg = vg * vg / (v0 * v0) - 0.25
    if arg < 0.0:
        if z.x > 0.0:
            raise DomainError(
                "boundary power undefined: vg^2/v0^2 < 1/4 with reactive line"
            )
        arg = 0.0
    return (v0 * v0 / z_mag) * (
        -z.r / (2.0 * z_mag) + (z.x / z_mag) * math.sqrt(arg)
    )
