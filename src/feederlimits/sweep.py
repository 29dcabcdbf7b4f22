"""Brute-force (P, Q) grid oracle for measuring transfer limits on a feeder.

For every real power on a grid, the reactive powers are tried in order of a
circuit-law upper bound on the transfer they could reach; points violating
a voltage, ampacity or substation limit (or failing to converge) are
discarded, and the reactive power maximising the transferred real power is
kept.  A column's scan stops once no point left can beat the best one found,
and a point the bounds prove over its ampacity or over the voltage cap is
never solved, so the kept points are those of a full scan, bit for bit.
The resulting frontier yields measured marginal and thermal limits that the
closed-form predictions are scored against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, NoFeasiblePointError, VoltageLimitError
from .feeder import _TOL, FeederModel, solve_feeder, two_bus_equivalent
from .limits import OperatingPoint, TwoBusCase, binding_limit, locus_estimate
from .twobus import ComplexPower

# feasibility slack so points sitting exactly on a limit survive rounding
_LIMIT_SLACK = 1e-9
# at most one power flow per point; 31x the 401 x 801 acceptance grid
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
        _check_limits(self.v_plus, self.p_plus)
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


def _check_limits(v_plus: float, p_plus: float | None) -> None:
    # written so that NaN fails the check
    if not v_plus > 0.0:
        raise DomainError(f"voltage limit must be positive: {v_plus!r}")
    if p_plus is not None and not math.isfinite(p_plus):
        raise DomainError(f"substation power limit must be finite: {p_plus!r}")


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


class _ColumnScan:
    """The column search of a sweep, with what it decides once for all its
    columns: the voltage cap, the ampacity test of each branch, the
    substation limit and the bounds that order and cut each column's scan.
    :meth:`admit` gives a point's verdict, :meth:`best` the scan.

    Let k be the generator bus, c = ``model._cons[k]`` − (p + jq) the
    solver's own consumption at k, and a_b = ``amp[j]`` the ampacity plus
    slack of the branch b feeding bus j; tables are indexed by BFS position,
    as the model's are.  The bounds hold for every state that
    ``solve_feeder(…, v_cap)`` returns and that passes the ampacity test;
    any other point is discarded anyway.  Let x be the iterate before the
    returned one y, so |y_j − x_j| < ``_TOL``, J_j = conj(c_j/x_j) the
    current drawn at bus j, and I_b the sum of the J_j below branch b.  The
    factor e = max(1e-12, 2⁻⁴⁵·n) on the n-bus feeder rounds every bound
    outward: it covers the rounding of the solver's sums and quotients and
    of the bounds' own evaluation.

    * Current at k.  Every |y_j| ≤ v_cap, and |y_k|² ≤ N_up (voltage rise,
      below), so |J_k| ≥ i_min = |c|·(1 − e)/(min(v_cap, √N_up) + 1e-9).
    * Voltage floor.  The forward sweep gives y_j = y_parent − z_b·I_b, and
      the ampacity test keeps |I_b| ≤ a_b, so
      |y_j| ≥ F_j = V0·(1 − e) − Σ_{b on path(j)} |z_b|·a_b·(1 + e), and
      |x_j| > F_j − ``_TOL``.  Every other bus j ≠ k then draws
      |J_j| ≤ |c_j|/(F_j − ``_TOL``)·(1 + e).  D_b sums that over the buses
      j ≠ k below b with nonzero consumption; it is +inf where some
      F_j − ``_TOL`` is not positive, or is NaN (a zero impedance with an
      infinite ampacity), since no floor is proved there.
    * Current on the path.  Each branch b on the source → k path carries
      I_b = J_k + Σ_{j ≠ k below b} J_j, so |I_b| ≥ i_min − D_b.  This
      holds at a leaf, where D_b of k's own branch is 0, and at a junction
      alike.  (a) A point with i_min > a_b + D_b on some path branch fails
      the ampacity test, so it is not solved.  Let i_cut be the least
      a_b + D_b on the path.  As min(v_cap, √N_up) ≤ v_cap, a point with
      |c| > ρ = i_cut·(v_cap + 1e-9)/(1 − e) is cut, and those left have
      |q − Q_k| ≤ √(ρ² − (Re c)²), Q_k being the reactive load at k.  With
      ascending ``q_values`` a column widens that interval by 1e-9
      relative, finds it by bisection and tests only the points inside; a
      NaN or an infinite interval tests them all.
    * Transfer.  The forward sweep gives exactly p0 = −Σ Re c_j
      − Σ_b r_b|I_b|² − Re Σ (y_j − x_j)·conj(J_j).  Here −Σ Re c_j =
      p − P_loads and the losses are at least
      L = Σ_{b on path(k)} r_b·max(0, i_min − D_b)², so p0 ≤ b + m with the
      bound b = p − P_loads − L and the margin
      m = ``_TOL``·A + 1e-14·n²·v_cap·A + 1e-9·(1 + |p| + |P_loads| + L).
      A bounds Σ|J_j| over the buses with nonzero consumption, k included:
      each |J_j| is at most the sum of the currents in the branches at j,
      and a point passing the ampacity test keeps each of them within a_b,
      so A is the sum of those over the branches at each such bus, and
      ``_TOL``·A bounds the last term.  The solver's sums and products hold
      currents within the ampacities and voltages within v_cap, so they
      round p0 by at most about 2n²·2⁻⁵³·v_cap·A, which the second term
      covers; the third covers the rounding of b and of the bound's own
      evaluation.  An infinite ampacity among those in A makes m infinite,
      which turns rule (b) off but not rule (a).
    * Scan.  b + m falls as i_min grows, so a column is scanned by
      ascending i_min, ties in grid order.  (b) Once b + m is below the
      best p0 found, no point left can beat it, nor even tie it.
    * Voltage rise (DistFlow; Baran & Wu, IEEE Trans. Power Del. 1989).
      For the branch b feeding j from i, exactly
      |y_j|² = |y_i|² − 2·Re(z̄_b·y_i·conj I_b) + |z_b|²·|I_b|², and
      y_i·conj I_b = C_j + Σ_{b′ at or below b} z_b′·|I_b′|²
      + Σ_{m below b} conj(J_m)·(y_m − x_m), where
      C_j = Σ_{m at or below j} c_m = L_j − (p + jq) on the path, L_j being
      the load at or below j.  Summed over the path, |y_k|² is
      V0² + 2·(p·R + q·X) − 2·Σ_{b on path} Re(z̄_b·L_b), with R and X the
      path sums of r and x, less the loss terms 2·Re(z̄_b·z_b′)·|I_b′|² of
      the branches b′ below b, less |z_b|²·|I_b|² for b′ = b (the identity's
      +|z_b|²·|I_b|² cancels half of that term), and less mismatch terms of
      at most 2·Z_p·``_TOL``·A in all, Z_p being the path sum of |z|.
      ``Impedance`` keeps r, x ≥ 0, so each Re(z̄_b·z_b′) = r_b·r_b′ +
      x_b·x_b′ lies in [0, |z_b|·|z_b′|].  Hence N − Loss ≤ |y_k|² ≤ N_up,
      where N and N_up are the sum without its loss and mismatch terms,
      with 2·Z_p·``_TOL``·A and the margins below subtracted and added, and,
      for any Ī_b′ ≥ |I_b′|,
      Loss = Σ_{b on path} |z_b|·(|z_b|·Ī_b² + 2·Σ_{b′ below b} |z_b′|·Ī_b′²).
      Off the path Ī = min(a, D).  On it, Ī = a gives a constant Λ_a, and
      Ī = i + D with i = |c|(1 + e)/(v − ``_TOL``) ≥ |J_k|, v = |y_k|,
      gives a quadratic in i with nonnegative coefficients, so
      φ(v) = v² + Loss is convex in v.  Every such state thus has φ(v) ≥ N
      and v² + Λ_a ≥ N; below v1 = √(N − Λ_a), v² + Λ_a < N.  Its v is at
      least F_k, and, since |J_k| ≤ i_cut, also |x_k| − ``_TOL`` ≥
      |c|/i_cut − ``_TOL``, which shuts out a low root whose current the
      ampacities cannot carry.  (c) A point with N > v_cap² is not solved
      when [lo, v_cap] is empty, lo being the largest of F_k, v1 and
      |c|·(1 − e)/i_cut − ``_TOL``, or when φ < N at both of its ends.
      The solver's arithmetic keeps voltages within v_cap and currents
      within A, so it moves |y_k|² by less than
      e·(v_cap + Z·A)·(v_cap + 2·Z_p·A)/8, Z being the sum of all |z_b|; N
      subtracts that margin without the 1/8, and e·V0²,
      2e·(|p| + |q|)·Z_p and 2e·Σ|z_b|·|L_b| for its own rounding, N_up
      adds them all, and the factors 1 ± e round v1, Λ_a and φ outward.  An
      infinite ampacity in A or on the path makes N, N_up or Λ_a infinite,
      which turns rule (c) and the N_up bound off, and so does an infinite
      cap.

    Without a finite cap, i_min = 0·|c| (NaN once |c| overflows), ρ and m
    are infinite and N is not finite, so no point is cut.
    """

    def __init__(self, model: FeederModel, bus: str, v_plus: float, p_plus: float | None):
        _check_limits(v_plus, p_plus)
        k = model._pos.get(bus)
        if not k:
            raise DomainError(f"injection at unknown or source bus {bus!r}")
        self.model, self.bus = model, bus
        self.p_cap = math.inf if p_plus is None else p_plus + _LIMIT_SLACK
        self.v_cap = v_cap = v_plus + _LIMIT_SLACK
        n = len(model.buses)
        e = max(1e-12, n * 2.0**-45)
        self.amp = amp = [0.0, *(br.ampacity + _LIMIT_SLACK for br in model._in_branch[1:])]
        # per bus: Σ a_b at it, the drop Σ|z_b|·a_b down to it, and the sum
        # of the other buses' |J_j| bounds at or below it
        at_bus, drop, below = [0.0] * n, [0.0] * n, [0.0] * n
        for j, parent, _ in model._forward:
            at_bus[parent] += amp[j]
            at_bus[j] += amp[j]
            drop[j] = drop[parent] + model._z_abs[j] * amp[j]
            c = abs(model._cons[j])
            if c and j != k:
                lo = model.v0 * (1.0 - e) - drop[j] * (1.0 + e) - _TOL
                # written so that NaN gives no bound
                below[j] = c / lo * (1.0 + e) if lo > 0.0 else math.inf
        # the load at or below each bus
        sub_load = list(model._cons)
        for j, parent in model._backward:
            below[parent] += below[j]
            sub_load[parent] += sub_load[j]
        # (bus, D_b, r_b) of each branch from k's own up to the source's
        self.path = []
        j = k
        while j:
            r = model._in_branch[j].z.r * (1.0 - 1e-9)
            self.path.append((j, below[j], r))
            j = model._parent[j]
        self.i_cut = min(amp[j] + d for j, d, _ in self.path)
        self.cons = model._cons[k]
        self.e = e
        # ρ of rule (a), widened by 1e-9 relative
        self.reach = self.i_cut * (v_cap + 1e-9) / (1.0 - e) * (1.0 + 1e-9)
        drawn = sum(a for j, a in enumerate(at_bus) if j == k or model._cons[j])
        p_loads = model.total_load().p
        # b + m = p + 1e-9·|p| + offset − L·(1 − 1e-9)
        self.offset = (
            drawn * (_TOL + 1e-14 * n * n * v_cap) + 1e-9 * (1.0 + abs(p_loads)) - p_loads
        )
        # rule (c): Σ|z_b| over the path branches at or above each bus
        on_path = {j for j, _, _ in self.path}
        z_abs, path_z = model._z_abs, [0.0] * n
        for j, parent, _ in model._forward:
            path_z[j] = path_z[parent] + (z_abs[j] if j in on_path else 0.0)
        r_sum = x_sum = s_load = s_abs = 0.0
        for j, _, _ in self.path:
            z = model._in_branch[j].z
            r_sum += z.r
            x_sum += z.x
            s_load += z.r * sub_load[j].real + z.x * sub_load[j].imag
            s_abs += z_abs[j] * abs(sub_load[j])
        # Loss/2 = Σ_b w_b·Ī_b² with w_b = |z_b|·path_z, less |z_b|²/2 on the
        # path: lam_a with Ī_b = a_b on the path, q0 + q1·i + q2·i² with
        # Ī_b = i + D_b there
        lam_a = q0 = q1 = q2 = 0.0
        for j in range(1, n):
            w = z_abs[j] * path_z[j]
            if not w:  # keeps 0·inf out
                continue
            if j in on_path:
                w -= 0.5 * z_abs[j] * z_abs[j]
                d = below[j]
                lam_a += w * (amp[j] * amp[j])
                q0 += w * (d * d)
                q1 += 2.0 * w * d
                q2 += w
            else:
                i_bar = min(amp[j], below[j])
                lam_a += w * (i_bar * i_bar)
                q0 += w * (i_bar * i_bar)
        z_p = path_z[k]
        rounding = e * (v_cap + sum(z_abs) * drawn) * (v_cap + 2.0 * z_p * drawn)
        v0_sq = model.v0 * model.v0
        margin = e * s_abs + z_p * _TOL * drawn
        # N(p, q) = n0 + 2·(p·R + q·X) − 2e·(|p| + |q|)·Z_p: n0 and the three
        # coefficients; then Λ_a and F_k
        self.rise = (
            v0_sq * (1.0 - e) - 2.0 * (s_load + margin) - rounding, 2.0 * r_sum, 2.0 * x_sum,
            2.0 * e * z_p, 2.0 * lam_a * (1.0 + e), model.v0 * (1.0 - e) - drop[k] * (1.0 + e),
        )
        # Loss = loss[0] + loss[1]·i + loss[2]·i²
        self.loss = (2.0 * q0, 2.0 * q1, 2.0 * q2)
        # N_up(p, q) = up0 + 2·(p·R + q·X) + 2e·(|p| + |q|)·Z_p, likewise
        self.ceiling = (
            v0_sq * (1.0 + e) - 2.0 * (s_load - margin) + rounding, 2.0 * r_sum, 2.0 * x_sum,
            2.0 * e * z_p,
        )

    def column(self, p: float, q_values, ascending: bool = False) -> list[tuple[float, int, float]]:
        """(i_min, grid index, q) of each point rule (a) keeps, in scan order.
        ``ascending`` says that ``q_values`` is sorted, so that only the
        interval of q that rule (a) can keep is tested point by point."""
        # c = cons − (p + jq), part by part as complex subtraction does it
        c_re, c_im = self.cons.real - p, self.cons.imag
        first, last = 0, len(q_values)
        if ascending:
            # rule (a) at the cap keeps only |q − c_im| ≤ √(ρ² − c_re²)
            span = self.reach * self.reach - c_re * c_re
            if span < 0.0:
                return []
            span = math.sqrt(span)
            # widened for the rounding of c_im ± span
            span += 1e-9 * (span + abs(c_im))
            # written so that NaN and an infinite interval fall back to them all
            if span < math.inf:
                first = bisect.bisect_left(q_values, c_im - span)
                last = bisect.bisect_right(q_values, c_im + span, first)
        up0, r2, x2, m2 = self.ceiling
        up_p = up0 + p * r2 + abs(p) * m2
        v_cap, i_cut = self.v_cap, self.i_cut
        v_cap_sq, shrink = v_cap * v_cap, 1.0 - self.e
        kept = []
        for at in range(first, last):
            q = q_values[at]
            # min(v_cap, √N_up), written so that NaN gives v_cap
            v_top = up_p + q * x2 + abs(q) * m2
            v_top = math.sqrt(max(v_top, 0.0)) if v_top < v_cap_sq else v_cap
            i_min = math.hypot(c_re, c_im - q) * shrink / (v_top + 1e-9)
            # written so that NaN keeps the point
            if not i_min > i_cut:
                kept.append((i_min, at, q))
        kept.sort()
        return kept

    def transfer_bound(self, p: float, i_min: float) -> float:
        """b + m of the class docstring: no feasible point transfers more."""
        top = p + 1e-9 * abs(p) + self.offset
        if top == math.inf:
            return top
        # D_b grows towards the source, so the first D_b ≥ i_min ends the losses
        for _, d, r in self.path:
            if not i_min > d:
                break
            t = i_min - d
            top -= r * t * t
        return top

    def rise_floor(self, p: float, q: float) -> tuple[float, float, float]:
        """N, lo and |c|·(1 + e) of rule (c) at generation p + jq: every state
        the capped solver could return there, and that passes the ampacity
        test, has φ(|y_k|) ≥ N and |y_k| ≥ lo."""
        n0, r2, x2, m2, lam_a, floor = self.rise
        e = self.e
        big_n = n0 + (p * r2 + q * x2) - (abs(p) + abs(q)) * m2
        # v² + Λ_a < N for v below v1
        gap = big_n - lam_a
        lo = math.sqrt(gap) * (1.0 - e) if gap > 0.0 else 0.0
        if floor > lo:
            lo = floor
        # a state within the ampacities has |J_k| ≤ i_cut, so |x_k| ≥ |c|/i_cut
        size = math.hypot(self.cons.real - p, self.cons.imag - q)
        at_amp = size * (1.0 - e) / self.i_cut - _TOL
        if at_amp > lo:
            lo = at_amp
        return big_n, lo, size * (1.0 + e)

    def phi(self, v: float, c: float) -> float:
        """φ(v) of rule (c), rounded up, where c = |c|·(1 + e)."""
        q0, q1, q2 = self.loss
        i = c / (v - _TOL)
        return (v * v + q0 + i * (q1 + i * q2)) * (1.0 + self.e)

    def over_cap(self, p: float, q: float) -> bool:
        """Rule (c) of the class docstring: True when every state the capped
        solver could return at p + jq, and that passes the ampacity test,
        has |y_k| > v_cap."""
        big_n, lo, c = self.rise_floor(p, q)
        v_cap = self.v_cap
        # φ(v_cap) ≥ v_cap², so no cut unless N exceeds it; an overflow to
        # +inf would round N up, and NaN keeps the point too
        if not v_cap * v_cap < big_n < math.inf:
            return False
        if lo >= v_cap:
            return True
        if not lo > _TOL:
            return False
        # φ is convex, so it stays below N on [lo, v_cap] if it does at both ends
        return self.phi(lo, c) < big_n and self.phi(v_cap, c) < big_n

    def admit(self, p: float, q: float) -> FrontierPoint | None:
        """The point at generation p + jq as solved, or None when rule (c)
        proves it over the voltage cap, or it fails to converge or breaks the
        voltage cap, an ampacity or the substation limit."""
        if self.over_cap(p, q):
            return None
        try:
            # the solver rejects every state with some |V| over the cap
            res = solve_feeder(self.model, {self.bus: ComplexPower(p, q)}, v_cap=self.v_cap)
        except (ConvergenceError, VoltageLimitError):
            return None
        currents, p0 = res.branch_currents, res.s0_sub.p
        limits = zip(self.model._branch_keys, self.amp[1:])
        if any(currents[key] > a for key, a in limits) or p0 > self.p_cap:
            return None
        return FrontierPoint(p, q, p0, max(currents.values()), abs(res.voltages[self.bus]))

    def best(self, p: float, q_values, ascending: bool = False) -> FrontierPoint | None:
        """Feasible point of the column at generation ``p`` with maximum
        transferred power, or None when no grid point is feasible.

        Points rank by (p0, −|q|, −grid index), compared strictly: larger
        transfer wins, exact ties go to the reactive power of smaller
        magnitude, then to the lower grid index, as in a scan of
        ``q_values`` in order.  ``ascending`` is as for :meth:`column`.
        """
        best = best_rank = None
        for i_min, at, q in self.column(p, q_values, ascending):
            if best is not None and self.transfer_bound(p, i_min) < best.p0_sub:
                break
            pt = self.admit(p, q)
            if pt is None:
                continue
            rank = (pt.p0_sub, -abs(q), -at)
            if best is None or rank > best_rank:
                best, best_rank = pt, rank
        return best


def best_reactive_point(model, bus, p, q_values, v_plus, p_plus):
    """Feasible point with maximum transferred power at generation ``p``, or
    None: one column of :func:`run_sweep`, as :meth:`_ColumnScan.best` finds it."""
    ascending = all(a <= b for a, b in zip(q_values, q_values[1:]))
    return _ColumnScan(model, bus, v_plus, p_plus).best(p, q_values, ascending)


def run_sweep(model: FeederModel, bus: str, config: SweepConfig) -> SweepReport:
    """Sweep the grid, extract measured limits and score the predictions.

    The two-bus equivalent comes first, so a bad bus fails before any
    power flow runs.
    """
    case, s_load = two_bus_equivalent(model, bus, v_plus=config.v_plus)
    q_values = config.q_values()
    scan = _ColumnScan(model, bus, config.v_plus, config.p_plus)
    # lo + k·step rounds monotonically, so the grid is ascending
    columns = (scan.best(p, q_values, True) for p in config.p_values())
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
