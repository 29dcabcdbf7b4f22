"""Reference computations the benchmark checks feederlimits against.

Everything here is written from the paper's formulas and from a feeder's
branch list alone. Nothing imports feederlimits, so a fault in the package
cannot hide in its own check.

Each ``check_*`` function returns ``None`` when the result is right and a
one-line description of the first mismatch otherwise. ``selftest.py`` feeds
every check a perturbed result and requires a mismatch.
"""

from __future__ import annotations

import math
from collections import deque

# A closed-form point must satisfy its defining equations to this accuracy.
CLOSED_FORM_TOL = 1e-9
# The Thevenin impedance of a radial feeder is a plain sum of series impedances.
PATH_SUM_TOL = 1e-12
# The BFS oracle stops when the voltage update drops below 1e-10 per
# iteration; its answers agree with the two-bus quadratic to this accuracy.
ORACLE_TOL = 1e-8
# Slack the sweep grants a point sitting on a limit (sweep._LIMIT_SLACK).
LIMIT_SLACK = 1e-9


def marginal_transfer(v0: float, r: float, x: float, v_plus: float) -> float:
    """P0 = (V0²/|Z|)(V+/V0 − R/|Z|): real power reaching the source bus at
    the marginal loss-induced limit."""
    z = math.hypot(r, x)
    return (v0 * v0 / z) * (v_plus / v0 - r / z)


def lambda_prime(v0: float, v_plus: float) -> float:
    """R/X ratio below which the marginal point lies on the low-voltage root."""
    return v0 / math.sqrt(4.0 * v_plus * v_plus - v0 * v0)


def marginal_point(v0: float, r: float, x: float, v_plus: float) -> complex:
    """Generated power Sg at the marginal limit.

    With Vg = V+·e^{jδ} and I = (Vg − V0)/Z, the power reaching the source
    is P0(δ) = V0[(V+cos δ − V0)R + V+ sin δ·X]/|Z|², largest where
    tan δ = X/R; there Sg = Vg·I*.
    """
    delta = math.atan2(x, r)
    vg = v_plus * complex(math.cos(delta), math.sin(delta))
    current = (vg - v0) / complex(r, x)
    return vg * current.conjugate()


def thermal_point(v0: float, r: float, x: float, v_plus: float, i_plus: float):
    """Generated power Sg where |Vg| = V+ and |I| = I+, or None.

    |V+·e^{jδ} − V0| = I+|Z| gives cos δ = (V+² + V0² − I+²|Z|²)/(2V+V0);
    the limit takes δ > 0 (reactive power absorbed by the generator).
    """
    if not math.isfinite(i_plus):
        return None
    z = complex(r, x)
    c = (v_plus * v_plus + v0 * v0 - (i_plus * abs(z)) ** 2) / (2.0 * v_plus * v0)
    if abs(c) > 1.0:
        return None
    delta = math.acos(c)
    vg = v_plus * complex(c, math.sin(delta))
    return vg * ((vg - v0) / z).conjugate()


def two_bus_roots(p: float, q: float, r: float, x: float, v0: float):
    """Both roots (|Vg|², rotated losses) of the two-bus power flow.

    With S̃ = (P + jQ)(R − jX), the squared generator voltage solves
    |Vg|⁴ − (V0² + 2P̃)|Vg|² + |S̃|² = 0 and the rotated losses are
    V0² + 2P̃ − |Vg|² = |I|²|Z|². Returns ``[]`` when no solution exists,
    otherwise [high-voltage root, low-voltage root].
    """
    p_t = p * r + q * x
    q_t = q * r - p * x
    b = v0 * v0 + 2.0 * p_t
    disc = b * b / 4.0 - (p_t * p_t + q_t * q_t)
    if disc < -1e-12:
        return []
    root = math.sqrt(max(disc, 0.0))
    return [(b / 2.0 + root, b / 2.0 - root), (b / 2.0 - root, b / 2.0 + root)]


def transfer(p: float, r: float, x: float, losses_t: float) -> float:
    """Real power reaching the source bus: P minus R·|I|²."""
    return p - r * losses_t / (r * r + x * x)


def locus_root(p, q, r, x, v0, v_plus):
    """The root of the two-bus quadratic whose voltage is closest to V+."""
    roots = two_bus_roots(p, q, r, x, v0)
    if not roots:
        return None
    return min(roots, key=lambda root: abs(math.sqrt(max(root[0], 0.0)) - v_plus))


class Feeder:
    """A radial feeder as a branch list, with its own parent map.

    ``branches`` holds (from, to, r, x, ampacity) tuples; the parent map is a
    breadth-first search from the source over that list.
    """

    def __init__(self, source, v0, branches, loads):
        self.source = source
        self.v0 = v0
        self.branches = list(branches)
        self.loads = dict(loads)
        adjacency = {}
        for k, (a, b, *_rest) in enumerate(self.branches):
            adjacency.setdefault(a, []).append((b, k))
            adjacency.setdefault(b, []).append((a, k))
        self.parent = {source: None}
        queue = deque([source])
        while queue:
            bus = queue.popleft()
            for nbr, k in adjacency.get(bus, ()):
                if nbr not in self.parent:
                    self.parent[nbr] = (bus, k)
                    queue.append(nbr)

    def buses(self):
        return [bus for bus in self.parent if bus != self.source]

    def path(self, bus):
        """Branch tuples on the source → bus path."""
        out = []
        while self.parent[bus] is not None:
            bus, k = self.parent[bus]
            out.append(self.branches[k])
        return out

    def equivalent(self, bus):
        """(R, X, minimum ampacity) of the source → bus path."""
        path = self.path(bus)
        return (
            sum(br[2] for br in path),
            sum(br[3] for br in path),
            min(br[4] for br in path),
        )

    def load_off(self, bus):
        """Total real load at every bus except ``bus``."""
        return sum(p for b, (p, _q) in self.loads.items() if b != bus)

    def _load_currents(self, bus):
        """Largest currents of the loads off ``bus``: |S_L|/0.9 each, for bus
        voltages of at least 0.9 pu."""
        return [math.hypot(p, q) / 0.9 for b, (p, q) in self.loads.items() if b != bus]

    def current_bound(self, bus):
        """Largest current a branch may carry when every branch on the path to
        ``bus`` keeps its ampacity: the path minimum plus the currents of the
        loads off ``bus``, which are all that can differ between branches."""
        return self.equivalent(bus)[2] + sum(self._load_currents(bus))

    def load_allowance(self, bus, v_plus, ampacity):
        """Bound on how far loads at other buses move the transfer of a
        generator at ``bus`` away from its two-bus prediction.

        A load S_L draws |I_L| ≤ |S_L|/0.9 at voltages of 0.9 pu or more. On
        the shared path its current changes the losses by at most
        R(2·I+·|I_L| + |I_L|²), and its voltage drop, at most |Z|·|I_L|,
        shifts the source voltage the generator sees, which moves P0 by at
        most (V0 + V+)/|Z| per volt.
        """
        r = self.equivalent(bus)[0]
        return sum(i_l * (2.0 * r * ampacity + r * i_l + self.v0 + v_plus)
                   for i_l in self._load_currents(bus))

    def to_text(self, title):
        """The feeder in the package's line-oriented feeder-file format."""
        lines = [f"# {title}", "", "[bus]", self.source]
        lines += self.buses()
        lines += ["", "[source]", f"{self.source} {self.v0!r}", "", "[branch]"]
        lines += [f"{a} {b} {r!r} {x!r} {amp!r}" for a, b, r, x, amp in self.branches]
        lines += ["", "[load]"]
        lines += [f"{bus} {p!r} {q!r}" for bus, (p, q) in self.loads.items()]
        return "\n".join(lines) + "\n"


def read_feeder(text: str) -> Feeder:
    """Read the [source], [branch] and [load] sections of a feeder file."""
    section = None
    source = v0 = None
    branches, loads = [], {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").lower()
            continue
        tok = line.split()
        if section == "source":
            source, v0 = tok[0], float(tok[1])
        elif section == "branch":
            branches.append((tok[0], tok[1], float(tok[2]), float(tok[3]), float(tok[4])))
        elif section == "load":
            loads[tok[0]] = (float(tok[1]), float(tok[2]))
    return Feeder(source, v0, branches, loads)


def _close(a, b, tol):
    return abs(a - b) <= tol


def check_marginal(v0, r, x, v_plus, pg, qg, p0):
    """The marginal point lies on |Vg| = V+ and delivers the closed-form P0."""
    root = locus_root(pg, qg, r, x, v0, v_plus)
    if root is None:
        return f"marginal point ({pg}, {qg}) has no power flow solution"
    vg = math.sqrt(max(root[0], 0.0))
    if not _close(vg, v_plus, CLOSED_FORM_TOL):
        return f"marginal |Vg| {vg!r} is not V+ {v_plus!r}"
    want = marginal_transfer(v0, r, x, v_plus)
    if not _close(transfer(pg, r, x, root[1]), want, CLOSED_FORM_TOL):
        return f"marginal point transfers {transfer(pg, r, x, root[1])!r}, formula {want!r}"
    if not _close(p0, want, CLOSED_FORM_TOL):
        return f"reported marginal P0 {p0!r}, formula {want!r}"
    # P0 and |Vg| are stationary along P at this point, so pin its location too
    sg = marginal_point(v0, r, x, v_plus)
    if abs(complex(pg, qg) - sg) > CLOSED_FORM_TOL * max(1.0, abs(sg)):
        return f"marginal point ({pg!r}, {qg!r}), phasor solution {sg!r}"
    return None


def check_thermal(v0, r, x, v_plus, i_plus, pg, qg, current):
    """The thermal point sits on |Vg| = V+ and carries the ampacity current."""
    root = locus_root(pg, qg, r, x, v0, v_plus)
    if root is None:
        return f"thermal point ({pg}, {qg}) has no power flow solution"
    vg = math.sqrt(max(root[0], 0.0))
    if not _close(vg, v_plus, CLOSED_FORM_TOL):
        return f"thermal |Vg| {vg!r} is not V+ {v_plus!r}"
    amps = math.sqrt(max(root[1], 0.0)) / math.hypot(r, x)
    if not _close(amps, i_plus, CLOSED_FORM_TOL) or not _close(current, i_plus, CLOSED_FORM_TOL):
        return f"thermal current {amps!r} (reported {current!r}) is not the ampacity {i_plus!r}"
    sg = thermal_point(v0, r, x, v_plus, i_plus)
    if sg is None or abs(complex(pg, qg) - sg) > CLOSED_FORM_TOL * max(1.0, abs(sg)):
        return f"thermal point ({pg!r}, {qg!r}), phasor solution {sg!r}"
    return None


def check_binding(binding, pg_marginal, pg_thermal):
    """``binding`` names the limit with the smaller generated power."""
    if pg_thermal is None or pg_marginal < pg_thermal:
        want = "marginal"
    else:
        want = "thermal"
    if binding != want:
        return f"binding is {binding!r}, the smaller generation is {want!r}"
    return None


def check_equivalent(want, v0_want, r, x, i_plus, v0):
    """A two-bus equivalent matches the path sum and the path's ampacity."""
    r_want, x_want, amp_want = want
    if not _close(r, r_want, PATH_SUM_TOL) or not _close(x, x_want, PATH_SUM_TOL):
        return f"equivalent Z = {r!r} + j{x!r}, path sum {r_want!r} + j{x_want!r}"
    if i_plus != amp_want:
        return f"equivalent ampacity {i_plus!r}, path minimum {amp_want!r}"
    if v0 != v0_want:
        return f"equivalent V0 {v0!r}, source {v0_want!r}"
    return None


def check_frontier_limits(points, v_plus, ampacity):
    """Every frontier point keeps |Vg| ≤ V+ and the current ≤ ampacity.

    ``points`` holds (p_gen, q_gen, p0_sub, max_current, vg) tuples.
    """
    for p, q, _p0, current, vg in points:
        if vg > v_plus + LIMIT_SLACK:
            return f"frontier point ({p}, {q}) has |Vg| {vg!r} > V+ {v_plus!r}"
        if current > ampacity + LIMIT_SLACK:
            return f"frontier point ({p}, {q}) carries {current!r} > ampacity {ampacity!r}"
    return None


def check_frontier_two_bus(points, r, x, v0):
    """Single-branch frontier points solve the two-bus quadratic (high root)."""
    z = math.hypot(r, x)
    for p, q, p0, current, vg in points:
        roots = two_bus_roots(p, q, r, x, v0)
        if not roots:
            return f"frontier point ({p}, {q}) has no two-bus solution"
        vg_sq, losses_t = roots[0]
        if not _close(vg * vg, vg_sq, ORACLE_TOL):
            return f"frontier ({p}, {q}): |Vg|² {vg * vg!r}, quadratic {vg_sq!r}"
        if not _close(p0, transfer(p, r, x, losses_t), ORACLE_TOL):
            return f"frontier ({p}, {q}): P0 {p0!r}, quadratic {transfer(p, r, x, losses_t)!r}"
        if not _close(current, math.sqrt(max(losses_t, 0.0)) / z, ORACLE_TOL):
            return f"frontier ({p}, {q}): current {current!r}, quadratic {math.sqrt(losses_t) / z!r}"
    return None


def grid_tolerance(v0, r, x, v_plus, h_p, h_q):
    """Largest shortfall of a (P, Q) grid's best transfer below the marginal P0.

    The cell of the grid that holds the maximum has a corner on the feasible
    side of the |Vg| = V+ boundary, within h_P in P and h_Q in Q of the
    maximum. The shortfall is at most the largest drop of P0 over the
    points of that box that keep |Vg| ≤ V+, taken here on a 41 x 41 sample
    of the high-voltage root (README.md).
    """
    samples = 40
    sg = marginal_point(v0, r, x, v_plus)
    best = marginal_transfer(v0, r, x, v_plus)
    worst = best
    for i in range(samples + 1):
        for j in range(samples + 1):
            p = sg.real + h_p * (2.0 * i / samples - 1.0)
            q = sg.imag + h_q * (2.0 * j / samples - 1.0)
            roots = two_bus_roots(p, q, r, x, v0)
            if roots and roots[0][0] <= v_plus * v_plus:
                worst = min(worst, transfer(p, r, x, roots[0][1]))
    return best - worst


def check_measured_marginal(predicted, measured, tol, allowance=0.0):
    """The best transfer on the grid lies within ``tol`` below the prediction.

    No feasible grid point can beat the true maximum (beyond the limit slack
    and solver accuracy), and the grid point nearest the maximum is at most
    one cell away; README.md derives ``tol`` from the grid step. Loads at
    other buses widen the interval by ``allowance`` on both sides
    (Feeder.load_allowance).
    """
    gap = predicted - measured
    lo, hi = -ORACLE_TOL - allowance, tol + allowance
    if not lo <= gap <= hi:
        return f"measured P0 {measured!r} vs predicted {predicted!r}: gap {gap:+.4g} outside [{lo:.4g}, {hi:.4g}]"
    return None
