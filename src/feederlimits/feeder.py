"""Balanced single-phase-equivalent radial feeder model and solver.

The model is a tree of series impedances rooted at a fixed-voltage source
bus, with constant-power loads and generator injections at buses.  The solver
is a backward/forward sweep.  With no shunt elements, the Thevenin impedance
that collapses the feeder into a two-bus case is the series sum of the branch
impedances on the source → bus path.
"""

from __future__ import annotations

import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import (ConvergenceError, DomainError, FeederFileError, TopologyError,
                     VoltageLimitError)
from .limits import TwoBusCase
from .twobus import ComplexPower, Impedance

# Voltage magnitudes outside this window mark a diverging sweep early.
_V_BLOWUP = 1.0e3
_V_COLLAPSE = 1.0e-9
# Sweep budget and convergence tolerance on the largest voltage change.
_MAX_ITER = 512
_TOL = 1e-10
# stall factor per 8-sweep window
_STALL = math.sqrt(0.5)


@dataclass(frozen=True)
class BranchSpec:
    from_bus: str
    to_bus: str
    z: Impedance
    ampacity: float

    def __post_init__(self):
        # +inf is allowed and means unbounded
        if not self.ampacity >= 0.0:
            raise DomainError(f"ampacity must be a non-negative number: {self.ampacity!r}")


@dataclass(frozen=True)
class FeederModel:
    """Radial feeder: buses, series branches, constant-power loads, one source.

    All electrical quantities are per-unit.  ``loads`` is stored as a
    read-only copy, so the validated model cannot change afterwards.  The
    solver's tables are plain attributes that ``__post_init__`` sets, not
    fields, so they stay out of ``__init__``, equality and ``repr``.  A
    pickled or deep-copied model is rebuilt from its five inputs.
    """

    buses: tuple[str, ...]
    branches: tuple[BranchSpec, ...]
    loads: Mapping[str, ComplexPower] = field(hash=False)
    source: str
    v0: float

    def __post_init__(self):
        object.__setattr__(self, "loads", types.MappingProxyType(dict(self.loads)))
        if not 0.0 < self.v0 < math.inf:
            raise DomainError(f"source voltage must be positive and finite: {self.v0!r}")
        if self.source not in self.buses:
            raise TopologyError(f"source bus {self.source!r} is not a bus")
        if len(set(self.buses)) != len(self.buses):
            raise TopologyError("duplicate bus ids")
        for br in self.branches:
            if br.from_bus not in self.buses or br.to_bus not in self.buses:
                raise TopologyError(f"branch {br.from_bus}-{br.to_bus} references unknown bus")
        for bus, s in self.loads.items():
            if bus not in self.buses:
                raise TopologyError(f"load at unknown bus {bus!r}")
            # the source voltage is fixed, so the power flow would drop it
            if bus == self.source:
                raise TopologyError(f"load at source bus {bus!r}")
            if not (math.isfinite(s.p) and math.isfinite(s.q)):
                raise DomainError(f"load at bus {bus!r} must be finite: {s}")
        order, parent, in_branch = self._bfs()
        k_parent = tuple(enumerate(parent))[1:]
        # Solver tables; index k is the k-th bus in BFS order from the source (k = 0).
        tables = {
            # index of each bus; its key order is the BFS order
            "_pos": {bus: k for k, bus in enumerate(order)},
            "_parent": parent,
            # the branch feeding bus k (None at the source)
            "_in_branch": in_branch,
            # load per bus as the solver adds it up: 0j plus the load, if any
            "_cons": tuple(
                0j + self.loads[bus].as_complex() if bus in self.loads else 0j for bus in order
            ),
            # (k, parent) in reverse BFS order, for the backward (current) sweep
            "_backward": k_parent[::-1],
            # (k, parent, branch impedance) in BFS order, for the forward (voltage) sweep
            "_forward": tuple((k, p, in_branch[k].z.as_complex()) for k, p in k_parent),
            # (from, to) of the branch feeding bus k, for k = 1, 2, ...
            "_branch_keys": tuple((br.from_bus, br.to_bus) for br in in_branch[1:]),
            # |z| of the branch feeding bus k (0 at the source), for the voltage-cap proof
            "_z_abs": (0.0, *(br.z.magnitude() for br in in_branch[1:])),
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # the read-only loads cannot be pickled; rebuilding from the five
        # inputs revalidates the model and rebuilds its tables
        return (type(self), (self.buses, self.branches, dict(self.loads), self.source, self.v0))

    def _bfs(self):
        adjacency: dict[str, list[tuple[str, BranchSpec]]] = {b: [] for b in self.buses}
        for br in self.branches:
            adjacency[br.from_bus].append((br.to_bus, br))
            adjacency[br.to_bus].append((br.from_bus, br))
        order = [self.source]
        parent = [-1]
        in_branch = [None]
        seen = {self.source}
        head = 0
        while head < len(order):
            bus = order[head]
            for nbr, br in adjacency[bus]:
                if nbr in seen:
                    continue
                seen.add(nbr)
                order.append(nbr)
                parent.append(head)
                in_branch.append(br)
            head += 1
        if len(order) != len(self.buses):
            missing = set(self.buses) - seen
            raise TopologyError(f"buses not connected to source: {sorted(missing)}")
        if len(self.branches) != len(self.buses) - 1:
            raise TopologyError(
                "feeder is not radial: "
                f"{len(self.branches)} branches for {len(self.buses)} buses"
            )
        return tuple(order), tuple(parent), tuple(in_branch)

    def path_to(self, bus: str) -> list[BranchSpec]:
        """Branches on the unique source → bus path, source end first."""
        k = self._pos.get(bus)
        if k is None:
            raise DomainError(f"unknown bus {bus!r}")
        path = []
        while k > 0:
            path.append(self._in_branch[k])
            k = self._parent[k]
        path.reverse()
        return path

    def total_load(self) -> ComplexPower:
        p = sum(s.p for s in self.loads.values())
        q = sum(s.q for s in self.loads.values())
        return ComplexPower(p, q)


@dataclass(frozen=True)
class PowerFlowResult:
    """Bus voltages, (from, to) current magnitudes, power into the source, sweeps."""

    voltages: dict[str, complex]
    branch_currents: dict[tuple[str, str], float]
    s0_sub: ComplexPower
    iterations: int


def solve_feeder(
    model: FeederModel,
    injections: dict[str, ComplexPower] | None = None,
    *,
    v_cap: float = math.inf,
) -> PowerFlowResult:
    """Backward/forward sweep power flow.

    ``injections`` are generator powers (positive into the network) at
    non-source buses; loads come from the model.  Iterates until the
    largest complex voltage change drops below ``_TOL``, raising
    :class:`ConvergenceError` otherwise.  Heavy loading slows the sweep's
    linear convergence, so the iteration cap is generous; a stalling
    voltage change is reported instead of burning the full budget.  It
    stalls when, measured from sweep 1, it fails to fall by a factor 1/√2
    over an 8-sweep window, so most unsolvable injections stop by sweep
    16.  That is the same per-sweep threshold as a factor ¼ over 32 sweeps,
    about 0.958, and slower contraction could not reach the tolerance
    within the budget.

    It returns only a state whose every |V|, the source's included, is at
    most ``v_cap``; any other state raises :class:`VoltageLimitError`, at
    convergence or as soon as it proves that every later iterate has some
    |V_k| > v_cap.  Let y = T(x) be the latest sweep, δ = max_k |y_k − x_k|,
    ρ = δ over the change of the sweep before, c_j the consumption at bus
    j.  Iterates that contract at the rate ρ travel ρδ/(1 − ρ) more; the
    proof's ball radius r = 0.7δ + 2ρδ/(1 − ρ) is twice that travel plus
    most of the step back to x: where ρ matches the bound L below, as on
    one branch, a whole δ overshoots; where ρ runs lower, as on branching
    feeders, half of δ falls short.  On B(y, max(r, δ)), which holds x,
    every |V_j| ≥ m_j = |y_j| − max(r, δ), so the sweep map's max-norm
    Lipschitz constant there is at most
    L = max_k Σ_{b on path(k)} |z_b|·Σ_{j at or below b} |c_j|/m_j².
    If L·(r + δ) + ε ≤ r (ε for rounding), T maps B(y, r) into itself, so
    every later |V_k| ≥ |y_k| − r.  The proof is tried only when
    max_k |y_k| − r > v_cap + 0.3δ, so a proof rejects.  A state it returns
    ran the same arithmetic as an uncapped call.  A cap ≤ 0 or NaN raises
    :class:`DomainError`, and so does a converged state whose branch
    current magnitude overflows.
    """
    # written so that NaN fails the check
    if not v_cap > 0.0:
        raise DomainError(f"voltage cap must be positive: {v_cap!r}")
    # consumption = load - generation, per bus in BFS order
    cons = list(model._cons)
    if injections:
        for bus, s in injections.items():
            k = model._pos.get(bus)
            # the source voltage is fixed, so an injection there would be dropped
            if not k:
                raise DomainError(f"injection at unknown or source bus {bus!r}")
            cons[k] -= s.as_complex()

    backward = model._backward
    forward = model._forward
    n = len(cons)
    v_collapse, v_blowup, tol = _V_COLLAPSE, _V_BLOWUP, _TOL
    v0 = complex(model.v0, 0.0)
    volt = [v0] * n
    delta = last_delta = retest = math.inf
    for iterations in range(1, _MAX_ITER + 1):
        flow = [0j] * n
        for k, p in backward:
            i_k = (cons[k] / volt[k]).conjugate() + flow[k]
            flow[k] = i_k
            flow[p] += i_k
        delta = 0.0
        v_max = model.v0
        for k, p, z in forward:
            v = volt[p] - z * flow[k]
            d = abs(v - volt[k])
            if d > delta:
                delta = d
            volt[k] = v
            a = abs(v)
            if a > v_max:
                v_max = a
            # NaN fails this check too
            if not v_collapse <= a <= v_blowup:
                raise ConvergenceError(
                    f"power flow diverged after {iterations} iterations", "diverged", iterations
                )
        if delta < tol:
            floor = v_max
            break
        # stall rule: each 8-sweep window from sweep 1 shrinks delta by 1/√2;
        # slower than (1/√2)^(1/8) ≈ 0.958 per sweep cannot reach _TOL in time
        if iterations == 1:
            checkpoint = delta
        elif iterations % 8 == 0:
            if delta > checkpoint * _STALL:
                raise ConvergenceError(
                    f"power flow stalled after {iterations} iterations "
                    f"(voltage change {delta:.3e})",
                    "stalled",
                    iterations,
                )
            checkpoint = delta
        # try the cap proof once its floor v_max - r clears the cap by 0.3δ
        # (earlier tries mostly fail), after a failed try not before δ halves:
        # a one-branch sweep of 3,321 points then makes 3,806 tries, not 6,989
        if v_max > v_cap and delta <= retest:
            rho = delta / last_delta
            if rho < 1.0:
                r = 0.7 * delta + 2.0 * rho * delta / (1.0 - rho)
                if v_max - r > v_cap + 0.3 * delta:
                    floor = _voltage_floor(model, cons, volt, delta, v_max, r)
                    if floor is not None:
                        break
                    retest = 0.5 * delta
        last_delta = delta
    else:
        raise ConvergenceError(
            f"power flow did not converge in {_MAX_ITER} iterations "
            f"(last voltage change {delta:.3e})",
            "capped",
            _MAX_ITER,
        )
    if floor > v_cap:
        raise VoltageLimitError(
            f"power flow rejected after {iterations} iterations "
            f"(some |V| stays above {floor!r} > {v_cap!r})",
            iterations,
        )

    try:
        currents = {key: abs(flow[k]) for k, key in enumerate(model._branch_keys, 1)}
    except OverflowError as exc:  # abs() of a finite current can leave the float range
        raise DomainError(
            f"branch current magnitude overflows after {iterations} iterations"
        ) from exc
    # the backward sweep sums the currents leaving the source into flow[0]
    s0 = v0 * (-flow[0]).conjugate()
    return PowerFlowResult(
        voltages={bus: volt[k] for bus, k in model._pos.items()},
        branch_currents=currents,
        s0_sub=ComplexPower(s0.real, s0.imag),
        iterations=iterations,
    )


def _voltage_floor(model, cons, volt, delta, v_max, r):
    """max|y| − r when the ball B(y, r) around the iterate y = ``volt``
    provably holds every later iterate; None otherwise.

    ``delta`` is the iterate's change from the one before.  L is bounded on
    the ball of radius max(r, δ), which holds the iterate before ``volt``;
    solve_feeder's docstring gives the argument.
    """
    eps = 1e-12 * (1.0 + v_max)
    radius = max(r, delta)
    # w[k]: Σ |c_j|/m_j² over the buses j at or below k, m_j shrunk by eps
    w = [0.0] * len(volt)
    for k, p in model._backward:
        if cons[k]:
            m = abs(volt[k]) - radius - eps
            if not m > 0.0:
                return None
            w[k] += abs(cons[k]) / (m * m)
        w[p] += w[k]
    path = [0.0] * len(volt)
    z_abs = model._z_abs
    for k, p, _ in model._forward:
        path[k] = path[p] + z_abs[k] * w[k]
    if max(path) * (r + delta) + eps <= r:
        return v_max - r
    return None


def thevenin_impedance(model: FeederModel, bus: str) -> Impedance:
    """Thevenin impedance between the source and a bus.

    A radial feeder without shunt elements carries an injection at the bus
    only along the source → bus path, so the impedance is the series sum
    of that path's branches.
    """
    if bus == model.source:
        raise DomainError("thevenin impedance at the source bus is degenerate")
    path = model.path_to(bus)
    try:
        return Impedance(math.fsum(br.z.r for br in path), math.fsum(br.z.x for br in path))
    except OverflowError as exc:  # from fsum: the sum leaves the float range
        raise DomainError(f"path impedance to bus {bus!r} overflows") from exc


def two_bus_equivalent(
    model: FeederModel, bus: str, v_plus: float, i_plus: float | None = None
) -> tuple[TwoBusCase, ComplexPower]:
    """Collapse the feeder into a two-bus case for a generator at ``bus``.

    The current limit defaults to the smallest ampacity along the
    source → bus path.  Returns the case and the total feeder load, which
    the substation sees on top of the transferred power.
    """
    z = thevenin_impedance(model, bus)
    if i_plus is None:
        i_plus = min(br.ampacity for br in model.path_to(bus))
    return TwoBusCase(v0=model.v0, z=z, v_plus=v_plus, i_plus=i_plus), model.total_load()


def parse_feeder(text: str, name: str = "<string>") -> FeederModel:
    """Parse the line-oriented feeder file format.

    Sections: [base], [bus], [source], [branch], [load]; '#' starts a
    comment.  Voltage regulators are not modelled; a [regulator] section is
    rejected outright.
    """
    section = None
    buses: list[str] = []
    branches: list[BranchSpec] = []
    loads: dict[str, ComplexPower] = {}
    source = None
    v0 = None
    known = {"base", "bus", "source", "branch", "load"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section == "regulator":
                raise FeederFileError(
                    f"{name}:{lineno}: voltage regulators are not supported; "
                    "fix the taps and model the device as a plain branch"
                )
            if section not in known:
                raise FeederFileError(f"{name}:{lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise FeederFileError(f"{name}:{lineno}: data before any section header")
        tokens = line.split()
        try:
            if section == "base":
                # base quantities are checked but not stored: values are per-unit
                if len(tokens) != 2:
                    raise ValueError("expected: <s_base|v_base> <value>")
                if tokens[0].lower() not in ("s_base", "v_base"):
                    raise ValueError(f"unknown base quantity {tokens[0]!r}")
                float(tokens[1])
            elif section == "bus":
                if len(tokens) != 1:
                    raise ValueError("expected: <bus id>")
                buses.append(tokens[0])
            elif section == "source":
                if len(tokens) != 2:
                    raise ValueError("expected: <bus id> <v0 pu>")
                if source is not None:
                    raise ValueError("more than one source bus")
                source, v0 = tokens[0], float(tokens[1])
            elif section == "branch":
                if len(tokens) != 5:
                    raise ValueError("expected: <from> <to> <r pu> <x pu> <ampacity pu>")
                branches.append(
                    BranchSpec(
                        from_bus=tokens[0],
                        to_bus=tokens[1],
                        z=Impedance(float(tokens[2]), float(tokens[3])),
                        ampacity=float(tokens[4]),
                    )
                )
            elif section == "load":
                if len(tokens) != 3:
                    raise ValueError("expected: <bus> <p pu> <q pu>")
                bus, p, q = tokens[0], float(tokens[1]), float(tokens[2])
                if bus in loads:
                    raise ValueError(f"duplicate load at bus {bus!r}")
                loads[bus] = ComplexPower(p, q)
        except ValueError as exc:
            raise FeederFileError(f"{name}:{lineno}: {exc}") from exc
    if source is None or v0 is None:
        raise FeederFileError(f"{name}: missing [source] section")
    try:
        return FeederModel(
            buses=tuple(buses),
            branches=tuple(branches),
            loads=loads,
            source=source,
            v0=v0,
        )
    except (TopologyError, DomainError) as exc:
        raise FeederFileError(f"{name}: {exc}") from exc


def load_feeder(path) -> FeederModel:
    """Read and parse a feeder file from disk; any read fault is a FeederFileError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise FeederFileError(f"file not found: {path}") from exc
    except OSError as exc:
        raise FeederFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise FeederFileError(f"{path}:{lineno}: non-ASCII text") from exc
    return parse_feeder(text, name=str(path))


def single_branch_model(z: Impedance, v0: float, ampacity: float = math.inf) -> FeederModel:
    """Two-bus feeder (source "0", generator bus "g") for desk-scale studies."""
    return FeederModel(
        buses=("0", "g"),
        branches=(BranchSpec("0", "g", z, ampacity),),
        loads={},
        source="0",
        v0=v0,
    )
