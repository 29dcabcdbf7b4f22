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

from .errors import ConvergenceError, DomainError, FeederFileError, TopologyError
from .limits import TwoBusCase
from .twobus import ComplexPower, Impedance

# Voltage magnitudes outside this window mark a diverging sweep early.
_V_BLOWUP = 1.0e3
_V_COLLAPSE = 1.0e-9
# Sweep budget and convergence tolerance on the largest voltage change.
_MAX_ITER = 512
_TOL = 1e-10


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
    read-only copy, so the validated model cannot change afterwards.
    """

    buses: tuple[str, ...]
    branches: tuple[BranchSpec, ...]
    loads: Mapping[str, ComplexPower] = field(hash=False)
    source: str
    v0: float

    # BFS ordering caches, filled in __post_init__.
    _order: tuple[str, ...] = field(default=(), repr=False, compare=False)
    _parent: tuple[int, ...] = field(default=(), repr=False, compare=False)
    _order_branch: tuple[int, ...] = field(default=(), repr=False, compare=False)

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
            if not (math.isfinite(s.p) and math.isfinite(s.q)):
                raise DomainError(f"load at bus {bus!r} must be finite: {s}")
        order, parent, order_branch = self._bfs()
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_order_branch", order_branch)

    def _bfs(self):
        adjacency: dict[str, list[tuple[str, int]]] = {b: [] for b in self.buses}
        for idx, br in enumerate(self.branches):
            adjacency[br.from_bus].append((br.to_bus, idx))
            adjacency[br.to_bus].append((br.from_bus, idx))
        order = [self.source]
        parent = [-1]
        order_branch = [-1]
        seen = {self.source}
        head = 0
        while head < len(order):
            bus = order[head]
            for nbr, idx in adjacency[bus]:
                if nbr in seen:
                    continue
                seen.add(nbr)
                order.append(nbr)
                parent.append(head)
                order_branch.append(idx)
            head += 1
        if len(order) != len(self.buses):
            missing = set(self.buses) - seen
            raise TopologyError(f"buses not connected to source: {sorted(missing)}")
        if len(self.branches) != len(self.buses) - 1:
            raise TopologyError(
                "feeder is not radial: "
                f"{len(self.branches)} branches for {len(self.buses)} buses"
            )
        return tuple(order), tuple(parent), tuple(order_branch)

    def path_to(self, bus: str) -> list[BranchSpec]:
        """Branches on the unique source → bus path, source end first."""
        if bus not in self.buses:
            raise DomainError(f"unknown bus {bus!r}")
        pos = {b: k for k, b in enumerate(self._order)}
        path = []
        k = pos[bus]
        while k > 0:
            path.append(self.branches[self._order_branch[k]])
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
    model: FeederModel, injections: dict[str, ComplexPower] | None = None
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
    """
    injections = injections or {}
    for bus in injections:
        # the source voltage is fixed, so an injection there would be dropped
        if bus not in model.buses or bus == model.source:
            raise DomainError(f"injection at unknown or source bus {bus!r}")

    order = model._order
    parent = model._parent
    n = len(order)
    zc = [0j] * n
    for k in range(1, n):
        br = model.branches[model._order_branch[k]]
        zc[k] = br.z.as_complex()
    # consumption = load - generation, per bus in BFS order
    cons = [0j] * n
    for k, bus in enumerate(order):
        s = 0j
        if bus in model.loads:
            s += model.loads[bus].as_complex()
        if bus in injections:
            s -= injections[bus].as_complex()
        cons[k] = s

    v0 = complex(model.v0, 0.0)
    volt = [v0] * n
    iterations = 0
    delta = math.inf
    while iterations < _MAX_ITER:
        iterations += 1
        flow = [0j] * n
        for k in range(n - 1, 0, -1):
            i_k = (cons[k] / volt[k]).conjugate() + flow[k]
            flow[k] = i_k
            flow[parent[k]] += i_k
        delta = 0.0
        for k in range(1, n):
            v = volt[parent[k]] - zc[k] * flow[k]
            d = abs(v - volt[k])
            if d > delta:
                delta = d
            volt[k] = v
            # NaN fails this check too
            if not _V_COLLAPSE <= abs(v) <= _V_BLOWUP:
                raise ConvergenceError(f"power flow diverged after {iterations} iterations")
        if delta < _TOL:
            break
        # stall rule: each 8-sweep window from sweep 1 shrinks delta by 1/√2;
        # slower than (1/√2)^(1/8) ≈ 0.958 per sweep cannot reach _TOL in time
        if iterations == 1:
            checkpoint = delta
        elif iterations % 8 == 0:
            if delta > checkpoint * math.sqrt(0.5):
                raise ConvergenceError(
                    f"power flow stalled after {iterations} iterations "
                    f"(voltage change {delta:.3e})"
                )
            checkpoint = delta
    else:
        raise ConvergenceError(
            f"power flow did not converge in {_MAX_ITER} iterations "
            f"(last voltage change {delta:.3e})"
        )

    branch_currents: dict[tuple[str, str], float] = {}
    for k in range(1, n):
        br = model.branches[model._order_branch[k]]
        branch_currents[(br.from_bus, br.to_bus)] = abs(flow[k])
    # the backward sweep sums the currents leaving the source into flow[0]
    s0 = v0 * (-flow[0]).conjugate()
    return PowerFlowResult(
        voltages={bus: volt[k] for k, bus in enumerate(order)},
        branch_currents=branch_currents,
        s0_sub=ComplexPower(s0.real, s0.imag),
        iterations=iterations,
    )


def thevenin_impedance(model: FeederModel, bus: str) -> Impedance:
    """Thevenin impedance between the source and a bus.

    A radial feeder without shunt elements carries an injection at the bus
    only along the source → bus path, so the impedance is the series sum
    of that path's branches.
    """
    if bus == model.source:
        raise DomainError("thevenin impedance at the source bus is degenerate")
    path = model.path_to(bus)
    return Impedance(math.fsum(br.z.r for br in path), math.fsum(br.z.x for br in path))


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
