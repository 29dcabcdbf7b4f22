"""Tests for the radial feeder model, solver and two-bus equivalencing."""

import copy
import dataclasses
import functools
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import feederlimits.feeder
from feederlimits import bundled_feeder_path
from feederlimits.errors import (
    ConvergenceError,
    DegenerateImpedanceError,
    DomainError,
    FeederFileError,
    TopologyError,
    VoltageLimitError,
)
from feederlimits.feeder import (
    _MAX_ITER,
    _TOL,
    _V_BLOWUP,
    _V_COLLAPSE,
    BranchSpec,
    FeederModel,
    PowerFlowResult,
    load_feeder,
    parse_feeder,
    single_branch_model,
    solve_feeder,
    _voltage_floor,
    thevenin_impedance,
    two_bus_equivalent,
)
from feederlimits.limits import marginal_limit
from feederlimits.twobus import (
    Branch,
    ComplexPower,
    Impedance,
    discriminant,
    rotate,
    solve,
)

SQ2 = math.sqrt(2.0)
Z45 = Impedance(1.0 / SQ2, 1.0 / SQ2)


def three_bus_model(load=None):
    """Source - middle - end chain used throughout this module."""
    loads = {"m": load} if load is not None else {}
    return FeederModel(
        buses=("s", "m", "e"),
        branches=(
            BranchSpec("s", "m", Impedance(0.02, 0.04), 2.0),
            BranchSpec("m", "e", Impedance(0.03, 0.01), 1.0),
        ),
        loads=loads,
        source="s",
        v0=1.0,
    )


def textbook_solve(model, injections=None):
    """Reference power flow that builds every table per call.

    The same BFS order and the same arithmetic in the same order as
    :func:`solve_feeder`, from the model's public fields alone, so the two
    must agree bit for bit.
    """
    injections = injections or {}
    for bus in injections:
        if bus not in model.buses or bus == model.source:
            raise DomainError(f"injection at unknown or source bus {bus!r}")
    adjacency = {b: [] for b in model.buses}
    for br in model.branches:
        adjacency[br.from_bus].append((br.to_bus, br))
        adjacency[br.to_bus].append((br.from_bus, br))
    order, parent, feeding = [model.source], [-1], [None]
    head = 0
    while head < len(order):
        for nbr, br in adjacency[order[head]]:
            if nbr not in order:
                order.append(nbr)
                parent.append(head)
                feeding.append(br)
        head += 1
    n = len(order)
    zc = [0j] + [br.z.as_complex() for br in feeding[1:]]
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
            if not _V_COLLAPSE <= abs(v) <= _V_BLOWUP:
                raise ConvergenceError(f"power flow diverged after {iterations} iterations")
        if delta < _TOL:
            break
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
    s0 = v0 * (-flow[0]).conjugate()
    return PowerFlowResult(
        voltages={bus: volt[k] for k, bus in enumerate(order)},
        branch_currents={
            (br.from_bus, br.to_bus): abs(flow[k]) for k, br in enumerate(feeding) if k
        },
        s0_sub=ComplexPower(s0.real, s0.imag),
        iterations=iterations,
    )


def outcome(solver, model, injections):
    """Results as comparable values (dict order included), or the error text."""
    try:
        res = solver(model, injections)
    except (ConvergenceError, DomainError, VoltageLimitError) as exc:
        return type(exc), str(exc)
    return (
        list(res.voltages.items()),
        list(res.branch_currents.items()),
        res.s0_sub,
        res.iterations,
    )


def consumption(model, injections):
    """Load minus generation per bus, in BFS order, as the solver adds it up."""
    cons = list(model._cons)
    for bus, s in injections.items():
        cons[model._pos[bus]] -= s.as_complex()
    return cons


def sweep(model, cons, volt):
    """One backward/forward sweep: the next iterate and its largest |V| off
    the source."""
    flow = [0j] * len(volt)
    for k, p in model._backward:
        flow[k] += (cons[k] / volt[k]).conjugate()
        flow[p] += flow[k]
    new = list(volt)
    for k, p, z in model._forward:
        new[k] = new[p] - z * flow[k]
    return new, max(abs(v) for v in new[1:])


@st.composite
def radial_feeders(draw):
    """Random radial tree of 2-12 buses in shuffled bus and branch order,
    random branch directions and loads, and one generator injection."""
    n = draw(st.integers(2, 12))
    names = draw(st.permutations([f"b{k}" for k in range(n)]))
    impedance = st.builds(Impedance, st.floats(0.0, 0.3), st.floats(0.001, 0.3))
    power = st.builds(ComplexPower, st.floats(-0.5, 1.0), st.floats(-0.5, 0.5))
    branches = []
    for k in range(1, n):
        ends = (names[draw(st.integers(0, k - 1))], names[k])
        if draw(st.booleans()):
            ends = ends[::-1]
        branches.append(BranchSpec(*ends, draw(impedance), 1.0))
    loaded = draw(st.lists(st.sampled_from(names[1:]), unique=True))
    model = FeederModel(
        buses=tuple(draw(st.permutations(names))),
        branches=tuple(draw(st.permutations(branches))),
        loads={bus: draw(power) for bus in loaded},
        source=names[0],
        v0=draw(st.floats(0.9, 1.1)),
    )
    gen = ComplexPower(draw(st.floats(-3.0, 8.0)), draw(st.floats(-6.0, 3.0)))
    return model, {draw(st.sampled_from(names[1:])): gen}


def deep_feeder(seed, n=34):
    """Seeded synthetic radial feeder of ``n`` buses, at IEEE 34-bus scale.

    Bus "1" is the source at 1.05 pu.  A main of 2n/3 buses, with R/X of
    1.4 to 1.8 and ampacities of 3.0 to 3.6 pu, ends at a leaf that holds a
    0.3 + j0.06 pu load.  Laterals of 2 to 3 buses, with ampacity 0.6 pu,
    hang off seeded inner buses of the main; each lateral bus holds a light
    load of 0.1 to 1 milli-pu.  Returns the model and the main's far leaf.
    """
    rng = random.Random(seed)
    main = 2 * n // 3
    branches = []
    for k in range(1, main):
        r = 0.0085 * rng.uniform(0.6, 1.4)
        z = Impedance(r, r / rng.uniform(1.4, 1.8))
        branches.append(BranchSpec(str(k), str(k + 1), z, rng.uniform(3.0, 3.6)))
    loads = {str(main): ComplexPower(0.3, 0.06)}
    bus = main + 1
    while bus <= n:
        prev = str(rng.randrange(2, main))
        for _ in range(min(rng.randint(2, 3), n + 1 - bus)):
            s = rng.uniform(0.5, 1.5)
            branches.append(BranchSpec(prev, str(bus), Impedance(0.012 * s, 0.009 * s), 0.6))
            p = rng.uniform(1e-4, 1e-3)
            loads[str(bus)] = ComplexPower(p, 0.3 * p)
            prev, bus = str(bus), bus + 1
    buses = tuple(str(k) for k in range(1, n + 1))
    return FeederModel(buses, tuple(branches), loads, "1", 1.05), str(main)


class TestModelValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(TopologyError):
            FeederModel(buses=("a",), branches=(), loads={}, source="b", v0=1.0)

    def test_duplicate_bus_ids_rejected(self):
        with pytest.raises(TopologyError):
            FeederModel(buses=("a", "a"), branches=(), loads={}, source="a", v0=1.0)

    def test_disconnected_bus_rejected(self):
        with pytest.raises(TopologyError, match="not connected"):
            FeederModel(buses=("a", "b"), branches=(), loads={}, source="a", v0=1.0)

    def test_meshed_network_rejected(self):
        with pytest.raises(TopologyError, match="not radial"):
            FeederModel(
                buses=("a", "b", "c"),
                branches=(
                    BranchSpec("a", "b", Impedance(0.1, 0.1), 1.0),
                    BranchSpec("b", "c", Impedance(0.1, 0.1), 1.0),
                    BranchSpec("c", "a", Impedance(0.1, 0.1), 1.0),
                ),
                loads={},
                source="a",
                v0=1.0,
            )

    def test_load_at_unknown_bus_rejected(self):
        with pytest.raises(TopologyError):
            FeederModel(
                buses=("a", "b"),
                branches=(BranchSpec("a", "b", Impedance(0.1, 0.1), 1.0),),
                loads={"zz": ComplexPower(0.1, 0.0)},
                source="a",
                v0=1.0,
            )

    def test_load_at_source_bus_rejected(self):
        # the source voltage is fixed, so the power flow would drop this load
        with pytest.raises(TopologyError, match="source bus"):
            FeederModel(
                buses=("a", "b"),
                branches=(BranchSpec("a", "b", Impedance(0.1, 0.1), 1.0),),
                loads={"a": ComplexPower(0.5, 0.1)},
                source="a",
                v0=1.0,
            )

    def test_branch_to_unknown_bus_rejected(self):
        with pytest.raises(TopologyError, match="unknown bus"):
            FeederModel(
                buses=("a", "b"),
                branches=(BranchSpec("a", "zz", Impedance(0.1, 0.1), 1.0),),
                loads={},
                source="a",
                v0=1.0,
            )

    def test_model_is_hashable(self):
        a = load_feeder(bundled_feeder_path())
        b = load_feeder(bundled_feeder_path())
        assert a == b
        assert hash(a) == hash(b)

    def test_deep_feeder_is_seeded_and_ends_at_a_leaf(self):
        model, far = deep_feeder(seed=7)
        assert deep_feeder(seed=7) == (model, far)
        assert deep_feeder(seed=8)[0] != model
        assert len(model.buses) == 34 and far == "22"
        assert len(model.path_to(far)) == 21
        assert [bus for br in model.branches for bus in (br.from_bus, br.to_bus)].count(far) == 1

    @pytest.mark.parametrize(
        "round_trip", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip_rebuilds_the_model(self, round_trip):
        model = load_feeder(bundled_feeder_path())
        copied = round_trip(model)
        assert copied == model
        assert hash(copied) == hash(model)
        with pytest.raises(TypeError):
            copied.loads["nope"] = ComplexPower(5.0, 0.0)
        injections = {"12": ComplexPower(1.5, -0.8)}
        # repr tells every float apart, -0.0 from 0.0 included
        assert repr(outcome(solve_feeder, copied, injections)) == repr(
            outcome(solve_feeder, model, injections)
        )

    def test_solver_tables_are_invisible(self):
        a = parse_feeder(FEEDER_TEXT)
        b = parse_feeder(FEEDER_TEXT)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "_pos" not in repr(a)
        assert [f.name for f in dataclasses.fields(a)] == [
            "buses", "branches", "loads", "source", "v0"
        ]

    def test_solver_tables_are_not_arguments(self):
        with pytest.raises(TypeError, match="_pos"):
            FeederModel(buses=("a",), branches=(), loads={}, source="a", v0=1.0, _pos={})

    def test_replace_rebuilds_solver_tables(self):
        model = three_bus_model(load=ComplexPower(0.2, 0.05))
        injections = {"e": ComplexPower(0.6, -0.1)}
        for changes in ({"v0": 1.03}, {"loads": {"e": ComplexPower(0.1, 0.02)}}):
            replaced = dataclasses.replace(model, **changes)
            fresh = FeederModel(
                **{f.name: getattr(replaced, f.name) for f in dataclasses.fields(model) if f.init}
            )
            assert replaced == fresh
            assert outcome(solve_feeder, replaced, injections) == outcome(
                solve_feeder, fresh, injections
            )
            assert outcome(solve_feeder, replaced, injections) != outcome(
                solve_feeder, model, injections
            )

    def test_loads_are_read_only(self):
        model = load_feeder(bundled_feeder_path())
        with pytest.raises(TypeError):
            model.loads["nope"] = ComplexPower(5.0, 0.0)

    def test_caller_dict_mutation_does_not_reach_model(self):
        loads = {"m": ComplexPower(0.1, 0.0)}
        model = FeederModel(
            buses=("s", "m"),
            branches=(BranchSpec("s", "m", Impedance(0.02, 0.04), 2.0),),
            loads=loads,
            source="s",
            v0=1.0,
        )
        loads["m"] = ComplexPower(5.0, 0.0)
        loads["nope"] = ComplexPower(5.0, 0.0)
        assert dict(model.loads) == {"m": ComplexPower(0.1, 0.0)}
        assert model.total_load() == ComplexPower(0.1, 0.0)

    def test_nan_source_voltage_rejected(self):
        for v0 in (math.nan, math.inf):
            with pytest.raises(DomainError):
                single_branch_model(Impedance(0.1, 0.1), v0=v0)

    def test_non_finite_load_rejected(self):
        for load in (ComplexPower(math.nan, 0.0), ComplexPower(0.1, math.inf)):
            with pytest.raises(DomainError, match="load at bus 'm'"):
                three_bus_model(load)

    def test_nan_or_negative_ampacity_rejected(self):
        for ampacity in (math.nan, -1.0):
            with pytest.raises(DomainError):
                BranchSpec("a", "b", Impedance(0.1, 0.1), ampacity)

    def test_parser_reports_bad_ampacity_with_line_number(self):
        with pytest.raises(FeederFileError, match=":2: ampacity"):
            parse_feeder("[branch]\na b 0.05 0.1 nan\n")

    def test_path_to_walks_source_first(self):
        model = three_bus_model()
        path = model.path_to("e")
        assert [(br.from_bus, br.to_bus) for br in path] == [("s", "m"), ("m", "e")]

    def test_total_load_sums_buses(self):
        model = load_feeder(bundled_feeder_path())
        total = model.total_load()
        assert total.p == pytest.approx(0.576)
        assert total.q == pytest.approx(0.0929)


class TestSolveFeeder:
    def test_no_injection_no_load_is_flat(self):
        res = solve_feeder(three_bus_model())
        assert all(abs(v - 1.0) < 1e-12 for v in res.voltages.values())
        assert res.s0_sub.p == pytest.approx(0.0, abs=1e-12)
        assert all(i == pytest.approx(0.0, abs=1e-12) for i in res.branch_currents.values())

    def test_injection_at_unknown_bus_rejected(self):
        with pytest.raises(DomainError):
            solve_feeder(three_bus_model(), {"zz": ComplexPower(0.1, 0.0)})

    def test_injection_at_source_bus_rejected(self):
        model = load_feeder(bundled_feeder_path())
        with pytest.raises(DomainError, match="source bus '1'"):
            solve_feeder(model, {model.source: ComplexPower(0.5, 0.1)})

    def test_generation_raises_voltage_along_path(self):
        res = solve_feeder(three_bus_model(), {"e": ComplexPower(0.5, 0.0)})
        assert abs(res.voltages["e"]) > abs(res.voltages["m"]) > abs(res.voltages["s"])

    def test_load_depresses_voltage(self):
        res = solve_feeder(three_bus_model(load=ComplexPower(0.4, 0.1)))
        assert abs(res.voltages["m"]) < 1.0

    def test_energy_conservation(self):
        res = solve_feeder(
            three_bus_model(load=ComplexPower(0.3, 0.1)),
            {"e": ComplexPower(0.8, -0.2)},
        )
        # currents, losses and power balance from the solved voltages alone
        v = res.voltages
        z1, z2 = complex(0.02, 0.04), complex(0.03, 0.01)
        i1, i2 = (v["s"] - v["m"]) / z1, (v["m"] - v["e"]) / z2
        losses = z1 * abs(i1) ** 2 + z2 * abs(i2) ** 2
        s0 = v["s"] * (-i1).conjugate()
        # generation = load + losses + power into the source
        assert s0.real + losses.real + 0.3 == pytest.approx(0.8, abs=1e-8)
        assert s0.imag + losses.imag + 0.1 == pytest.approx(-0.2, abs=1e-8)
        # each bus absorbs its load less its generation
        assert v["m"] * (i1 - i2).conjugate() == pytest.approx(0.3 + 0.1j, abs=1e-8)
        assert v["e"] * i2.conjugate() == pytest.approx(-0.8 + 0.2j, abs=1e-8)
        # the returned currents and substation power agree with the voltages
        assert res.branch_currents[("s", "m")] == pytest.approx(abs(i1), abs=1e-8)
        assert res.branch_currents[("m", "e")] == pytest.approx(abs(i2), abs=1e-8)
        assert res.s0_sub.as_complex() == pytest.approx(s0, abs=1e-8)

    def test_matches_hand_rolled_fixed_point(self):
        # independent oracle: Gauss-style voltage iteration written from the
        # circuit equations, nothing shared with the implementation
        model = three_bus_model(load=ComplexPower(0.2, 0.05))
        inj = {"e": ComplexPower(0.6, -0.1)}
        z1, z2 = complex(0.02, 0.04), complex(0.03, 0.01)
        s_m, s_e = complex(0.2, 0.05), complex(-0.6, 0.1)
        v_m, v_e = 1.0 + 0j, 1.0 + 0j
        for _ in range(10_000):
            i_e = (s_e / v_e).conjugate()
            i_m = (s_m / v_m).conjugate() + i_e
            v_m = 1.0 - z1 * i_m
            v_e = v_m - z2 * i_e
        res = solve_feeder(model, inj)
        assert res.voltages["m"] == pytest.approx(v_m, abs=1e-8)
        assert res.voltages["e"] == pytest.approx(v_e, abs=1e-8)

    def test_matches_closed_form_on_single_branch(self):
        z = Impedance(0.7 / SQ2, 0.7 / SQ2)
        model = single_branch_model(z, v0=1.0)
        sg = ComplexPower(0.5, -0.3)
        res = solve_feeder(model, {"g": sg})
        sol = solve(rotate(sg, z), 1.0, Branch.HIGH_VOLTAGE)
        assert abs(res.voltages["g"]) ** 2 == pytest.approx(sol.vg_sq, abs=1e-9)

    def test_marginal_injection_lands_on_voltage_limit(self):
        z = Impedance(1.0 / SQ2, 1.0 / SQ2)
        model = single_branch_model(z, v0=1.0)
        from feederlimits.limits import TwoBusCase

        point = marginal_limit(TwoBusCase(v0=1.0, z=z, v_plus=1.06, i_plus=10.0))
        res = solve_feeder(model, {"g": point.sg})
        assert abs(res.voltages["g"]) == pytest.approx(1.06, abs=1e-6)
        assert res.s0_sub.p == pytest.approx(point.s0.p, abs=1e-6)

    def test_infeasible_injection_reports_divergence(self):
        model = single_branch_model(Impedance(0.5, 0.5), v0=1.0)
        with pytest.raises(ConvergenceError):
            solve_feeder(model, {"g": ComplexPower(-5.0, 0.0)})

    def test_unsolvable_injection_stalls_at_first_checkpoint(self):
        # no power flow solution exists, so the voltage change never shrinks
        # by 1/√2 between sweep 1 and sweep 8
        model = single_branch_model(Z45, v0=1.0)
        for sg in (ComplexPower(-5.0, 0.0), ComplexPower(0.5, -3.0)):
            with pytest.raises(ConvergenceError, match="stalled after 8 iterations"):
                solve_feeder(model, {"g": sg})

    @settings(max_examples=300)
    @given(
        log_lam=st.floats(-1.5, 1.5),
        z_mag=st.floats(0.01, 3.0),
        v0=st.floats(0.9, 1.1),
        p=st.floats(0.0, 0.6),
        q=st.floats(-0.6, 0.3),
    )
    def test_contracting_injection_converges_to_high_voltage_root(
        self, log_lam, z_mag, v0, p, q
    ):
        # criterion 8's filter, scaled by V0² and V0²/|Z|: away from the
        # solution boundary and where the sweep map contracts, the stall
        # rule must never give up on a solvable injection
        lam = 10.0**log_lam
        x = z_mag / math.sqrt(1.0 + lam * lam)
        z = Impedance(lam * x, x)
        sg = ComplexPower(p * v0 * v0 / z_mag, q * v0 * v0 / z_mag)
        s_t = rotate(sg, z)
        assume(discriminant(s_t, v0) >= 0.05 * v0**4)
        sol = solve(s_t, v0, Branch.HIGH_VOLTAGE)
        assume(abs(complex(s_t.p_t, s_t.q_t)) <= 0.9 * sol.vg_sq)
        res = solve_feeder(single_branch_model(z, v0=v0), {"g": sg})
        assert abs(res.voltages["g"]) ** 2 == pytest.approx(sol.vg_sq, abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(radial_feeders())
    def test_same_bits_as_textbook_loop(self, feeder):
        model, injections = feeder
        assert outcome(solve_feeder, model, injections) == outcome(
            textbook_solve, model, injections
        )

    @pytest.mark.parametrize(
        "sg, error",
        [((0.5, -0.3), None), ((0.5, -3.0), "power flow stalled"),
         ((0.0, -2.42), "power flow diverged")],
    )
    def test_single_branch_outcomes_match_textbook_loop(self, sg, error):
        model = single_branch_model(Z45, v0=1.0)
        injections = {"g": ComplexPower(*sg)}
        got = outcome(solve_feeder, model, injections)
        assert got == outcome(textbook_solve, model, injections)
        if error is None:
            assert got[0] is not ConvergenceError
        else:
            assert got[0] is ConvergenceError and got[1].startswith(error)
            # the attributes name what the text says
            with pytest.raises(ConvergenceError) as err:
                solve_feeder(model, injections)
            assert got[1].startswith(
                f"power flow {err.value.kind} after {err.value.iterations} iterations"
            )
            assert error.endswith(err.value.kind)

    @pytest.mark.parametrize("bus", ["s", "zz"])
    def test_rejected_injection_matches_textbook_loop(self, bus):
        model = three_bus_model(load=ComplexPower(0.2, 0.05))
        injections = {"e": ComplexPower(0.3, 0.0), bus: ComplexPower(0.1, 0.0)}
        got = outcome(solve_feeder, model, injections)
        assert got == outcome(textbook_solve, model, injections)
        assert got == (DomainError, f"injection at unknown or source bus {bus!r}")

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(feederlimits.feeder, "_MAX_ITER", 2)
        model = single_branch_model(Impedance(0.01, 0.02), v0=1.0)
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations") as err:
            solve_feeder(model, {"g": ComplexPower(0.5, 0.0)})
        assert (err.value.kind, err.value.iterations) == ("capped", 2)

    def test_voltage_cap_stops_over_voltage_point_early(self):
        # a criterion-4 grid point that converges far above V+ = 1.06
        model = single_branch_model(Z45, v0=1.0, ampacity=0.9)
        injections = {"g": ComplexPower(1.23, 2.1)}
        res = solve_feeder(model, injections)
        assert res.iterations == 43
        assert abs(res.voltages["g"]) == pytest.approx(2.085, abs=1e-3)
        with pytest.raises(VoltageLimitError) as err:
            solve_feeder(model, injections, v_cap=1.06 + 1e-9)
        assert err.value.iterations <= 12
        assert str(err.value).startswith(
            f"power flow rejected after {err.value.iterations} iterations ("
        )

    def test_voltage_cap_just_below_the_converged_maximum_rejects(self):
        model = single_branch_model(Z45, v0=1.0)
        injections = {"g": ComplexPower(0.5, 0.2)}
        res = solve_feeder(model, injections)
        vg = abs(res.voltages["g"])
        assert res.iterations == 20
        assert vg == pytest.approx(1.35337344497, abs=1e-11)
        # a cap at the maximum keeps the state, bit for bit
        assert outcome(functools.partial(solve_feeder, v_cap=vg), model, injections) == outcome(
            solve_feeder, model, injections
        )
        # no proof separates a cap 1e-12 below it, so the converged state is rejected
        with pytest.raises(VoltageLimitError) as err:
            solve_feeder(model, injections, v_cap=vg - 1e-12)
        assert err.value.iterations == 20
        assert str(err.value).startswith("power flow rejected after 20 iterations (")

    @pytest.mark.parametrize("v_cap, iterations", [(0.99, 4), (1.0 - 1e-12, 19)])
    def test_source_above_the_cap_rejects(self, v_cap, iterations):
        # the generator bus sits far below the cap; only the source breaks it
        model = single_branch_model(Z45, v0=1.0)
        injections = {"g": ComplexPower(-0.2, 0.0)}
        res = solve_feeder(model, injections)
        assert res.iterations == 19
        assert abs(res.voltages["g"]) == pytest.approx(0.81, abs=1e-3)
        with pytest.raises(VoltageLimitError) as err:
            solve_feeder(model, injections, v_cap=v_cap)
        assert err.value.iterations == iterations
        # the text prints enough digits to tell the floor from the cap
        text = str(err.value)
        assert text.startswith(f"power flow rejected after {iterations} iterations (")
        floor, cap = text.removesuffix(")").split("stays above ")[1].split(" > ")
        assert float(cap) == v_cap
        assert float(floor) > v_cap

    @pytest.mark.parametrize("v_cap", [math.nan, 0.0, -1.0])
    def test_nonpositive_voltage_cap_rejected(self, v_cap):
        # with a NaN cap every comparison fails, so |Vg| = 1.2866 came back
        # from a point that the cap 1.06 rejects
        model = single_branch_model(Impedance(0.5, 0.5), v0=1.0)
        with pytest.raises(DomainError, match="voltage cap must be positive"):
            solve_feeder(model, {"g": ComplexPower(0.9, 0.0)}, v_cap=v_cap)

    def test_overflowing_branch_current_is_a_domain_error(self):
        # a zero impedance converges at once, but |I| of 1.5e308·(1 − j)
        # leaves the float range; abs() raised a bare OverflowError
        model = single_branch_model(Impedance(0.0, 0.0), v0=1.0)
        with pytest.raises(DomainError, match="branch current magnitude overflows after 1 "):
            solve_feeder(model, {"g": ComplexPower(1.5e308, 1.5e308)}, v_cap=1e300)

    @settings(max_examples=300, deadline=None)
    @given(radial_feeders(), st.integers(1, 40), st.floats(0.0, 0.3), st.booleans())
    def test_voltage_floor_holds_for_every_later_sweep(self, feeder, start, cut, gate):
        # the bound on its own, at any sweep and without the solver's gate:
        # a floor it proves must hold for every sweep after it.  The radius
        # is the solver's, from the last two changes (ρ = 0 after one), or a
        # share of max |V|
        model, injections = feeder
        cons = consumption(model, injections)
        y = [complex(model.v0, 0.0)] * len(cons)
        changes = []
        for _ in range(start):
            x, (y, v_max) = y, sweep(model, cons, y)
            # the solver would have stopped here
            assume(all(_V_COLLAPSE <= abs(v) <= _V_BLOWUP for v in y))
            changes.append(max(abs(a - b) for a, b in zip(x[1:], y[1:])))
        delta = changes[-1]
        if gate:
            prev = changes[-2] if len(changes) > 1 else math.inf
            assume(delta < prev)
            rho = delta / prev
            r = 0.7 * delta + 2.0 * rho * delta / (1.0 - rho)
        else:
            r = cut * v_max
        floor = _voltage_floor(model, cons, y, delta, v_max, r)
        if floor is not None:
            for _ in range(200):
                y, v_max = sweep(model, cons, y)
                assert v_max >= floor

    def test_voltage_floor_from_the_solvers_radius_holds(self):
        # |Vg| settles at 1.3534 after 20 sweeps; at sweep 4 the bound
        # already proves that no later sweep drops below 1.3261
        model = single_branch_model(Z45, v0=1.0)
        cons = consumption(model, {"g": ComplexPower(0.5, 0.2)})
        y = [1 + 0j, 1 + 0j]
        changes = []
        for _ in range(4):
            x, (y, v_max) = y, sweep(model, cons, y)
            changes.append(abs(y[1] - x[1]))
        delta, rho = changes[-1], changes[-1] / changes[-2]
        r = 0.7 * delta + 2.0 * rho * delta / (1.0 - rho)
        floor = _voltage_floor(model, cons, y, delta, v_max, r)
        assert floor == v_max - r
        assert floor == pytest.approx(1.326106275, abs=1e-9)
        for _ in range(200):
            y, v_max = sweep(model, cons, y)
            assert v_max >= floor

    @settings(max_examples=300, deadline=None)
    @given(radial_feeders(), st.floats(0.9, 1.4))
    def test_voltage_cap_keeps_bits_or_proves_the_breach(self, feeder, v_cap):
        model, injections = feeder
        uncapped = outcome(solve_feeder, model, injections)
        capped = outcome(functools.partial(solve_feeder, v_cap=v_cap), model, injections)
        if capped[0] is VoltageLimitError:
            # the uncapped sweep fails or ends above the cap
            assert uncapped[0] is ConvergenceError or max(
                abs(v) for _, v in uncapped[0]
            ) > v_cap
        else:
            # a state comes back only bit for bit and within the cap
            assert capped == uncapped
            assert capped[0] is ConvergenceError or max(abs(v) for _, v in capped[0]) <= v_cap


class TestTheveninImpedance:
    def test_single_branch(self):
        model = single_branch_model(Impedance(0.17858, 0.09653), v0=1.05)
        z = thevenin_impedance(model, "g")
        assert z.r == pytest.approx(0.17858, abs=1e-12)
        assert z.x == pytest.approx(0.09653, abs=1e-12)

    def test_chain_sums_series_impedances(self):
        model = three_bus_model()
        z = thevenin_impedance(model, "e")
        assert z.r == pytest.approx(0.05, abs=1e-12)
        assert z.x == pytest.approx(0.05, abs=1e-12)

    def test_lateral_does_not_contribute(self):
        model = load_feeder(bundled_feeder_path())
        z = thevenin_impedance(model, "12")
        path = model.path_to("12")
        assert z.r == pytest.approx(sum(br.z.r for br in path), abs=1e-10)
        assert z.x == pytest.approx(sum(br.z.x for br in path), abs=1e-10)

    def test_source_bus_is_degenerate(self):
        with pytest.raises(DomainError):
            thevenin_impedance(three_bus_model(), "s")

    def test_unknown_bus_rejected(self):
        with pytest.raises(DomainError, match="unknown bus"):
            thevenin_impedance(three_bus_model(), "zz")

    def test_zero_impedance_branch_off_the_path_is_accepted(self):
        # a zero-impedance lateral makes the nodal admittance matrix
        # singular, but it carries no current for an injection elsewhere
        model = FeederModel(
            buses=("s", "m", "e", "t"),
            branches=(
                BranchSpec("s", "m", Impedance(0.02, 0.04), 2.0),
                BranchSpec("m", "e", Impedance(0.03, 0.01), 1.0),
                BranchSpec("m", "t", Impedance(0.0, 0.0), 1.0),
            ),
            loads={},
            source="s",
            v0=1.0,
        )
        z = thevenin_impedance(model, "e")
        assert z.r == pytest.approx(0.05, abs=1e-12)
        assert z.x == pytest.approx(0.05, abs=1e-12)

    def test_zero_impedance_path_has_no_two_bus_equivalent(self):
        model = single_branch_model(Impedance(0.0, 0.0), v0=1.0)
        assert thevenin_impedance(model, "g") == Impedance(0.0, 0.0)
        with pytest.raises(DegenerateImpedanceError):
            two_bus_equivalent(model, "g", v_plus=1.06)


class TestTwoBusEquivalent:
    def test_bundled_feeder_end_bus(self):
        model = load_feeder(bundled_feeder_path())
        case, s_load = two_bus_equivalent(model, "12", v_plus=1.06)
        assert case.v0 == pytest.approx(1.05)
        assert case.z.magnitude() == pytest.approx(0.203, abs=1e-3)
        assert case.z.lam() == pytest.approx(1.85, abs=0.01)
        assert case.i_plus == pytest.approx(3.0)
        assert s_load.p == pytest.approx(0.576)

    def test_ampacity_is_path_minimum(self):
        model = load_feeder(bundled_feeder_path())
        case, _ = two_bus_equivalent(model, "9", v_plus=1.06)
        assert case.i_plus == pytest.approx(1.0)

    def test_explicit_limits_override_defaults(self):
        model = three_bus_model()
        case, s_load = two_bus_equivalent(model, "e", v_plus=1.1, i_plus=0.5)
        assert case.i_plus == 0.5
        assert s_load == ComplexPower(0.0, 0.0)


FEEDER_TEXT = """
[base]
s_base 1.0e6
v_base 400

[bus]
a
b

[source]
a 1.02

[branch]
a b 0.05 0.10 1.5

[load]
b 0.2 0.05
"""


class TestParser:
    def test_round_trip(self):
        model = parse_feeder(FEEDER_TEXT)
        assert model.buses == ("a", "b")
        assert model.source == "a"
        assert model.v0 == 1.02
        br = model.branches[0]
        assert (br.from_bus, br.to_bus, br.ampacity) == ("a", "b", 1.5)
        assert br.z == Impedance(0.05, 0.10)
        assert model.loads["b"] == ComplexPower(0.2, 0.05)

    def test_comments_and_blank_lines_ignored(self):
        model = parse_feeder("# header\n\n[bus]\na # inline\n[source]\na 1.0\n")
        assert model.buses == ("a",)

    def test_unknown_section_rejected(self):
        with pytest.raises(FeederFileError, match=r"unknown section \[capacitor\]"):
            parse_feeder("[capacitor]\n")

    def test_regulator_section_rejected_with_guidance(self):
        with pytest.raises(FeederFileError, match="fix the taps"):
            parse_feeder("[regulator]\n")

    def test_data_before_section_rejected(self):
        with pytest.raises(FeederFileError, match="before any section"):
            parse_feeder("a 1.0\n")

    def test_missing_source_rejected(self):
        with pytest.raises(FeederFileError, match="missing \\[source\\]"):
            parse_feeder("[bus]\na\n")

    def test_duplicate_source_rejected(self):
        with pytest.raises(FeederFileError, match="more than one source"):
            parse_feeder("[bus]\na\n[source]\na 1.0\na 1.0\n")

    def test_duplicate_load_rejected(self):
        text = FEEDER_TEXT + "b 0.1 0.0\n"
        with pytest.raises(FeederFileError, match="duplicate load"):
            parse_feeder(text)

    @pytest.mark.parametrize(
        "line, message",
        [("s_base abc", "could not convert"), ("foo 1", "unknown base quantity"),
         ("v_base", "expected")],
    )
    def test_bad_base_line_reports_line_number(self, line, message):
        with pytest.raises(FeederFileError, match=f":3: {message}"):
            parse_feeder(f"[base]\ns_base 1.0\n{line}\n[bus]\na\n[source]\na 1.0\n")

    @pytest.mark.parametrize(
        "text",
        ["[bus]\na b\n", "[bus]\na\n[source]\na\n", "[bus]\na\n[load]\na 0.1\n"],
        ids=["bus", "source", "load"],
    )
    def test_wrong_token_count_reports_line_number(self, text):
        line = text.count("\n")
        with pytest.raises(FeederFileError, match=f":{line}: expected"):
            parse_feeder(text)

    def test_malformed_branch_reports_line_number(self):
        with pytest.raises(FeederFileError, match=":2:"):
            parse_feeder("[branch]\na b 0.05\n")

    def test_bundled_feeder_parses(self):
        model = load_feeder(bundled_feeder_path())
        assert len(model.buses) == 12
        assert len(model.branches) == 11
        assert model.source == "1"
        assert model.v0 == 1.05
