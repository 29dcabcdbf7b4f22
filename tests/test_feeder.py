"""Tests for the radial feeder model, solver and two-bus equivalencing."""

import math

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
)
from feederlimits.feeder import (
    BranchSpec,
    FeederModel,
    load_feeder,
    parse_feeder,
    single_branch_model,
    solve_feeder,
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

    def test_model_is_hashable(self):
        a = load_feeder(bundled_feeder_path())
        b = load_feeder(bundled_feeder_path())
        assert a == b
        assert hash(a) == hash(b)

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

    @settings(derandomize=True, database=None, max_examples=300)
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

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(feederlimits.feeder, "_MAX_ITER", 2)
        model = single_branch_model(Impedance(0.01, 0.02), v0=1.0)
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
            solve_feeder(model, {"g": ComplexPower(0.5, 0.0)})


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

    def test_malformed_branch_reports_line_number(self):
        with pytest.raises(FeederFileError, match=":2:"):
            parse_feeder("[branch]\na b 0.05\n")

    def test_bundled_feeder_parses(self):
        model = load_feeder(bundled_feeder_path())
        assert len(model.buses) == 12
        assert len(model.branches) == 11
        assert model.source == "1"
        assert model.v0 == 1.05
