"""Tests for the brute-force grid sweep and its frontier curves."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_feeder import deep_feeder, radial_feeders

import feederlimits.feeder
import feederlimits.sweep
from feederlimits import bundled_feeder_path
from feederlimits.errors import (
    ConvergenceError,
    DomainError,
    NoFeasiblePointError,
    VoltageLimitError,
)
from feederlimits.feeder import (
    BranchSpec,
    FeederModel,
    PowerFlowResult,
    load_feeder,
    single_branch_model,
    solve_feeder,
    thevenin_impedance,
)
from feederlimits.limits import TwoBusCase, marginal_transfer, thermal_limit
from feederlimits.sweep import (
    FrontierPoint,
    SweepConfig,
    best_reactive_point,
    frontier_curves,
    locus_estimate,
    run_sweep,
)
from feederlimits.twobus import ComplexPower, Impedance

SQ2 = math.sqrt(2.0)
Z45 = Impedance(1.0 / SQ2, 1.0 / SQ2)


def full_scan(model, bus, config, capped=True):
    """Textbook frontier: every grid point solved, each column in grid order.
    With ``capped=False`` each point is solved without the voltage cap and
    dropped when some |V| is over it."""
    v_cap = config.v_plus + 1e-9
    frontier = []
    for p in config.p_values():
        best = None
        for q in config.q_values():
            try:
                res = solve_feeder(
                    model, {bus: ComplexPower(p, q)}, v_cap=v_cap if capped else math.inf
                )
            except (ConvergenceError, VoltageLimitError):
                continue
            if max(map(abs, res.voltages.values())) > v_cap:
                continue
            if any(
                res.branch_currents[br.from_bus, br.to_bus] > br.ampacity + 1e-9
                for br in model.branches
            ):
                continue
            p0 = res.s0_sub.p
            if config.p_plus is not None and p0 > config.p_plus + 1e-9:
                continue
            if best is None or p0 > best.p0_sub or (p0 == best.p0_sub and abs(q) < abs(best.q_gen)):
                max_current = max(res.branch_currents.values())
                best = FrontierPoint(p, q, p0, max_current, abs(res.voltages[bus]))
        if best is not None:
            frontier.append(best)
    return frontier


@st.composite
def bus_sweeps(draw):
    """A random radial feeder with random ampacities, the generator at any
    bus but the source, and a sweep grid with a random voltage and
    substation limit.  Half the time the loads are scaled to at most 1e-3 pu
    and the ampacities kept within 1 pu, so that the voltage floors are
    more often positive and the other buses' currents bounded."""
    model, _ = draw(radial_feeders())
    light = draw(st.booleans())
    ampacity = st.floats(0.3, 1.0) if light else st.floats(0.3, 3.0) | st.just(math.inf)
    branches = tuple(dataclasses.replace(br, ampacity=draw(ampacity)) for br in model.branches)
    loads = model.loads
    if light:
        loads = {bus: ComplexPower(1e-3 * s.p, 1e-3 * s.q) for bus, s in loads.items()}
    model = dataclasses.replace(model, branches=branches, loads=loads)
    config = SweepConfig(
        p_range=(-0.5, 2.0, 0.25),
        q_range=(-2.0, 1.0, 0.25),
        v_plus=draw(st.floats(0.95, 1.2)),
        p_plus=draw(st.none() | st.floats(0.0, 1.5)),
    )
    buses = [bus for bus in model.buses if bus != model.source]
    return model, draw(st.sampled_from(buses)), config


def bits(points):
    return [[float.hex(v) for v in dataclasses.astuple(pt)] for pt in points]


def assert_columns_agree(model, bus, config):
    """Every point of run_sweep's frontier is best_reactive_point's point for
    its column, to the bit, and every column run_sweep drops has none."""
    q_values = config.q_values()
    columns = [
        best_reactive_point(model, bus, p, q_values, config.v_plus, config.p_plus)
        for p in config.p_values()
    ]
    expected = [pt for pt in columns if pt is not None]
    if not expected:
        with pytest.raises(NoFeasiblePointError):
            run_sweep(model, bus, config)
        return
    assert bits(run_sweep(model, bus, config).frontier) == bits(expected)


def reactive_load_model(load_q):
    """One branch with a reactive load at the generator bus, so that the scan
    tries the reactive powers q in order of |q − load_q|, not in grid order."""
    return FeederModel(
        buses=("0", "g"),
        branches=(BranchSpec("0", "g", Z45, math.inf),),
        loads={"g": ComplexPower(0.0, load_q)},
        source="0",
        v0=1.0,
    )


def fake_transfers(monkeypatch, p0_at):
    """Make the sweep's solver transfer ``p0_at[q]`` at each q, well within
    every limit; returns the list of q solved, in order."""
    calls = []

    def solve(model, injections, v_cap):
        q = injections["g"].q
        calls.append(q)
        s0 = ComplexPower(p0_at[q], 0.0)
        return PowerFlowResult({"0": 1.0, "g": 1.0}, {("0", "g"): 0.1}, s0, 1)

    monkeypatch.setattr(feederlimits.sweep, "solve_feeder", solve)
    return calls


def count_calls(monkeypatch, module, name, results=None):
    """Wrap ``module.name`` so that each call appends its arguments to the
    returned list, and its return value to ``results`` when given."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        value = fn(*args, **kwargs)
        if results is not None:
            results.append(value)
        return value

    monkeypatch.setattr(module, name, counting)
    return calls


def coarse_config(**overrides):
    base = dict(
        p_range=(0.0, 1.2, 0.05),
        q_range=(-1.2, 0.4, 0.05),
        v_plus=1.06,
        p_plus=None,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_grid_includes_both_endpoints(self):
        config = coarse_config(p_range=(0.0, 1.0, 0.25))
        assert config.p_values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            coarse_config(p_range=(0.0, 1.0, 0.0))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            coarse_config(q_range=(1.0, 0.0, 0.1))

    @pytest.mark.parametrize(
        "p_range",
        [(0.0, 1.0, math.nan), (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.inf)],
    )
    def test_non_finite_range_rejected(self, p_range):
        with pytest.raises(DomainError, match="finite"):
            coarse_config(p_range=p_range)

    @pytest.mark.parametrize("v_plus", [0.0, -1.0, math.nan])
    def test_nonpositive_voltage_limit_rejected(self, v_plus):
        with pytest.raises(DomainError, match="voltage limit"):
            coarse_config(v_plus=v_plus)

    @pytest.mark.parametrize("p_plus", [math.nan, math.inf])
    def test_non_finite_substation_limit_rejected(self, p_plus):
        with pytest.raises(DomainError, match="substation power limit"):
            coarse_config(p_plus=p_plus)

    @pytest.mark.parametrize(
        "p_range, q_range, count",
        [
            # 4001 x 8001 points, about 3.2 times the cap
            ((0.0, 4.0, 0.001), (-4.0, 4.0, 0.001), "32012001"),
            # (hi - lo) / step overflows a float
            ((-1e308, 1e308, 1e-300), (-1.2, 0.4, 0.05), "inf"),
        ],
    )
    def test_oversized_grid_rejected_with_its_count(self, p_range, q_range, count):
        with pytest.raises(DomainError, match=f"grid of {count} points"):
            coarse_config(p_range=p_range, q_range=q_range)

    def test_grid_at_the_cap_accepted(self):
        # 1000 x 10000 points, exactly the cap; only the short axis is built
        config = coarse_config(p_range=(0.0, 999.0, 1.0), q_range=(0.0, 9999.0, 1.0))
        assert len(config.p_values()) == 1000


class TestBestReactivePoint:
    def test_discards_voltage_violations(self):
        model = single_branch_model(Z45, v0=1.0)
        pt = best_reactive_point(model, "g", 0.9, [0.0], v_plus=1.06, p_plus=None)
        assert pt is None  # q = 0 at this drive overruns the voltage limit

    def test_keeps_feasible_point(self):
        model = single_branch_model(Z45, v0=1.0)
        pt = best_reactive_point(model, "g", 0.05, [0.0], v_plus=1.06, p_plus=None)
        assert pt is not None
        assert pt.vg <= 1.06 + 1e-9

    def test_ampacity_filter(self):
        model = single_branch_model(Z45, v0=1.0, ampacity=0.05)
        pt = best_reactive_point(model, "g", 0.5, [0.0, -0.2], v_plus=1.06, p_plus=None)
        assert pt is None

    def test_substation_limit_filter(self):
        model = single_branch_model(Z45, v0=1.0)
        pt = best_reactive_point(model, "g", 0.2, [0.0], v_plus=1.06, p_plus=0.05)
        assert pt is None

    def test_exact_tie_goes_to_lower_grid_index(self):
        # complex arithmetic is exactly conjugate-symmetric, so on a purely
        # resistive branch q = ±0.1 transfer the same power to the bit
        model = single_branch_model(Impedance(0.5, 0.0), v0=1.0)
        p0 = {
            q: solve_feeder(model, {"g": ComplexPower(0.1, q)}, v_cap=1.06 + 1e-9).s0_sub.p
            for q in (-0.1, 0.1)
        }
        assert p0[-0.1].hex() == p0[0.1].hex()
        pt = best_reactive_point(model, "g", 0.1, [-0.3, -0.1, 0.1, 0.3], 1.06, None)
        assert pt.q_gen == -0.1
        assert pt.p0_sub == p0[-0.1]

    def test_exact_tie_goes_to_lower_grid_index_out_of_scan_order(self, monkeypatch):
        # the load's reactive power makes q = 0.3 the point of smaller
        # current bound, so it is solved before q = -0.3 at grid index 0
        calls = fake_transfers(monkeypatch, {-0.3: -1.0, 0.3: -1.0})
        pt = best_reactive_point(reactive_load_model(0.2), "g", 0.1, [-0.3, 0.3], 1.06, None)
        assert calls == [0.3, -0.3]
        assert pt.q_gen == -0.3

    @pytest.mark.parametrize(
        "p0_at, winner",
        [
            ({-0.5: 0.30}, -0.5),
            ({-0.5: 0.30, -0.9: 0.31}, -0.9),
            ({-0.5: 0.30, 0.0: 0.29}, -0.5),
            ({-0.5: 0.30, 0.2: 0.30}, 0.2),
            ({-0.5: 0.30, -0.7: 0.30}, -0.5),
            ({-0.5: 0.30, 0.5: 0.30}, -0.5),
        ],
        ids=[
            "a-point-beats-none",
            "larger-transfer-wins",
            "smaller-transfer-loses",
            "tie-goes-to-smaller-abs-q",
            "tie-stays-at-smaller-abs-q",
            "tie-in-abs-q-stays-at-lower-index",
        ],
    )
    def test_points_rank_by_transfer_then_abs_q_then_grid_index(self, monkeypatch, p0_at, winner):
        # the load puts q = -0.5 first in the scan; each other point then
        # challenges it, from a higher or a lower grid index
        calls = fake_transfers(monkeypatch, p0_at)
        q_values = sorted(p0_at)
        pt = best_reactive_point(reactive_load_model(-0.5), "g", 0.1, q_values, 1.06, None)
        assert calls == sorted(q_values, key=lambda q: abs(q + 0.5))
        assert (pt.q_gen, pt.p0_sub) == (winner, p0_at[winner])

    @pytest.mark.parametrize("v_plus", [math.nan, 0.0, -1.0])
    def test_nonpositive_voltage_limit_rejected(self, v_plus):
        # a NaN cap fails every comparison, so it would cap nothing, and a
        # limit of 0 would reject every point in silence
        model = single_branch_model(Impedance(0.5, 0.5), v0=1.0)
        with pytest.raises(DomainError, match="voltage limit must be positive"):
            best_reactive_point(model, "g", 0.9, [0.0], v_plus, None)

    @pytest.mark.parametrize("p_plus", [math.nan, math.inf, -math.inf])
    def test_non_finite_substation_limit_rejected(self, p_plus):
        model = single_branch_model(Impedance(0.5, 0.5), v0=1.0)
        with pytest.raises(DomainError, match="substation power limit must be finite"):
            best_reactive_point(model, "g", 0.1, [-0.2, 0.0], 1.06, p_plus)

    def test_without_a_finite_cap_no_point_is_cut(self):
        # i_min = |c|·0 is NaN here, since |c| overflows; the point is feasible
        model = FeederModel(
            buses=("0", "g"),
            branches=(BranchSpec("0", "g", Impedance(0.0, 0.0), math.inf),),
            loads={},
            source="0",
            v0=2.0,
        )
        pt = best_reactive_point(model, "g", 1.5e308, [1.5e308], math.inf, None)
        assert (pt.q_gen, pt.p0_sub, pt.vg) == (1.5e308, 1.5e308, 2.0)

    @pytest.mark.parametrize("q_values", [[0.0], []], ids=["one-point", "no-point"])
    @pytest.mark.parametrize("bus", ["1", "zz"], ids=["source", "unknown"])
    def test_bad_bus_raises_the_solvers_error_before_any_solve(self, monkeypatch, bus, q_values):
        model = load_feeder(bundled_feeder_path())
        with pytest.raises(DomainError) as solver:
            solve_feeder(model, {bus: ComplexPower(0.5, 0.0)})
        calls = count_calls(monkeypatch, feederlimits.sweep, "solve_feeder")
        with pytest.raises(DomainError) as scan:
            best_reactive_point(model, bus, 0.5, q_values, 1.06, None)
        assert str(scan.value) == str(solver.value)
        assert calls == []

    def test_stored_point_reproducible(self):
        model = single_branch_model(Z45, v0=1.0)
        q_values = [round(-1.0 + 0.05 * k, 10) for k in range(29)]
        pt = best_reactive_point(model, "g", 0.6, q_values, v_plus=1.06, p_plus=None)
        res = solve_feeder(model, {"g": ComplexPower(pt.p_gen, pt.q_gen)})
        assert res.s0_sub.p == pt.p0_sub
        assert abs(res.voltages["g"]) == pt.vg


class TestRunSweep:
    def test_measured_marginal_matches_closed_form(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(model, "g", coarse_config())
        expected = marginal_transfer(TwoBusCase(v0=1.0, z=Z45, v_plus=1.06, i_plus=1.0))
        # a grid of step h can miss the peak by O(h) in the controls
        assert report.measured_p0_marginal == pytest.approx(expected, abs=0.1)
        assert abs(report.errors.p0_marginal) < 0.1

    def test_refining_grid_tightens_marginal_error(self):
        model = single_branch_model(Z45, v0=1.0)
        coarse = run_sweep(model, "g", coarse_config())
        fine = run_sweep(
            model,
            "g",
            coarse_config(p_range=(0.0, 1.2, 0.01), q_range=(-1.2, 0.4, 0.01)),
        )
        assert abs(fine.errors.p0_marginal) <= abs(coarse.errors.p0_marginal) + 1e-12

    def test_thermal_measurement_against_closed_form(self):
        model = single_branch_model(Z45, v0=1.0, ampacity=0.9)
        report = run_sweep(
            model,
            "g",
            coarse_config(p_range=(0.0, 1.2, 0.02), q_range=(-1.2, 0.4, 0.01)),
        )
        case = TwoBusCase(v0=1.0, z=Z45, v_plus=1.06, i_plus=0.9)
        predicted = thermal_limit(case)
        assert report.predicted_thermal is not None
        # the feasible corner narrows near the limit, so a coarse grid
        # under-measures the attainable generation slightly
        assert report.measured_pg_thermal <= predicted.sg.p + 1e-9
        assert report.measured_pg_thermal == pytest.approx(predicted.sg.p, abs=0.1)
        assert report.errors.pg_thermal == pytest.approx(
            predicted.sg.p - report.measured_pg_thermal, abs=1e-12
        )

    def test_unbounded_ampacity_leaves_thermal_unpredicted(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(model, "g", coarse_config())
        assert report.predicted_thermal is None
        assert report.errors.pg_thermal is None
        assert report.errors.p0_thermal is None

    def test_impossible_voltage_limit_raises(self):
        model = single_branch_model(Z45, v0=1.0)
        with pytest.raises(NoFeasiblePointError):
            run_sweep(model, "g", coarse_config(v_plus=0.5))

    def test_source_above_voltage_limit_raises(self):
        # with P < 0 the generator bus falls below V+, but the source stays above it
        model = single_branch_model(Z45, v0=1.0)
        assert best_reactive_point(model, "g", -0.2, [0.0], v_plus=0.99, p_plus=None) is None
        with pytest.raises(NoFeasiblePointError):
            run_sweep(model, "g", coarse_config(p_range=(-1.0, 0.2, 0.05), v_plus=0.99))

    @pytest.mark.parametrize("bus", ["1", "zz"])
    def test_bad_bus_fails_before_any_power_flow(self, monkeypatch, bus):
        def no_power_flow(*args, **kwargs):
            raise AssertionError("power flow ran before the bus was checked")

        monkeypatch.setattr(feederlimits.sweep, "solve_feeder", no_power_flow)
        model = load_feeder(bundled_feeder_path())
        with pytest.raises(DomainError):
            run_sweep(model, bus, coarse_config())

    @settings(max_examples=60, deadline=None)
    @given(bus_sweeps())
    def test_pruned_scan_equals_full_scan(self, sweep):
        model, bus, config = sweep
        frontier = full_scan(model, bus, config)
        if not frontier:
            with pytest.raises(NoFeasiblePointError):
                run_sweep(model, bus, config)
            return
        report = run_sweep(model, bus, config)
        assert bits(report.frontier) == bits(frontier)
        marginal = max(frontier, key=lambda pt: pt.p0_sub)
        thermal = max(frontier, key=lambda pt: pt.p_gen)
        measured = (
            report.measured_pg_marginal,
            report.measured_p0_marginal,
            report.measured_pg_thermal,
            report.measured_p0_thermal,
        )
        expected = (marginal.p_gen, marginal.p0_sub, thermal.p_gen, thermal.p0_sub)
        assert [v.hex() for v in measured] == [v.hex() for v in expected]

    @settings(max_examples=60, deadline=None)
    @given(bus_sweeps())
    def test_bounds_hold_at_every_point(self, sweep):
        # sharper than comparing frontiers: the best point of a column is
        # usually among the first scanned, so a bound that is too tight
        # would rarely change one
        model, bus, config = sweep
        scan = feederlimits.sweep._ColumnScan(model, bus, config.v_plus, config.p_plus)
        for p in config.p_values():
            for q in config.q_values():
                admitted = scan.admit(p, q)
                try:
                    res = solve_feeder(model, {bus: ComplexPower(p, q)}, v_cap=scan.v_cap)
                except (ConvergenceError, VoltageLimitError):
                    assert admitted is None
                    continue
                # the current of the branch feeding each bus, in BFS order
                current = [0.0, *(res.branch_currents[key] for key in model._branch_keys)]
                feasible = all(i <= a for i, a in zip(current, scan.amp))
                p0 = res.s0_sub.p
                if feasible and p0 <= scan.p_cap:
                    vg = abs(res.voltages[bus])
                    expected = FrontierPoint(p, q, p0, max(res.branch_currents.values()), vg)
                    assert admitted is not None
                    assert bits([admitted]) == bits([expected])
                else:
                    assert admitted is None
                kept = scan.column(p, [q])
                if not kept:
                    assert not feasible
                    continue
                if feasible:
                    i_min = kept[0][0]
                    for j, d, _ in scan.path:
                        assert current[j] >= i_min - d
                    assert p0 <= scan.transfer_bound(p, i_min)

    @settings(max_examples=60, deadline=None)
    @given(bus_sweeps())
    def test_columns_equal_best_reactive_point(self, sweep):
        assert_columns_agree(*sweep)

    def test_columns_equal_best_reactive_point_below_a_junction(self):
        model = load_feeder(bundled_feeder_path())
        config = coarse_config(p_range=(0.0, 3.2, 0.2), q_range=(-2.6, 0.4, 0.2))
        assert_columns_agree(model, "8", config)

    def test_leaf_sweep_solves_few_points(self, monkeypatch):
        calls = count_calls(monkeypatch, feederlimits.sweep, "solve_feeder")
        model = single_branch_model(Z45, v0=1.0, ampacity=0.9)
        config = coarse_config(p_range=(0.0, 4.0, 0.1), q_range=(-4.0, 4.0, 0.1))
        report = run_sweep(model, "g", config)
        assert report.frontier
        points = len(config.p_values()) * len(config.q_values())
        # the ampacity rule alone leaves 156 of these 3,321 points, 4.7 %;
        # the transfer bound cuts that to 62
        assert len(calls) < 0.03 * points

    def test_voltage_cap_proof_is_tried_rarely(self, monkeypatch):
        # with no ampacity every point is solved; the solver tries its cap
        # proof only when the floor that the iterate's contraction rate
        # promises clears the cap, and after a failed try only once the
        # voltage change has halved: 3,806 tries here, 6,989 without the wait
        model = single_branch_model(Z45, v0=1.0)
        config = coarse_config(p_range=(0.0, 4.0, 0.1), q_range=(-4.0, 4.0, 0.1))
        # a state the capped solver returns ran the same arithmetic as an
        # uncapped solve, so an uncapped scan that drops every state over the
        # cap finds the same frontier without trying a single proof
        expected = full_scan(model, "g", config, capped=False)
        proofs = count_calls(monkeypatch, feederlimits.feeder, "_voltage_floor")
        report = run_sweep(model, "g", config)
        assert bits(report.frontier) == bits(expected)
        assert len(proofs) <= 4_000

    def test_voltage_cap_proof_holds_where_the_cap_rejects_most_points(self, monkeypatch):
        # on the criterion-5 window most solved points lie over the voltage
        # cap; each of them is rejected by one proof try, which never fails
        model = load_feeder(bundled_feeder_path())
        config = coarse_config(p_range=(0.0, 3.2, 0.1), q_range=(-2.6, 0.4, 0.05))
        floors = []
        proofs = count_calls(monkeypatch, feederlimits.feeder, "_voltage_floor", floors)
        run_sweep(model, "12", config)
        assert len(proofs) == 908
        assert None not in floors

    @pytest.mark.parametrize(
        "bus, solved",
        # feeder12's bus 8 feeds buses 11 and 12; without the losses of the
        # whole path both solve more points: all 272 at bus 8, 208 at bus 12
        [("8", 243), ("12", 137)],
    )
    def test_feeder12_sweep_equals_full_scan_and_solves_fewer_points(
        self, monkeypatch, bus, solved
    ):
        model = load_feeder(bundled_feeder_path())
        config = coarse_config(p_range=(0.0, 3.2, 0.2), q_range=(-2.6, 0.4, 0.2))
        frontier = full_scan(model, bus, config)
        calls = count_calls(monkeypatch, feederlimits.sweep, "solve_feeder")
        report = run_sweep(model, bus, config)
        assert bits(report.frontier) == bits(frontier)
        assert len(calls) <= solved

    def test_deep_feeder_sweep_equals_full_scan_and_solves_fewer_points(self, monkeypatch):
        # generator at the far end of a 21-branch main: its own branch holds
        # about 1/21 of the path resistance
        model, bus = deep_feeder(seed=1)
        s_scale = model.v0**2 / thevenin_impedance(model, bus).magnitude()
        # the criterion-5 window in units of V0²/|Z|, 16 x 16 points
        config = coarse_config(
            p_range=(0.0, 0.59 * s_scale, 0.59 * s_scale / 15),
            q_range=(-0.48 * s_scale, 0.074 * s_scale, 0.554 * s_scale / 15),
        )
        frontier = full_scan(model, bus, config)
        calls = count_calls(monkeypatch, feederlimits.sweep, "solve_feeder")
        report = run_sweep(model, bus, config)
        assert len(frontier) > 10
        assert bits(report.frontier) == bits(frontier)
        # 134 of 256; the bound of the generator's own branch alone left 228,
        # and most of what is left are points over the voltage cap
        assert len(calls) < 0.6 * len(config.p_values()) * len(config.q_values())

    @pytest.mark.parametrize(
        "z, ampacity",
        [(Impedance(0.0, 0.0), math.inf), (Impedance(0.3, 0.4), 3.0)],
        ids=["zero-impedance-unbounded-ampacity", "floor-below-zero"],
    )
    def test_no_bound_where_no_voltage_floor_is_proved(self, z, ampacity):
        # the first branch's drop |z|·ampacity is 0·inf = NaN, or 1.5 pu
        # against V0 = 1, so no floor bounds the loaded buses 1 and 3
        model = FeederModel(
            buses=("0", "1", "2", "3"),
            branches=(
                BranchSpec("0", "1", z, ampacity),
                BranchSpec("1", "2", Z45, 0.9),
                BranchSpec("1", "3", Impedance(0.05, 0.05), 1.0),
            ),
            loads={"1": ComplexPower(0.1, 0.02), "3": ComplexPower(0.2, 0.05)},
            source="0",
            v0=1.0,
        )
        config = coarse_config(p_range=(0.0, 1.6, 0.1), q_range=(-1.6, 0.4, 0.1))
        scan = feederlimits.sweep._ColumnScan(model, "2", config.v_plus, config.p_plus)
        # bus 2's own branch, then bus 1's, by BFS index
        assert [(j, d) for j, d, _ in scan.path] == [(2, 0.0), (1, math.inf)]
        frontier = full_scan(model, "2", config)
        assert frontier
        assert not any(math.isnan(v) for pt in frontier for v in dataclasses.astuple(pt))
        assert bits(run_sweep(model, "2", config).frontier) == bits(frontier)

    def test_feeder_load_shifts_measured_generation(self):
        load = ComplexPower(0.3, 0.1)
        bare = single_branch_model(Z45, v0=1.0)
        loaded = FeederModel(
            buses=("0", "g"),
            branches=(BranchSpec("0", "g", Z45, math.inf),),
            loads={"g": load},
            source="0",
            v0=1.0,
        )
        config = coarse_config(p_range=(0.0, 1.5, 0.05))
        rb = run_sweep(bare, "g", config)
        rl = run_sweep(loaded, "g", config)
        # the load is at the generator bus, so the frontier shifts by its
        # real power while the prediction error stays comparable
        assert rl.measured_pg_marginal == pytest.approx(
            rb.measured_pg_marginal + load.p, abs=0.1
        )
        assert abs(rl.errors.p0_marginal) < 0.1


class TestLocusEstimate:
    def test_reproduces_voltage_limit_when_resolved(self):
        case = TwoBusCase(v0=1.0, z=Z45, v_plus=1.06, i_plus=10.0)
        est = locus_estimate(case, 0.6)
        assert est is not None
        sg, current = est.sg, est.current
        assert sg.p == pytest.approx(0.6, abs=1e-10)
        model = single_branch_model(case.z, v0=1.0)
        res = solve_feeder(model, {"g": sg})
        assert abs(res.voltages["g"]) == pytest.approx(1.06, abs=1e-8)
        assert max(res.branch_currents.values()) == pytest.approx(current, abs=1e-8)

    def test_reactive_line_branch(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.0, 0.5), v_plus=1.06, i_plus=10.0)
        est = locus_estimate(case, 0.8)
        assert est is not None
        sg = est.sg
        assert sg.p == pytest.approx(0.8, abs=1e-10)
        model = single_branch_model(case.z, v0=1.0)
        res = solve_feeder(model, {"g": sg})
        assert abs(res.voltages["g"]) == pytest.approx(1.06, abs=1e-8)

    def test_unreachable_generation_returns_none(self):
        case = TwoBusCase(v0=1.0, z=Z45, v_plus=1.06, i_plus=10.0)
        assert locus_estimate(case, 50.0) is None


class TestFrontierCurves:
    def test_estimates_match_measurements_on_active_limit(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(
            model,
            "g",
            coarse_config(p_range=(0.55, 0.75, 0.05), q_range=(-1.2, 0.4, 0.005)),
        )
        for rec in frontier_curves(report):
            assert not math.isnan(rec["q_gen_est"])
            # re-solving at the estimated reactive power must land back on
            # the voltage limit with the estimated current
            res = solve_feeder(
                model, {"g": ComplexPower(rec["p_gen"], rec["q_gen_est"])}
            )
            assert abs(res.voltages["g"]) == pytest.approx(1.06, abs=1e-6)
            assert max(res.branch_currents.values()) == pytest.approx(
                rec["current_est"], abs=1e-6
            )
            # the measured optimum sits within a grid step of the estimate
            assert rec["q_gen"] == pytest.approx(rec["q_gen_est"], abs=0.01)
            assert rec["max_current"] == pytest.approx(rec["current_est"], abs=0.02)

    def test_low_generation_diverges_from_estimates(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(
            model,
            "g",
            coarse_config(p_range=(0.0, 0.1, 0.05), q_range=(-0.5, 0.5, 0.05)),
        )
        recs = frontier_curves(report)
        assert recs[0]["p_gen"] == 0.0
        assert recs[0]["p0_sub"] == pytest.approx(0.0, abs=1e-9)
        # below the activation level the measured optimum keeps q near zero
        # while the voltage-limit locus demands a clear offset
        assert abs(recs[0]["q_gen"] - recs[0]["q_gen_est"]) > 0.05

    def test_unreachable_estimate_is_nan(self):
        # on a resistive line the voltage-limit locus has no point at zero generation
        model = single_branch_model(Impedance(1.0, 0.0), v0=1.0)
        report = run_sweep(
            model, "g", coarse_config(p_range=(0.0, 0.2, 0.1), q_range=(-0.5, 0.5, 0.1))
        )
        rec = frontier_curves(report)[0]
        assert rec["p_gen"] == 0.0
        assert math.isnan(rec["current_est"]) and math.isnan(rec["q_gen_est"])

    def test_empty_frontier_raises(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(model, "g", coarse_config(p_range=(0.0, 0.2, 0.1)))
        with pytest.raises(NoFeasiblePointError, match="empty frontier"):
            frontier_curves(dataclasses.replace(report, frontier=[]))

    def test_record_field_order_is_stable(self):
        model = single_branch_model(Z45, v0=1.0)
        report = run_sweep(
            model, "g", coarse_config(p_range=(0.0, 0.2, 0.1), q_range=(-0.4, 0.2, 0.1))
        )
        recs = frontier_curves(report)
        assert list(recs[0]) == [
            "p_gen",
            "p0_sub",
            "max_current",
            "current_est",
            "q_gen",
            "q_gen_est",
            "vg",
        ]
