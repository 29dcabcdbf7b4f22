"""Tests for the thermal and marginal transfer limits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from feederlimits.errors import (
    DegenerateImpedanceError,
    DomainError,
    FeederLimitsError,
    ThermalLimitError,
)
from feederlimits.limits import (
    Limit,
    TwoBusCase,
    binding_limit,
    boundary_generation,
    lambda_prime,
    locus_estimate,
    marginal_limit,
    marginal_transfer,
    metrics,
    thermal_limit,
    thermal_rotated_roots,
    upf_limit_generation,
)
from feederlimits.twobus import Branch, ComplexPower, Impedance, discriminant, rotate, solve

SQ2 = math.sqrt(2.0)
UNIT_CASE = TwoBusCase(
    v0=1.0, z=Impedance(1.0 / SQ2, 1.0 / SQ2), v_plus=1.06, i_plus=1.0
)


def case_with(lam: float, z_mag: float = 1.0, v0: float = 1.0, v_plus: float = 1.06,
              i_plus: float = 1.0) -> TwoBusCase:
    scale = math.sqrt(1.0 + lam * lam)
    z = Impedance(z_mag * lam / scale, z_mag / scale)
    return TwoBusCase(v0=v0, z=z, v_plus=v_plus, i_plus=i_plus)


class TestThermalLimit:
    def test_rotated_coordinates_unit_case(self):
        p_t, q_t = thermal_rotated_roots(UNIT_CASE)
        assert p_t == pytest.approx(0.5618, abs=1e-5)
        assert q_t == pytest.approx(-0.89888, abs=1e-5)

    def test_point_sits_on_both_limits(self):
        point = thermal_limit(UNIT_CASE)
        assert point.vg == pytest.approx(1.06, abs=1e-9)
        assert point.current == pytest.approx(1.0, abs=1e-9)

    def test_matched_voltage_limits_give_pure_reactive_root(self):
        # V+ = V0 puts the real coordinate at (|Z| I+)^2 / 2
        case = TwoBusCase(v0=1.0, z=Impedance(0.6, 0.8), v_plus=1.0, i_plus=1.0)
        p_t, q_t = thermal_rotated_roots(case)
        assert p_t == pytest.approx(0.5)
        assert q_t == pytest.approx(-0.86603, abs=1e-5)

    def test_zero_ampacity_with_voltage_rise_is_unattainable(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=1.06, i_plus=0.0)
        with pytest.raises(ThermalLimitError):
            thermal_rotated_roots(case)

    def test_zero_ampacity_matched_voltages_is_open_circuit(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=1.0, i_plus=0.0)
        point = thermal_limit(case)
        assert point.sg.p == pytest.approx(0.0, abs=1e-12)
        assert point.current == pytest.approx(0.0, abs=1e-9)

    def test_oversized_ampacity_misses_voltage_locus(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=1.06, i_plus=100.0)
        with pytest.raises(ThermalLimitError):
            thermal_limit(case)

    @pytest.mark.parametrize("i_plus", [1e10, 1e154, 1e200, 1e300, 1.7e308])
    def test_huge_finite_ampacity_misses_voltage_locus(self, i_plus):
        # the ampacity's square leaves the float range from about 1.3e154
        case = TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=1.06, i_plus=i_plus)
        with pytest.raises(ThermalLimitError, match="does not intersect"):
            thermal_limit(case)

    def test_negative_root_maximises_generated_power(self):
        p_t, q_neg = thermal_rotated_roots(UNIT_CASE)
        q_pos = -q_neg
        z = UNIT_CASE.z
        assert q_neg < 0.0
        pg_neg = (p_t * z.r - q_neg * z.x) / z.magnitude() ** 2
        pg_pos = (p_t * z.r - q_pos * z.x) / z.magnitude() ** 2
        assert pg_neg > pg_pos

    def test_substation_power_is_generation_minus_resistive_losses(self):
        point = thermal_limit(UNIT_CASE)
        z = UNIT_CASE.z
        losses_p = z.r * point.current**2
        assert point.s0.p == pytest.approx(point.sg.p - losses_p, abs=1e-12)


class TestMarginalLimit:
    def test_unit_case_rotated_coordinates(self):
        point = marginal_limit(UNIT_CASE)
        s_t = rotate(point.sg, UNIT_CASE.z)
        assert s_t.p_t == pytest.approx(1.06 * (1.06 - 1.0 / SQ2), abs=1e-12)
        assert s_t.q_t == pytest.approx(-1.06 / SQ2, abs=1e-12)

    def test_unit_case_operating_point(self):
        point = marginal_limit(UNIT_CASE)
        assert point.sg.p == pytest.approx(0.79451, abs=1e-5)
        assert point.sg.q == pytest.approx(-0.26550, abs=1e-5)
        assert point.s0.p == pytest.approx(0.35289, abs=1e-5)
        assert point.vg == pytest.approx(1.06, abs=1e-9)
        assert point.efficiency == pytest.approx(0.44417, abs=1e-4)
        assert point.pf_gen == pytest.approx(0.94845, abs=1e-4)

    def test_transfer_shortcut_matches_operating_point(self):
        for lam in (0.05, 0.5, 1.0, 3.0, 50.0):
            case = case_with(lam)
            assert marginal_transfer(case) == pytest.approx(
                marginal_limit(case).s0.p, abs=1e-10
            )

    def test_resistive_line_uses_no_reactive_power(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.2, 0.0), v_plus=1.06, i_plus=1.0)
        point = marginal_limit(case)
        assert point.sg.q == pytest.approx(0.0, abs=1e-12)
        assert point.sg.p == pytest.approx(1.06 * 0.06 / 0.2, abs=1e-9)

    def test_reactive_line_transfers_without_loss(self):
        case = TwoBusCase(v0=1.0, z=Impedance(0.0, 0.25), v_plus=1.06, i_plus=1.0)
        point = marginal_limit(case)
        assert point.s0.p == pytest.approx(1.06 / 0.25, abs=1e-9)
        assert point.s0.p == pytest.approx(point.sg.p, abs=1e-9)

    def test_typical_long_rural_feeder(self):
        # lambda = 1.85, |Z| = 0.203, V0 = 1.05, V+ = 1.06
        case = case_with(1.85, z_mag=0.203, v0=1.05, v_plus=1.06)
        assert marginal_limit(case).sg.p == pytest.approx(1.866, abs=2e-3)

    def test_transfer_increases_with_voltage_headroom(self):
        transfers = [
            marginal_transfer(case_with(1.0, v_plus=vp)) for vp in (1.0, 1.03, 1.06, 1.1)
        ]
        assert transfers == sorted(transfers)

    def test_rotated_reactive_coordinate_always_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            case = case_with(
                lam=10.0 ** rng.uniform(-3, 3),
                z_mag=rng.uniform(0.05, 2.0),
                v0=rng.uniform(0.9, 1.1),
                v_plus=rng.uniform(0.95, 1.15),
            )
            point = marginal_limit(case)
            assert rotate(point.sg, case.z).q_t < 0.0

    def test_short_line_transfer_approaches_ideal(self):
        case = case_with(1e-6, z_mag=0.1)
        assert marginal_transfer(case) == pytest.approx(1.06 / 0.1, abs=1e-4)


class TestLambdaPrime:
    def test_matched_limits(self):
        assert lambda_prime(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_standard_limits(self):
        assert lambda_prime(1.0, 1.06) == pytest.approx(1.0 / math.sqrt(4 * 1.06**2 - 1))
        assert lambda_prime(1.0, 1.06) == pytest.approx(0.53495, abs=1e-5)

    def test_window_extremes(self):
        assert lambda_prime(0.9, 1.1) == pytest.approx(0.44832, abs=1e-5)
        assert lambda_prime(1.1, 0.9) == pytest.approx(0.77205, abs=1e-5)

    def test_undefined_when_limit_below_half_source(self):
        with pytest.raises(DomainError):
            lambda_prime(1.0, 0.4)


class TestBranchOfMarginalPoint:
    def test_inductive_line_is_high_voltage(self):
        assert marginal_limit(case_with(1.0)).branch is Branch.HIGH_VOLTAGE

    def test_resistive_dominated_line_is_low_voltage(self):
        assert marginal_limit(case_with(0.3)).branch is Branch.LOW_VOLTAGE

    def test_crossover_tie_classifies_high(self):
        lam_c = lambda_prime(1.0, 1.06)
        case = TwoBusCase(v0=1.0, z=Impedance(lam_c, 1.0), v_plus=1.06, i_plus=1.0)
        assert marginal_limit(case).branch is Branch.HIGH_VOLTAGE

    @settings(derandomize=True, database=None, max_examples=200)
    @given(
        lam=st.floats(0.05, 20.0),
        z_mag=st.floats(0.05, 2.0),
        v_plus=st.floats(1.0, 1.1),
        i_plus=st.floats(0.05, 5.0),
    )
    def test_agrees_with_solved_branch(self, lam, z_mag, v_plus, i_plus):
        # away from the double roots, re-solving each limit point on the
        # branch it names lands on the same |Vg|² and rotated losses
        lam_c = lambda_prime(1.0, v_plus)
        assume(abs(i_plus * z_mag - v_plus) >= 1e-6 * v_plus)
        assume(abs(lam - lam_c) >= 1e-6 * lam_c)
        case = case_with(lam, z_mag=z_mag, v_plus=v_plus, i_plus=i_plus)
        report = binding_limit(case)
        points = [report.marginal]
        if report.thermal is not None:
            points.append(report.thermal)
        for point in points:
            sol = solve(rotate(point.sg, case.z), case.v0, point.branch)
            assert point.vg**2 == pytest.approx(sol.vg_sq, abs=1e-9)
            assert (point.current * z_mag) ** 2 == pytest.approx(sol.losses_t, abs=1e-9)


class TestBindingLimit:
    def test_tight_ampacity_binds_thermal(self):
        report = binding_limit(case_with(1.0, i_plus=0.3))
        assert report.binding is Limit.THERMAL
        assert report.thermal is not None
        assert report.thermal_error is None
        assert report.thermal.sg.p < report.marginal.sg.p
        assert report.thermal.sg.p == pytest.approx(0.2873, abs=1e-4)

    def test_loose_ampacity_binds_marginal(self):
        report = binding_limit(case_with(1.0, i_plus=0.95))
        assert report.binding is Limit.MARGINAL
        assert report.thermal is not None
        assert report.marginal.sg.p < report.thermal.sg.p

    def test_unattainable_thermal_point_defaults_to_marginal(self):
        report = binding_limit(case_with(1.0, i_plus=100.0))
        assert report.thermal is None
        assert report.binding is Limit.MARGINAL
        assert "does not intersect" in report.thermal_error

    def test_unbounded_ampacity_reports_why_thermal_is_missing(self):
        report = binding_limit(case_with(1.0, i_plus=math.inf))
        assert report.thermal is None
        assert "unbounded" in report.thermal_error

    def test_report_carries_crossover_ratio(self):
        report = binding_limit(UNIT_CASE)
        assert report.lambda_prime == pytest.approx(lambda_prime(1.0, 1.06))

    @settings(derandomize=True, database=None, max_examples=200)
    @given(
        lam=st.floats(0.05, 20.0),
        z_mag=st.floats(0.05, 2.0),
        v_plus=st.floats(1.0, 1.1),
        i_plus=st.floats(0.05, 5.0),
    )
    def test_limit_points_sit_on_their_limits(self, lam, z_mag, v_plus, i_plus):
        report = binding_limit(case_with(lam, z_mag=z_mag, v_plus=v_plus, i_plus=i_plus))
        assert report.marginal.vg == pytest.approx(v_plus, abs=1e-9)
        assert (report.thermal is None) == (report.thermal_error is not None)
        p_gen = [report.marginal.sg.p]
        if report.thermal is not None:
            assert report.thermal.current == pytest.approx(i_plus, abs=1e-9)
            assert report.thermal.vg == pytest.approx(v_plus, abs=1e-9)
            p_gen.append(report.thermal.sg.p)
        binding = report.marginal if report.binding is Limit.MARGINAL else report.thermal
        assert binding.sg.p == min(p_gen)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestExtremeMagnitudes:
    @settings(derandomize=True, database=None, max_examples=300)
    @given(
        v0=_log_uniform(1e-150, 1e150),
        v_plus=_log_uniform(1e-150, 1e150),
        r=_log_uniform(1e-150, 1e150),
        x=_log_uniform(1e-150, 1e150),
        i_plus=_log_uniform(1e-150, 1e150),
    )
    def test_binding_limit_is_finite_or_refused(self, v0, v_plus, r, x, i_plus):
        try:
            report = binding_limit(TwoBusCase(v0=v0, z=Impedance(r, x), v_plus=v_plus,
                                              i_plus=i_plus))
        except FeederLimitsError:
            return
        assert math.isfinite(report.lambda_prime)
        for point in (report.marginal, report.thermal):
            if point is None:
                continue
            values = (point.sg.p, point.sg.q, point.s0.p, point.s0.q, point.vg, point.current,
                      point.losses.p, point.losses.q, point.efficiency, point.pf_gen, point.pf_sub)
            assert all(map(math.isfinite, values))

    def test_operating_point_beyond_float_range_is_refused(self):
        with pytest.raises(DomainError, match="leaves the float range"):
            marginal_limit(TwoBusCase(v0=1e150, z=Impedance(1e-150, 1e-150), v_plus=1e150,
                                      i_plus=1.0))


class TestLocusCut:
    """The three closed-form points cut from the |Vg| = V+ circle by a line."""

    @settings(derandomize=True, database=None, max_examples=300)
    @given(
        lam=_log_uniform(1e-12, 1e12),
        z_mag=_log_uniform(0.05, 5.0),
        v0=st.floats(0.9, 1.1),
        v_plus=st.floats(0.95, 1.15),
        frac=st.floats(0.001, 0.999),
    )
    def test_estimate_lies_on_locus_at_requested_generation(self, lam, z_mag, v0, v_plus,
                                                             frac):
        case = case_with(lam, z_mag=z_mag, v0=v0, v_plus=v_plus)
        z = case.z
        # the generations for which a line of fixed P reaches the circle
        lo = (v_plus**2 * z.r - z_mag * v0 * v_plus) / z_mag**2
        hi = (v_plus**2 * z.r + z_mag * v0 * v_plus) / z_mag**2
        pg = lo + frac * (hi - lo)
        est = locus_estimate(case, pg)
        assert est is not None
        scale = est.sg.magnitude()
        assert est.sg.p == pytest.approx(pg, abs=1e-12 * scale)
        sol = solve(rotate(est.sg, z), v0, est.branch)
        assert sol.vg_sq == pytest.approx(v_plus**2, rel=1e-9)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(lam=_log_uniform(1e-12, 1e12), v0=st.floats(0.9, 1.1), v_plus=st.floats(0.95, 1.15))
    def test_unity_power_factor_point_lies_on_locus(self, lam, v0, v_plus):
        z = case_with(lam).z
        pg = upf_limit_generation(z, v0, v_plus)
        assume(not math.isnan(pg))
        sg_t = rotate(ComplexPower(pg, 0.0), z)
        branch = Branch.HIGH_VOLTAGE if v_plus**2 >= sg_t.p_t + v0**2 / 2 else Branch.LOW_VOLTAGE
        assert solve(sg_t, v0, branch).vg_sq == pytest.approx(v_plus**2, rel=1e-9)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(lam=_log_uniform(1e-12, 1e12), v0=st.floats(0.9, 1.1), v_plus=st.floats(0.95, 1.15))
    def test_boundary_point_has_zero_discriminant(self, lam, v0, v_plus):
        case = case_with(lam, v0=v0, v_plus=v_plus)
        pg = boundary_generation(case.z, v0, v_plus)
        est = locus_estimate(case, pg)
        assert est is not None
        assert discriminant(rotate(est.sg, case.z), v0) == pytest.approx(0.0, abs=1e-9)

    def test_near_reactive_estimate_matches_reactive_line(self):
        # dividing by R lost the 5th digit at r = 1e-12 and everything at 1e-16
        for r in (1e-12, 1e-16):
            for pg in (0.05, 0.1, 0.3):
                near = locus_estimate(TwoBusCase(1.0, Impedance(r, 0.5), 1.06, math.inf), pg)
                exact = locus_estimate(TwoBusCase(1.0, Impedance(0.0, 0.5), 1.06, math.inf), pg)
                assert near.current == pytest.approx(exact.current, rel=1e-9)
                assert near.sg.q == pytest.approx(exact.sg.q, rel=1e-9)


class TestMetrics:
    def test_lossless(self):
        eff, pf_g, pf_s = metrics(ComplexPower(1.0, 0.0), ComplexPower(1.0, 0.0))
        assert (eff, pf_g, pf_s) == (1.0, 1.0, 1.0)

    def test_no_generation_clamps_to_zero(self):
        eff, _, _ = metrics(ComplexPower(0.0, 0.5), ComplexPower(-0.1, 0.0))
        assert eff == 0.0

    def test_reverse_flow_clamps_to_zero(self):
        eff, _, _ = metrics(ComplexPower(0.2, 0.0), ComplexPower(-0.1, 0.0))
        assert eff == 0.0

    def test_power_factor_is_unsigned(self):
        _, pf_g, _ = metrics(ComplexPower(0.6, -0.8), ComplexPower(0.5, 0.0))
        assert pf_g == pytest.approx(0.6)

    def test_efficiency_curve_shape_over_ratio(self):
        # inductive and resistive extremes are efficient, the middle is not
        effs = {lam: marginal_limit(case_with(lam)).efficiency for lam in (0.01, 1.0, 100.0)}
        assert effs[0.01] > 0.9
        assert effs[100.0] > 0.9
        assert effs[1.0] < 0.5
        assert effs[1.0] == pytest.approx(0.44417, abs=1e-3)


class TestOperatingPoint:
    def test_branch_selection_tracks_voltage_limit(self):
        # the marginal injection for a low-ratio line solves onto the
        # low-voltage branch; the selected branch must land on |Vg| = V+
        case = case_with(0.3)
        point = marginal_limit(case)
        assert point.branch is Branch.LOW_VOLTAGE
        assert point.vg == pytest.approx(1.06, abs=1e-9)

    def test_power_balance(self):
        point = marginal_limit(UNIT_CASE)
        assert point.s0.p == pytest.approx(point.sg.p - point.losses.p, abs=1e-12)
        assert point.s0.q == pytest.approx(point.sg.q - point.losses.q, abs=1e-12)

    def test_loss_split_follows_impedance_angle(self):
        point = marginal_limit(UNIT_CASE)
        assert point.losses.p == pytest.approx(point.losses.q, abs=1e-12)


class TestCaseValidation:
    def test_negative_ampacity_rejected(self):
        with pytest.raises(ValueError):
            TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=1.06, i_plus=-1.0)

    def test_nonpositive_voltages_rejected(self):
        with pytest.raises(ValueError):
            TwoBusCase(v0=0.0, z=Impedance(0.5, 0.5), v_plus=1.06, i_plus=1.0)
        with pytest.raises(ValueError):
            TwoBusCase(v0=1.0, z=Impedance(0.5, 0.5), v_plus=-1.0, i_plus=1.0)

    def test_nan_parameters_rejected(self):
        z = Impedance(0.5, 0.5)
        # an infinite ampacity is unbounded, not bad input
        for v0, v_plus, i_plus in ((math.nan, 1.06, 1.0), (1.0, math.nan, 1.0),
                                   (1.0, 1.06, math.nan), (math.inf, 1.06, 1.0),
                                   (1.0, math.inf, 1.0)):
            with pytest.raises(DomainError):
                TwoBusCase(v0=v0, z=z, v_plus=v_plus, i_plus=i_plus)

    def test_zero_impedance_rejected(self):
        with pytest.raises(DegenerateImpedanceError):
            TwoBusCase(v0=1.0, z=Impedance(0.0, 0.0), v_plus=1.06, i_plus=1.0)
