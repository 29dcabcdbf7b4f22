"""Tests for the closed-form two-bus power flow."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from feederlimits.errors import DegenerateImpedanceError, DomainError, NoSolutionError
from feederlimits.limits import boundary_generation, upf_limit_generation
from feederlimits.twobus import (
    Branch,
    ComplexPower,
    Impedance,
    RotatedPower,
    boundary_power,
    discriminant,
    feasible,
    net_power_transferred,
    rotate,
    solve,
    unrotate,
    upf_limit_power,
)

Z45 = Impedance(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))  # |Z| = 1, R/X = 1
# finite values kept clear of underflow, so relative rounding bounds hold
NORMAL_FLOATS = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


def random_feasible_cases(n, seed, margin=0.02):
    """Random rotated injections with a comfortably positive discriminant."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        p_t = rng.uniform(-0.2, 2.0)
        q_t = rng.uniform(-1.5, 1.5)
        v0 = rng.uniform(0.9, 1.1)
        if discriminant(RotatedPower(p_t, q_t), v0) > margin:
            cases.append((RotatedPower(p_t, q_t), v0))
    return cases


class TestImpedance:
    def test_magnitude_and_lambda(self):
        z = Impedance(3.0, 4.0)
        assert z.magnitude() == 5.0
        assert z.lam() == 0.75

    def test_lambda_infinite_for_resistive_line(self):
        assert Impedance(1.0, 0.0).lam() == math.inf

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Impedance(-0.1, 0.2)

    def test_nan_components_rejected(self):
        for r, x in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                Impedance(r, x)

    def test_from_ratio_of_one_is_the_hand_built_line(self):
        assert Impedance.from_ratio(1.0) == Z45

    @settings(max_examples=300)
    @given(
        lam=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        z_mag=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    def test_from_ratio_round_trips(self, lam, z_mag):
        z = Impedance.from_ratio(lam, z_mag)
        assert 0.0 <= z.r < math.inf and 0.0 <= z.x < math.inf
        assert z.magnitude() == pytest.approx(z_mag, rel=1e-15)
        assert z.lam() == pytest.approx(lam, rel=1e-15)


class TestRotate:
    def test_identity_impedance(self):
        assert rotate(ComplexPower(1.0, 0.0), Impedance(1.0, 0.0)) == RotatedPower(1.0, 0.0)

    def test_pure_reactance_rotates_quarter_turn(self):
        assert rotate(ComplexPower(0.0, 1.0), Impedance(0.0, 1.0)) == RotatedPower(1.0, 0.0)

    def test_matches_complex_conjugate_product(self):
        s, z = ComplexPower(0.5, -0.2), Impedance(0.3, 0.4)
        expected = s.as_complex() * z.as_complex().conjugate()
        got = rotate(s, z)
        assert got.p_t == pytest.approx(expected.real, abs=1e-15)
        assert got.q_t == pytest.approx(expected.imag, abs=1e-15)
        assert (got.p_t, got.q_t) == pytest.approx((0.07, -0.26))

    def test_zero_impedance_rejected(self):
        with pytest.raises(DegenerateImpedanceError):
            rotate(ComplexPower(1.0, 0.0), Impedance(0.0, 0.0))

    # r² + x² is 0 or subnormal: dividing by it would lose digits or overflow
    @pytest.mark.parametrize("r, x", [(1e-200, 0.0), (1e-161, 1e-161)])
    def test_underflowing_impedance_is_not_zero(self, r, x):
        with pytest.raises(DomainError, match="impedance magnitude squared underflows"):
            rotate(ComplexPower(1.0, 0.0), Impedance(r, x))


class TestUnrotate:
    def test_identity(self):
        assert unrotate(RotatedPower(1.0, 0.0), Impedance(1.0, 0.0)) == ComplexPower(1.0, 0.0)

    def test_round_trip(self):
        s = ComplexPower(0.7, -0.3)
        z = Impedance(0.5, 0.5)
        back = unrotate(rotate(s, z), z)
        assert back.p == pytest.approx(s.p, abs=1e-12)
        assert back.q == pytest.approx(s.q, abs=1e-12)

    def test_matches_complex_division_oracle(self):
        s_t = RotatedPower(0.37407, -0.74953)
        z = Impedance(0.70711, 0.70711)
        expected = complex(s_t.p_t, s_t.q_t) / z.as_complex().conjugate()
        got = unrotate(s_t, z)
        assert got.p == pytest.approx(expected.real, abs=1e-14)
        assert got.q == pytest.approx(expected.imag, abs=1e-14)
        assert (got.p, got.q) == pytest.approx((0.79451, -0.26550), abs=1e-4)

    def test_round_trip_error_below_1e12_over_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = ComplexPower(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z = Impedance(rng.uniform(0.01, 2), rng.uniform(0.01, 2))
            back = unrotate(rotate(s, z), z)
            assert abs(back.p - s.p) < 1e-12
            assert abs(back.q - s.q) < 1e-12


    @settings(max_examples=300)
    @given(
        p=NORMAL_FLOATS,
        q=NORMAL_FLOATS,
        r=NORMAL_FLOATS.map(abs),
        x=NORMAL_FLOATS.map(abs),
    )
    def test_round_trip_property(self, p, q, r, x):
        z = Impedance(r, x)
        assume(z.magnitude() > 1e-6)
        s = ComplexPower(p, q)
        back = unrotate(rotate(s, z), z)
        assert abs(back.p - p) <= 1e-12 * s.magnitude()
        assert abs(back.q - q) <= 1e-12 * s.magnitude()


class TestSolve:
    def test_open_circuit_high_branch(self):
        sol = solve(RotatedPower(0.0, 0.0), 1.0, Branch.HIGH_VOLTAGE)
        assert sol.vg_sq == pytest.approx(1.0)
        assert sol.losses_t == pytest.approx(0.0)

    def test_open_circuit_low_branch_is_short_circuit_root(self):
        sol = solve(RotatedPower(0.0, 0.0), 1.0, Branch.LOW_VOLTAGE)
        assert sol.vg_sq == pytest.approx(0.0)
        assert sol.losses_t == pytest.approx(1.0)

    def test_transfer_point_hits_voltage_limit(self):
        # marginal-limit injection for a unit-|Z| line with R/X = 1
        p_t = 1.06 * (1.06 - 1.0 / math.sqrt(2.0))
        q_t = -1.06 / math.sqrt(2.0)
        sol = solve(RotatedPower(p_t, q_t), 1.0, Branch.HIGH_VOLTAGE)
        assert sol.vg_sq == pytest.approx(1.06**2, abs=1e-6)
        # expanded quartic residual
        res = sol.vg_sq**2 - (1.0 + 2 * p_t) * sol.vg_sq + p_t**2 + q_t**2
        assert abs(res) < 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(NoSolutionError):
            solve(RotatedPower(-0.3, 0.0), 1.0, Branch.HIGH_VOLTAGE)

    def test_nonpositive_reference_voltage_rejected(self):
        with pytest.raises(DomainError):
            solve(RotatedPower(0.0, 0.0), 0.0, Branch.HIGH_VOLTAGE)

    def test_high_branch_dominates_low_branch(self):
        for s_t, v0 in random_feasible_cases(100, seed=3):
            high = solve(s_t, v0, Branch.HIGH_VOLTAGE)
            low = solve(s_t, v0, Branch.LOW_VOLTAGE)
            assert high.vg_sq >= low.vg_sq

    def test_loss_voltage_identity_both_branches(self):
        for s_t, v0 in random_feasible_cases(1000, seed=11):
            for branch in Branch:
                sol = solve(s_t, v0, branch)
                res = sol.losses_t + sol.vg_sq - v0 * v0 - 2.0 * s_t.p_t
                assert abs(res) < 1e-10

    def test_expanded_quartic_on_both_branches(self):
        for s_t, v0 in random_feasible_cases(1000, seed=13):
            for branch in Branch:
                sol = solve(s_t, v0, branch)
                res = (
                    sol.vg_sq**2
                    - (v0 * v0 + 2.0 * s_t.p_t) * sol.vg_sq
                    + s_t.p_t**2
                    + s_t.q_t**2
                )
                assert abs(res) < 1e-9

    def test_agrees_with_fixed_point_iteration(self):
        # independent oracle: in rotated coordinates the line behaves as a
        # unit impedance, so iterate Vg = V0 + conj(S̃g / Vg) to a fixed point
        count = 0
        for s_t, v0 in random_feasible_cases(300, seed=17, margin=0.05):
            sg = complex(s_t.p_t, s_t.q_t)
            vg = complex(v0, 0.0)
            sol = solve(s_t, v0, Branch.HIGH_VOLTAGE)
            if abs(sg) > 0.85 * sol.vg_sq:
                continue  # fixed point only contracts on lightly loaded circuits
            for _ in range(2000):
                vg = v0 + (sg / vg).conjugate()
            assert abs(vg) ** 2 == pytest.approx(sol.vg_sq, abs=1e-8)
            count += 1
        assert count >= 100


class TestFeasible:
    def test_no_load(self):
        assert feasible(RotatedPower(0.0, 0.0), 1.0)

    def test_boundary_is_feasible(self):
        assert feasible(RotatedPower(-0.25, 0.0), 1.0)

    def test_beyond_boundary(self):
        assert not feasible(RotatedPower(-0.3, 0.0), 1.0)


def ratio_form_transfer(sg: ComplexPower, z: Impedance, vg_sq: float, v0: float) -> float:
    """Transferred power parametrised by the R/X ratio (oracle form)."""
    lam = z.r / z.x
    denom = lam + 1.0 / lam
    return (
        sg.p * (1.0 / lam - lam) / denom
        - sg.q * 2.0 / denom
        + ((vg_sq - v0 * v0) / z.magnitude()) * lam / math.sqrt(lam * lam + 1.0)
    )


class TestNetPowerTransferred:
    def test_no_generation_no_flow(self):
        assert net_power_transferred(ComplexPower(0.0, 0.0), Z45, 1.0, 1.0) == 0.0

    def test_marginal_point_transfer(self):
        sg = ComplexPower(0.79451, -0.26550)
        sol = solve(rotate(sg, Z45), 1.0, Branch.HIGH_VOLTAGE)
        p0 = net_power_transferred(sg, Z45, sol.vg_sq, 1.0)
        assert p0 == pytest.approx(0.35289, abs=1e-4)
        # cross-check against Pg - R * losses / |Z|^2
        assert p0 == pytest.approx(sg.p - Z45.r * sol.losses_t, abs=1e-10)

    def test_agrees_with_ratio_parametrised_form(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            sg = ComplexPower(rng.uniform(0, 1.0), rng.uniform(-1.0, 0.5))
            z = Impedance(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            v0 = rng.uniform(0.9, 1.1)
            s_t = rotate(sg, z)
            if discriminant(s_t, v0) < 0.02:
                continue
            sol = solve(s_t, v0, Branch.HIGH_VOLTAGE)
            direct = net_power_transferred(sg, z, sol.vg_sq, v0)
            assert abs(direct - ratio_form_transfer(sg, z, sol.vg_sq, v0)) < 1e-10
            checked += 1

    def test_unbounded_without_constraints(self):
        # at unity rotated power factor the transfer keeps growing with P̃g
        z = Impedance(0.6, 0.8)
        transfers = []
        for p_t in (1.0, 10.0, 100.0):
            s_t = RotatedPower(p_t, 0.0)
            sol = solve(s_t, 1.0, Branch.HIGH_VOLTAGE)
            sg = unrotate(s_t, z)
            transfers.append(net_power_transferred(sg, z, sol.vg_sq, 1.0))
        assert transfers[0] < transfers[1] < transfers[2]


class TestUpfLimitPower:
    def test_direct_substitution(self):
        assert upf_limit_power(0.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_zero_transfer_point(self):
        assert upf_limit_power(2.1236, 1.1236, 1.0, 1.0) == pytest.approx(0.0)

    def test_matches_large_ratio_limit_of_transfer_formula(self):
        # the reference constant here is (v0^2 + vg^2), the convention this
        # heuristic adopts; the ratio form shares every pg/qg coefficient
        rng = np.random.default_rng(29)
        lam = 1e6
        for _ in range(20):
            sg = ComplexPower(rng.uniform(0.0, 1.5), rng.uniform(-1.0, 1.0))
            vg_sq = rng.uniform(0.5, 1.5)
            v0 = rng.uniform(0.9, 1.1)
            z = Impedance(lam / math.sqrt(1 + lam * lam), 1.0 / math.sqrt(1 + lam * lam))
            shifted = ratio_form_transfer(sg, z, vg_sq, v0) + 2.0 * v0 * v0 * z.r
            limit = upf_limit_power(sg.p, vg_sq, v0, 1.0)
            assert abs(shifted - limit) < 1e-4

    def test_zero_impedance_rejected(self):
        with pytest.raises(DegenerateImpedanceError):
            upf_limit_power(0.5, 1.0, 1.0, 0.0)


class TestUpfLimitGeneration:
    def test_unity_power_factor_lands_on_voltage_limit(self):
        for lam in (0.5, 1.0, 3.0, 100.0):
            z = Impedance(lam / math.sqrt(1 + lam * lam), 1.0 / math.sqrt(1 + lam * lam))
            pg = upf_limit_generation(z, 1.0, 1.06)
            sol = solve(rotate(ComplexPower(pg, 0.0), z), 1.0, Branch.HIGH_VOLTAGE)
            assert sol.vg_sq == pytest.approx(1.06**2, abs=1e-12)

    def test_resistive_line(self):
        # |Vg| = V0 + R·Pg/|Vg| at unity power factor on a resistive line
        pg = upf_limit_generation(Impedance(0.2, 0.0), 1.0, 1.06)
        assert pg == pytest.approx(1.06 * 0.06 / 0.2, abs=1e-12)

    def test_reactive_line_never_reaches_limit(self):
        assert math.isnan(upf_limit_generation(Impedance(0.0, 1.0), 1.0, 1.06))

    def test_zero_impedance_rejected(self):
        with pytest.raises(DegenerateImpedanceError):
            upf_limit_generation(Impedance(0.0, 0.0), 1.0, 1.06)


class TestBoundaryGeneration:
    def test_lossless_line_delivers_everything(self):
        z = Impedance(0.0, 1.0)
        assert boundary_generation(z, 1.0, 1.06) == pytest.approx(
            boundary_power(z, 1.0, 1.06), abs=1e-12
        )

    def test_generation_minus_losses_is_boundary_transfer(self):
        # on the boundary the rotated losses equal |Vg|^2 = V+^2
        for z in (Impedance(0.3, 0.4), Impedance(1.0, 0.0), Z45):
            pg = boundary_generation(z, 1.0, 1.06)
            losses = 1.06**2 * z.r / z.magnitude() ** 2
            assert pg - losses == pytest.approx(boundary_power(z, 1.0, 1.06), abs=1e-12)

    def test_nan_below_half_source_voltage(self):
        assert math.isnan(boundary_generation(Z45, 1.0, 0.4))


class TestBoundaryPower:
    def test_pure_reactance(self):
        assert boundary_power(Impedance(0.0, 1.0), 1.0, 1.06) == pytest.approx(
            math.sqrt(1.06**2 - 0.25), abs=1e-9
        )
        assert boundary_power(Impedance(0.0, 1.0), 1.0, 1.06) == pytest.approx(0.93467, abs=1e-5)

    def test_boundary_point_has_zero_discriminant(self):
        v0, vg = 1.0, 1.06
        p_t = vg * vg - v0 * v0 / 2.0
        q_t = -v0 * math.sqrt(vg * vg - v0 * v0 / 4.0)
        assert abs(discriminant(RotatedPower(p_t, q_t), v0)) < 1e-12

    def test_resistive_line_ignores_voltage(self):
        assert boundary_power(Impedance(1.0, 0.0), 1.0, 0.1) == pytest.approx(-0.5)

    def test_half_source_voltage_kills_root_term(self):
        z = Impedance(0.3, 0.4)
        expected = -(1.0 * z.r) / (2.0 * z.magnitude() ** 2)
        assert boundary_power(z, 1.0, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_domain_error_below_quarter_ratio(self):
        with pytest.raises(DomainError):
            boundary_power(Impedance(0.1, 1.0), 1.0, 0.4)
