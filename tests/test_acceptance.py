"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion. Tolerances are pinned here and must not be loosened without a
matching note in the project decision log.
"""

import math

import numpy as np
import pytest

from feederlimits import bundled_feeder_path
from feederlimits.feeder import (
    BranchSpec,
    FeederModel,
    load_feeder,
    single_branch_model,
    solve_feeder,
    thevenin_impedance,
)
from feederlimits.limits import (
    TwoBusCase,
    lambda_prime,
    marginal_limit,
    thermal_limit,
)
from feederlimits.sweep import (
    SweepConfig,
    best_reactive_point,
    frontier_curves,
    locus_estimate,
    run_sweep,
)
from feederlimits.twobus import (
    Branch,
    ComplexPower,
    Impedance,
    RotatedPower,
    discriminant,
    net_power_transferred,
    rotate,
    solve,
    unrotate,
)

SQ2 = math.sqrt(2.0)
Z45 = Impedance(1.0 / SQ2, 1.0 / SQ2)


def impedance_of_ratio(lam: float, z_mag: float = 1.0) -> Impedance:
    scale = math.sqrt(1.0 + lam * lam)
    return Impedance(z_mag * lam / scale, z_mag / scale)


def verdict(number: int, text: str):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_crossover_ratio_interval():
    """Crossover ratio spans [0.448, 0.772] over the standard voltage window."""
    grid = np.linspace(0.9, 1.1, 21)
    values = [lambda_prime(v0, vp) for v0 in grid for vp in grid]
    assert min(values) == pytest.approx(0.448, abs=0.01)
    assert max(values) == pytest.approx(0.772, abs=0.01)
    verdict(1, f"crossover ratio extremes {min(values):.4f}/{max(values):.4f} "
               "within 0.01 of 0.448/0.772")


def test_criterion_2_identity_suite():
    """Loss identity and expanded quartic hold on both branches, < 1e-9."""
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        s_t = RotatedPower(rng.uniform(-0.2, 2.0), rng.uniform(-1.5, 1.5))
        v0 = rng.uniform(0.9, 1.1)
        if discriminant(s_t, v0) <= 1e-6:
            continue
        for branch in Branch:
            sol = solve(s_t, v0, branch)
            res_linear = sol.losses_t + sol.vg_sq - v0 * v0 - 2.0 * s_t.p_t
            res_quartic = (
                sol.vg_sq**2
                - (v0 * v0 + 2.0 * s_t.p_t) * sol.vg_sq
                + s_t.p_t**2
                + s_t.q_t**2
            )
            worst = max(worst, abs(res_linear), abs(res_quartic))
        checked += 1
    assert worst < 1e-9
    verdict(2, f"identity residuals over 1000 cases, worst {worst:.2e} < 1e-9")


def test_criterion_3_marginal_point_is_constrained_maximum():
    """Perturbing along the voltage-limit locus never beats the marginal point."""
    eps = 1e-4
    v0, v_plus = 1.0, 1.06
    w = v_plus * v_plus
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0):
        z = impedance_of_ratio(lam)
        case = TwoBusCase(v0=v0, z=z, v_plus=v_plus, i_plus=100.0)
        point = marginal_limit(case)
        p_t_star = rotate(point.sg, z).p_t
        p0_star = point.s0.p
        for sign in (-1.0, 1.0):
            p_t = p_t_star + sign * eps
            # reactive coordinate keeping the squared voltage at the limit
            q_t = -math.sqrt((v0 * v0 + 2.0 * p_t) * w - w * w - p_t * p_t)
            sg = unrotate(RotatedPower(p_t, q_t), z)
            p0 = net_power_transferred(sg, z, w, v0)
            assert p0 <= p0_star + 50.0 * eps * eps
    verdict(3, "on-locus perturbations at eps=1e-4 never gain transfer "
               "beyond O(eps^2) for ratios 0.1..10")


def test_criterion_4_single_branch_sweep_matches_closed_form():
    """Measured limits on the default grid agree with predictions to 0.02 pu.

    The transferred power around its maximum is flat in the generated power,
    so the sweep pins the marginal transfer tightly while the generated power
    at the measured optimum wanders along the plateau; the assertion therefore
    targets the transferred powers and the thermal generation, which are the
    well-conditioned measurements.
    """
    model = single_branch_model(Z45, v0=1.0, ampacity=0.9)
    config = SweepConfig(
        p_range=(0.0, 4.0, 0.01),
        q_range=(-4.0, 4.0, 0.01),
        v_plus=1.06,
    )
    report = run_sweep(model, "g", config)
    assert report.predicted_thermal is not None
    assert abs(report.errors.p0_marginal) <= 0.02
    assert abs(report.errors.pg_thermal) <= 0.02
    assert abs(report.errors.p0_thermal) <= 0.02
    verdict(4, "single-branch sweep errors "
               f"p0_marginal={report.errors.p0_marginal:+.4f}, "
               f"pg_thermal={report.errors.pg_thermal:+.4f}, "
               f"p0_thermal={report.errors.p0_thermal:+.4f}, all within 0.02")


def test_criterion_5_bundled_feeder_reproduction():
    """End-bus prediction error <= 0.1 pu and the low-generation divergence."""
    model = load_feeder(bundled_feeder_path())
    config = SweepConfig(
        p_range=(0.0, 3.2, 0.02),
        q_range=(-2.6, 0.4, 0.01),
        v_plus=1.06,
    )
    report = run_sweep(model, "12", config)
    assert abs(report.errors.pg_marginal) <= 0.1

    records = frontier_curves(report)
    low = [r for r in records if r["vg"] < 1.05 and not math.isnan(r["q_gen_est"])]
    assert low, "no frontier points below voltage-constraint activation"
    low_gaps = [abs(r["q_gen"] - r["q_gen_est"]) for r in low]
    assert min(low_gaps) > 0.1

    # above activation, a locally refined reactive sweep lands on the
    # voltage-limit locus estimate to sub-milli-pu accuracy
    s_load = report.s_load
    for p_gen in (2.2, 2.6):
        est = locus_estimate(report.case, p_gen - s_load.p)
        assert est is not None
        q_est = est.sg.q + s_load.q
        q_values = [q_est - 0.02 + 2.5e-4 * k for k in range(161)]
        pt = best_reactive_point(model, "12", p_gen, q_values, 1.06, None)
        assert pt is not None
        assert abs(pt.q_gen - q_est) < 1e-3
    verdict(5, f"12-bus end-bus pg_marginal error {report.errors.pg_marginal:+.4f} "
               f"<= 0.1; reactive gap > 0.1 below activation (min {min(low_gaps):.3f}) "
               "and < 1e-3 above it")


def test_criterion_6_efficiency_extremes():
    """Transfer efficiency at the marginal point: high at ratio extremes,
    poor near ratio one."""
    effs = {}
    for lam in (0.01, 1.0, 100.0):
        case = TwoBusCase(v0=1.0, z=impedance_of_ratio(lam), v_plus=1.06, i_plus=1.0)
        effs[lam] = marginal_limit(case).efficiency
    assert effs[0.01] > 0.9
    assert effs[100.0] > 0.9
    assert effs[1.0] < 0.5
    assert effs[1.0] == pytest.approx(0.444, abs=1e-3)
    verdict(6, f"efficiencies {effs[0.01]:.3f}/{effs[1.0]:.3f}/{effs[100.0]:.3f} "
               "at ratios 0.01/1/100")


def nodal_thevenin_impedance(model: FeederModel, bus: str) -> complex:
    """Thevenin impedance by current injection into the nodal admittance system.

    Holds the source at fixed voltage, injects a unit current at ``bus`` and
    reads the voltage deviation there, independently of the radial path.
    """
    index = {b: k for k, b in enumerate(model.buses)}
    n = len(model.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in model.branches:
        adm = 1.0 / complex(br.z.r, br.z.x)
        i, j = index[br.from_bus], index[br.to_bus]
        y[i, i] += adm
        y[j, j] += adm
        y[i, j] -= adm
        y[j, i] -= adm
    keep = [k for k in range(n) if k != index[model.source]]
    rhs = np.zeros(len(keep), dtype=complex)
    rhs[keep.index(index[bus])] = 1.0
    dv = np.linalg.solve(y[np.ix_(keep, keep)], rhs)
    return complex(dv[keep.index(index[bus])])


def test_criterion_7_thevenin_matches_path_sum():
    """Path-sum Thevenin impedance equals an independent nodal solve, 1e-12."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 16))
        buses = tuple(str(k) for k in range(n))
        branches = []
        for k in range(1, n):
            parent = str(int(rng.integers(0, k)))
            z = Impedance(rng.uniform(0.001, 0.5), rng.uniform(0.001, 0.5))
            branches.append(BranchSpec(parent, str(k), z, 1.0))
        model = FeederModel(
            buses=buses, branches=tuple(branches), loads={}, source="0", v0=1.0
        )
        bus = str(int(rng.integers(1, n)))
        z_th = thevenin_impedance(model, bus)
        z_nodal = nodal_thevenin_impedance(model, bus)
        worst = max(worst, abs(z_th.r - z_nodal.real), abs(z_th.x - z_nodal.imag))
    assert worst < 1e-12
    verdict(7, f"50 random radial trees, worst nodal-solve residual {worst:.2e} < 1e-12")


def test_criterion_8_feeder_solver_matches_closed_form():
    """Sweep solver and closed-form solution agree on a single branch, 1e-8."""
    model = single_branch_model(Z45, v0=1.0)
    rng = np.random.default_rng(808)
    checked = 0
    worst = 0.0
    while checked < 200:
        sg = ComplexPower(rng.uniform(0.0, 0.6), rng.uniform(-0.6, 0.3))
        s_t = rotate(sg, Z45)
        if discriminant(s_t, 1.0) < 0.05:
            continue
        sol = solve(s_t, 1.0, Branch.HIGH_VOLTAGE)
        if abs(complex(s_t.p_t, s_t.q_t)) > 0.9 * sol.vg_sq:
            continue  # sweep converges only where the map contracts
        res = solve_feeder(model, {"g": sg})
        worst = max(worst, abs(abs(res.voltages["g"]) ** 2 - sol.vg_sq))
        checked += 1
    assert worst < 1e-8
    verdict(8, f"200 random injections, worst squared-voltage gap {worst:.2e} < 1e-8")
