"""Self-test of the benchmark's checks: each must pass an exact result and
fail the same result perturbed.

    python3 perfbench/selftest.py

run.py calls ``main`` before it measures anything, so a check that has
stopped catching faults stops the benchmark. Exact results here come from
reference.py's own formulas, not from feederlimits.
"""

from __future__ import annotations

import math
import sys

import reference as ref
import spans

V0, VP = 1.0, 1.06
R = X = 1.0 / math.sqrt(2.0)  # acceptance criterion 4: R/X = 1, |Z| = 1


def _expect(failures, name, message, should_fail):
    if (message is not None) != should_fail:
        failures.append(f"{name}: {'accepted a perturbed' if should_fail else 'rejected an exact'}"
                        f" result ({message})")


def run_checks():
    """Return a list of checks that did not behave; empty when all did."""
    bad = []

    # marginal point: on |Vg| = V+ and transferring P0
    sg = ref.marginal_point(V0, R, X, VP)
    p0 = ref.marginal_transfer(V0, R, X, VP)
    if abs(p0 - (VP - R)) > 1e-15:
        bad.append(f"marginal_transfer: {p0!r} for criterion 4, expected V+ - R")
    _expect(bad, "marginal", ref.check_marginal(V0, R, X, VP, sg.real, sg.imag, p0), False)
    for dp, dq, d0 in ((1e-7, 0, 0), (0, 1e-7, 0), (0, 0, 1e-8)):
        _expect(bad, "marginal perturbed",
                ref.check_marginal(V0, R, X, VP, sg.real + dp, sg.imag + dq, p0 + d0), True)

    # the marginal point moves to the low-voltage root below lambda' ~ 0.535
    if not 0.534 < ref.lambda_prime(1.0, 1.06) < 0.536:
        bad.append("lambda_prime(1, 1.06) is not 0.535")
    lam = 0.2
    r_low, x_low = lam / math.hypot(lam, 1.0), 1.0 / math.hypot(lam, 1.0)
    low = ref.marginal_point(V0, r_low, x_low, VP)
    _expect(bad, "low-voltage marginal", ref.check_marginal(
        V0, r_low, x_low, VP, low.real, low.imag, ref.marginal_transfer(V0, r_low, x_low, VP)), False)

    # thermal point: on |Vg| = V+ carrying the ampacity current
    amp = 0.9
    th = ref.thermal_point(V0, R, X, VP, amp)
    _expect(bad, "thermal", ref.check_thermal(V0, R, X, VP, amp, th.real, th.imag, amp), False)
    for dp, dq, di in ((1e-7, 0, 0), (0, 1e-7, 0), (0, 0, 1e-8)):
        _expect(bad, "thermal perturbed",
                ref.check_thermal(V0, R, X, VP, amp, th.real + dp, th.imag + dq, amp + di), True)
    if ref.thermal_point(V0, R, X, VP, math.inf) is not None or \
            ref.thermal_point(V0, R, X, VP, 100.0) is not None:
        bad.append("thermal_point: found a point for an ampacity off the V+ locus")

    # binding names the smaller generation
    _expect(bad, "binding", ref.check_binding("marginal", sg.real, th.real), False)
    _expect(bad, "binding swapped", ref.check_binding("thermal", sg.real, th.real), True)
    _expect(bad, "binding no thermal", ref.check_binding("thermal", sg.real, None), True)

    # path sums over a tree listed leaves first, so the parent map must search
    feeder = ref.Feeder("s", 1.05, [
        ("b", "c", 0.25, 0.5, 2.0), ("a", "d", 0.125, 0.25, 0.5),
        ("s", "a", 0.5, 0.125, 3.0), ("a", "b", 0.0625, 0.0625, 1.0),
    ], {"c": (0.5, 0.1), "d": (0.001, 0.0)})
    want = feeder.equivalent("c")
    if want != (0.8125, 0.6875, 1.0):
        bad.append(f"Feeder.equivalent('c') = {want}, expected (0.8125, 0.6875, 1.0)")
    _expect(bad, "equivalent", ref.check_equivalent(want, 1.05, 0.8125, 0.6875, 1.0, 1.05), False)
    for args in ((0.8125 + 1e-11, 0.6875, 1.0, 1.05), (0.8125, 0.6875 - 1e-11, 1.0, 1.05),
                 (0.8125, 0.6875, 2.0, 1.05), (0.8125, 0.6875, 1.0, 1.0)):
        _expect(bad, "equivalent perturbed", ref.check_equivalent(want, 1.05, *args), True)
    if abs(feeder.current_bound("c") - (1.0 + 0.001 / 0.9)) > 1e-15:
        bad.append(f"Feeder.current_bound('c') = {feeder.current_bound('c')!r}")
    back = ref.read_feeder(feeder.to_text("self-test"))
    if back.equivalent("d") != feeder.equivalent("d") or back.loads != feeder.loads:
        bad.append("read_feeder(to_text()) does not round-trip")

    # frontier points: exact two-bus solutions inside V+ and the ampacity
    points = []
    for p, q in ((0.2, -0.1), (0.4, -0.2), (0.6, -0.3)):
        vg_sq, losses_t = ref.two_bus_roots(p, q, R, X, V0)[0]
        points.append((p, q, ref.transfer(p, R, X, losses_t), math.sqrt(losses_t), math.sqrt(vg_sq)))
    _expect(bad, "frontier two-bus", ref.check_frontier_two_bus(points, R, X, V0), False)
    _expect(bad, "frontier limits", ref.check_frontier_limits(points, VP, amp), False)
    for field, delta in ((2, 1e-7), (3, 1e-7), (4, 1e-7)):
        moved = [list(pt) for pt in points]
        moved[1][field] += delta
        _expect(bad, f"frontier two-bus perturbed field {field}",
                ref.check_frontier_two_bus([tuple(pt) for pt in moved], R, X, V0), True)
    top = max(pt[4] for pt in points)
    _expect(bad, "frontier above V+", ref.check_frontier_limits(points, top - 1e-6, amp), True)
    hot = max(pt[3] for pt in points)
    _expect(bad, "frontier above ampacity", ref.check_frontier_limits(points, VP, hot - 1e-6), True)

    # measured marginal transfer: within [0, tol] below the prediction; at
    # criterion 4's 0.01 pu step the first-order bound alone would be 0.02
    tol = ref.grid_tolerance(V0, R, X, VP, 0.01, 0.01)
    if not 0.0201 < tol < 0.03:
        bad.append(f"grid_tolerance at criterion 4's step is {tol!r}, expected 0.0235")
    _expect(bad, "measured marginal", ref.check_measured_marginal(0.35, 0.34, 0.02), False)
    _expect(bad, "measured marginal too low", ref.check_measured_marginal(0.35, 0.3299, 0.02), True)
    _expect(bad, "measured marginal too high", ref.check_measured_marginal(0.35, 0.35001, 0.02), True)
    _expect(bad, "measured marginal allowance",
            ref.check_measured_marginal(0.35, 0.35001, 0.02, feeder.load_allowance("c", VP, 1.0)),
            False)

    # tracer helpers
    if spans.solver_outcome(Exception("power flow stalled after 64 iterations (x)")) != \
            (spans.STALLED, 64):
        bad.append("solver_outcome misreads a stall")
    times = spans.import_times("import time: self [us] | cumulative | imported package\n"
                               "import time:      2763 |     112851 |     numpy\n")
    if times != {"numpy": 112.851}:
        bad.append(f"import_times misreads -X importtime output: {times}")
    return bad


def main() -> int:
    bad = run_checks()
    for line in bad:
        print("selftest: " + line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    status = main()
    print("selftest " + ("failed" if status else "passed"))
    sys.exit(status)
