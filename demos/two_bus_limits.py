"""Walk through the transfer limits of a single distribution line.

A generator exports over one series impedance toward a strong substation
bus. We compute the thermal limit (current at ampacity, voltage at its
cap) and the marginal limit (incremental losses eat incremental
generation), then show which one binds as the ampacity varies.
"""

from feederlimits import Impedance, TwoBusCase, binding_limit

# a lossy rural-style line: R/X = 1, one per-unit ohm total
z = Impedance.from_ratio(1.0)

print("line: r=%.5f x=%.5f  |Z|=%.3f  R/X=%.2f" % (z.r, z.x, z.magnitude(), z.lam()))
print("source voltage 1.00 pu, generator voltage cap 1.06 pu")
print()
print("%8s %10s %10s %10s %10s %10s" % ("ampacity", "binding", "pg_limit",
                                        "p0_limit", "efficiency", "pf_gen"))

for i_plus in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2):
    case = TwoBusCase(v0=1.0, z=z, v_plus=1.06, i_plus=i_plus)
    report = binding_limit(case)
    point = report.thermal if report.binding.value == "thermal" else report.marginal
    print("%8.2f %10s %10.4f %10.4f %10.4f %10.4f"
          % (i_plus, report.binding.value, point.sg.p, point.s0.p,
             point.efficiency, point.pf_gen))

print()
print("small ampacities bind thermally; once the line can carry the")
print("marginal point's current (about 0.79 pu here) the loss-driven")
print("marginal limit takes over and extra ampacity buys nothing")
