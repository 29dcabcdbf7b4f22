"""Transfer limits and operating metrics as a function of the R/X ratio.

Reproduces the characteristic curves: generated and transferred power at
the marginal limit across six decades of R/X, together with where the
classical heuristics (unity power factor, solution boundary) sit. Writes
ratio_curves.csv next to this script.
"""

import os

import numpy as np

from feederlimits import (
    Impedance,
    TwoBusCase,
    boundary_power,
    lambda_prime,
    marginal_limit,
    marginal_transfer,
)

V0, V_PLUS, Z_MAG = 1.0, 1.06, 1.0

lams = np.logspace(-3, 3, 121)
rows = []
for lam in lams:
    z = Impedance.from_ratio(lam, Z_MAG)
    case = TwoBusCase(v0=V0, z=z, v_plus=V_PLUS, i_plus=1.0)
    point = marginal_limit(case)
    rows.append((lam, point.sg.p, point.s0.p, boundary_power(z, V0, V_PLUS),
                 point.efficiency, point.pf_gen, point.pf_sub))

data = np.array(rows)
out = os.path.join(os.path.dirname(__file__) or ".", "ratio_curves.csv")
np.savetxt(out, data, delimiter=",", fmt="%.10g",
           header="lambda,pg_marginal,p0_marginal,p0_boundary,efficiency,pf_gen,pf_sub",
           comments="")
print("wrote", out)

# a few landmarks worth reading off the table
crossover = lambda_prime(V0, V_PLUS)
print("branch crossover ratio lambda' = %.5f" % crossover)

mid = TwoBusCase(v0=V0, z=Impedance.from_ratio(1.0), v_plus=V_PLUS, i_plus=1.0)
print("worst-case efficiency near R/X = 1: %.4f" % marginal_limit(mid).efficiency)
print("transfer there: %.4f pu (closed form %.4f)"
      % (marginal_limit(mid).s0.p, marginal_transfer(mid)))

# efficiency recovers toward both extremes
for lam in (0.01, 100.0):
    case = TwoBusCase(v0=V0, z=Impedance.from_ratio(lam), v_plus=V_PLUS, i_plus=1.0)
    print("efficiency at R/X = %-6g: %.4f" % (lam, marginal_limit(case).efficiency))
