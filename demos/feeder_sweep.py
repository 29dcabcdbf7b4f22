"""Validate the closed-form limits against a brute-force feeder sweep.

Loads the bundled 12-bus feeder, collapses it to a two-bus equivalent at
the far-end bus, and then checks the prediction the hard way: a grid
search over generator (P, Q) with a power flow at every point that
circuit laws cannot rule out, keeping only states inside the voltage and
ampacity envelope.

Coarser than the acceptance grid so it finishes in a few seconds.
"""

from feederlimits import (
    SweepConfig,
    bundled_feeder_path,
    frontier_curves,
    load_feeder,
    run_sweep,
)

model = load_feeder(bundled_feeder_path())
print("feeder: %d buses, %d branches, source %s at %.2f pu"
      % (len(model.buses), len(model.branches), model.source, model.v0))

config = SweepConfig(
    p_range=(0.0, 3.2, 0.05),
    q_range=(-2.6, 0.4, 0.025),
    v_plus=1.06,
)
report = run_sweep(model, "12", config)

case = report.case
print("two-bus equivalent at bus 12: |Z|=%.4f  R/X=%.3f  ampacity=%.2f"
      % (case.z.magnitude(), case.z.lam(), case.i_plus))
print()
print("                      predicted    measured       error")
print("marginal Pgen   %12.4f %11.4f %11.4f"
      % (report.predicted_marginal.sg.p + report.s_load.p,
         report.measured_pg_marginal, report.errors.pg_marginal))
print("marginal P0     %12.4f %11.4f %11.4f"
      % (report.predicted_marginal.s0.p, report.measured_p0_marginal,
         report.errors.p0_marginal))
if report.predicted_thermal is not None:
    print("thermal  Pgen   %12.4f %11.4f %11.4f"
          % (report.predicted_thermal.sg.p + report.s_load.p,
             report.measured_pg_thermal, report.errors.pg_thermal))

print()
print("frontier (every 8th point): the estimated reactive dispatch assumes")
print("the voltage limit is active, so it diverges at low generation")
print("%8s %10s %12s %12s %8s" % ("p_gen", "q_gen", "q_gen_est", "p0_sub", "vg"))
for rec in frontier_curves(report)[::8]:
    print("%8.2f %10.3f %12.3f %12.4f %8.4f"
          % (rec["p_gen"], rec["q_gen"], rec["q_gen_est"], rec["p0_sub"], rec["vg"]))
