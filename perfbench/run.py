#!/usr/bin/env python3
"""Feeder-study benchmark for feederlimits.

    python3 perfbench/run.py --workload study-1branch --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py and README.md) for ``--seconds`` seconds
in this process, with no threads and no worker pool, in whole rounds. One
round is, in order:

1. one set-up probe: a fresh interpreter imports feederlimits, parses the
   workload's feeder and makes one warm-up call (probe.py setup);
2. an equivalents block (two_bus_equivalent at every study bus, a fixed
   number of passes) and a limits block (binding_limit over the workload's
   case set, a fixed number of passes);
3. one cold `feederlimits limits` process for the workload's case;
4. one sweep block: run_sweep over one interleaved column set of the
   workload's lattice, then frontier_curves;
5. a second equivalents block and limits block.

Each end-to-end timing is a quartile over the run's blocks, the one that
three blocks in four meet, so that the machine's drift between a fast and a
slow state moves single blocks, not the result. Every output is checked
against reference.py; a mismatch makes ``correct`` false.

With ``--trace 1`` each round runs the in-process blocks once untraced and
once with the span tracer installed (spans.py), reports the per-layer
metrics and the tracing overhead, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Only this process and
the processes it starts are measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as ref
import selftest
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BUNDLED = SRC / "feederlimits" / "data" / "feeder12.feeder"
CHILD_TIMEOUT_S = 60


def median(values):
    return statistics.median(values) if values else 0.0


def quartile(values, upper):
    """Upper quartile of times, or lower quartile of rates: the figure that
    three blocks in four meet. The machine alternates between a fast and a
    slow state; a quartile sits inside the slow state, which is the common
    one, while the median often falls between the two (README.md)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] if upper else q[0]


class Study:
    """One workload's inputs, the package objects built from them, and the
    running tallies of a benchmark run."""

    def __init__(self, wl: workloads.Workload, trace: bool):
        import feederlimits.feeder as F
        import feederlimits.limits as L
        import feederlimits.sweep as S
        from feederlimits.twobus import Impedance

        self.F, self.L, self.S = F, L, S
        self.wl = wl
        self.trace = trace
        self.tracer = spans.Tracer() if trace else None
        self.model = F.load_feeder(wl.feeder_path)
        self.cases = [
            L.TwoBusCase(v0=v0, z=Impedance(r, x), v_plus=vp, i_plus=amp)
            for v0, r, x, vp, amp in wl.cases
        ]
        self.configs = [S.SweepConfig(p_range=p_range, q_range=wl.q_range, v_plus=workloads.V_PLUS)
                        for p_range in workloads.subgrids(wl.p_range)]
        self.grid_points = [len(c.p_values()) * len(c.q_values()) for c in self.configs]
        self.path = {bus: wl.feeder.equivalent(bus) for bus in wl.study_buses}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.rounds = 0
        self.frontiers = {}      # sub-grid -> frontier of its first sweep
        self.best_p0 = {}        # sub-grid -> measured marginal transfer
        self.sweep_spans = []    # (traced block span, sub-grid)
        self.plain_s = self.traced_s = 0.0  # in-process block time, untraced and traced
        self.measured_gap = None  # lattice gap as a share of its tolerance

    # -- bookkeeping -------------------------------------------------------

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def fail(self, what, exc):
        self.failed += 1
        if self.failed <= 5:
            print(f"failed: {what}: {exc!r}", file=sys.stderr)

    def check(self, what, message):
        if message is not None:
            self.mismatches.append(f"{what}: {message}")
            if len(self.mismatches) <= 5:
                print(f"mismatch: {what}: {message}", file=sys.stderr)

    def _child(self, argv):
        self.attempted += 1
        try:
            start = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            wall = perf_counter() - start
        except subprocess.TimeoutExpired as exc:
            self.fail(argv[-1], exc)
            return None
        if proc.returncode != 0:
            self.fail(" ".join(argv[1:4]), proc.stderr.strip()[-300:])
            return None
        return start, wall, proc

    # -- child processes ---------------------------------------------------

    def setup_probe(self):
        """Cold set-up: fresh interpreter to a study ready for its first call."""
        wl = self.wl
        argv = [sys.executable] + (["-X", "importtime"] if self.trace else []) + [
            str(HERE / "probe.py"), "setup", wl.feeder_path, wl.bus, repr(workloads.V_PLUS)]
        got = self._child(argv)
        if got is None:
            return
        start, _wall, proc = got
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_s = info["ready"] - start
        if not 0.0 < setup_s < CHILD_TIMEOUT_S:
            self.check("setup", f"ready time {setup_s!r} s is not on this process's clock")
        self.sample("setup_s", setup_s)
        want = self.path[wl.bus]
        self.check("setup equivalent", ref.check_equivalent(
            want, wl.feeder.v0, info["r"], info["x"], want[2], info["v0"]))
        self.check("setup marginal", ref.check_marginal(
            wl.feeder.v0, want[0], want[1], workloads.V_PLUS, info["pg"], info["qg"], info["p0"]))
        if self.trace:
            imports = spans.import_times(proc.stderr)
            self.sample("import.numpy_ms", imports.get("numpy", 0.0))
            self.sample("import.feederlimits_ms", imports.get("feederlimits", 0.0))
            self.sample("feeder.parse_feeder_ms", info["parse_feeder_ms"])
            self.tracer.children.append({"probe": "setup", **info, "imports_ms": {
                k: v for k, v in imports.items() if k.split(".")[0] in ("numpy", "feederlimits")}})

    def cli_call(self):
        """One cold `feederlimits limits` process, checked against the reference."""
        wl = self.wl
        if self.trace:
            argv = [sys.executable, "-X", "importtime", str(HERE / "probe.py"), "cli"]
        else:
            argv = [sys.executable, "-m", "feederlimits.cli"]
        got = self._child(argv + ["limits"] + wl.cli_args)
        if got is None:
            return
        _start, wall, proc = got
        self.sample("cli_limits_ms", wall * 1e3)
        out = json.loads(proc.stdout)
        case, marginal, thermal = out["case"], out["marginal"], out["thermal"]
        r, x, amp = self.path[wl.bus]
        # the CLI prints 12 significant digits
        self.check("cli case", ref.check_equivalent(
            (r, x, float(format(amp, ".12g"))), wl.feeder.v0,
            case["r"], case["x"], case["i_plus"], case["v0"]))
        self.check_report("cli", case["v0"], r, x, case["v_plus"], amp,
                          marginal["pg"], marginal["qg"], marginal["p0"],
                          thermal and (thermal["pg"], thermal["qg"], thermal["current"]),
                          out["binding"])
        if self.trace:
            last = json.loads(proc.stderr.strip().splitlines()[-1])
            self.sample("cli.main_ms", last["main_ms"])

    def check_report(self, what, v0, r, x, v_plus, i_plus, pg, qg, p0, thermal, binding):
        self.check(what + " marginal", ref.check_marginal(v0, r, x, v_plus, pg, qg, p0))
        if thermal is None:
            if ref.thermal_point(v0, r, x, v_plus, i_plus) is not None:
                self.check(what + " thermal", "thermal point missing where one exists")
        else:
            self.check(what + " thermal", ref.check_thermal(v0, r, x, v_plus, i_plus, *thermal))
        self.check(what + " binding", ref.check_binding(binding, pg, thermal and thermal[0]))

    # -- in-process blocks -------------------------------------------------

    def equivalents_block(self, tag):
        fn = self.F.two_bus_equivalent
        model, buses, v_plus = self.model, self.wl.study_buses, workloads.V_PLUS
        results = []
        start = perf_counter()
        for _ in range(self.wl.equivalent_passes):
            for bus in buses:
                try:
                    results.append((bus, fn(model, bus, v_plus=v_plus)))
                except Exception as exc:  # counted, and the run goes on
                    self.fail("two_bus_equivalent", exc)
        elapsed = perf_counter() - start
        self.attempted += self.wl.equivalent_passes * len(buses)
        self.sample(tag + "equivalents_per_s", len(results) / elapsed)
        v0 = self.wl.feeder.v0
        for bus, (case, _sub) in results:
            self.check("equivalent " + bus, ref.check_equivalent(
                self.path[bus], v0, case.z.r, case.z.x, case.i_plus, case.v0))
        return elapsed

    def limits_block(self, tag):
        fn = self.L.binding_limit
        cases = self.cases
        results = []
        start = perf_counter()
        for _ in range(self.wl.limit_passes):
            for k, case in enumerate(cases):
                try:
                    results.append((k, fn(case)))
                except Exception as exc:  # counted, and the run goes on
                    self.fail("binding_limit", exc)
        elapsed = perf_counter() - start
        self.attempted += self.wl.limit_passes * len(cases)
        self.sample(tag + "limits_per_s", len(results) / elapsed)
        for k, rep in results:
            v0, r, x, v_plus, i_plus = self.wl.cases[k]
            m, t = rep.marginal, rep.thermal
            self.check_report(f"case {k}", v0, r, x, v_plus, i_plus, m.sg.p, m.sg.q, m.s0.p,
                              t and (t.sg.p, t.sg.q, t.current), rep.binding.value)
        return elapsed

    def sweep_block(self, tag):
        S, wl = self.S, self.wl
        k = self.rounds % len(self.configs)
        self.attempted += 1
        try:
            start = perf_counter()
            report = S.run_sweep(self.model, wl.bus, self.configs[k])
            elapsed = perf_counter() - start
            curves = S.frontier_curves(report)
            total = perf_counter() - start
        except Exception as exc:  # counted, and the run goes on
            self.fail("run_sweep", exc)
            return None
        self.sample(tag + "points_per_s", self.grid_points[k] / elapsed)
        points = [(pt.p_gen, pt.q_gen, pt.p0_sub, pt.max_current, pt.vg) for pt in report.frontier]
        if k in self.frontiers:
            if points != self.frontiers[k]:
                self.check("sweep", f"sub-grid {k} frontier differs from its first sweep")
            return total
        self.frontiers[k] = points
        self.check_frontier(points, curves)
        self.best_p0[k] = report.measured_p0_marginal
        if len(self.best_p0) == len(self.configs):
            self.check_measured_marginal(max(self.best_p0.values()))
        return total

    def check_frontier(self, points, curves):
        wl = self.wl
        self.check("frontier limits", ref.check_frontier_limits(
            points, workloads.V_PLUS, wl.feeder.current_bound(wl.bus)))
        if wl.two_bus_check is not None:
            self.check("frontier two-bus", ref.check_frontier_two_bus(points, *wl.two_bus_check))
        if [c["p_gen"] for c in curves] != [pt[0] for pt in points]:
            self.check("frontier curves", "records do not follow the frontier")

    def check_measured_marginal(self, measured):
        """The whole lattice's best transfer against the closed form."""
        wl = self.wl
        r, x, amp = self.path[wl.bus]
        v0 = wl.feeder.v0
        thermal = ref.thermal_point(v0, r, x, workloads.V_PLUS, amp)
        if thermal is not None and thermal.real <= ref.marginal_point(v0, r, x, workloads.V_PLUS).real:
            return  # the thermal limit binds first: the marginal transfer is out of reach
        predicted = ref.marginal_transfer(v0, r, x, workloads.V_PLUS) - wl.feeder.load_off(wl.bus)
        tol = ref.grid_tolerance(v0, r, x, workloads.V_PLUS, wl.p_range[2], wl.q_range[2])
        allowance = wl.feeder.load_allowance(wl.bus, workloads.V_PLUS, amp)
        self.measured_gap = (predicted - measured) / (tol + allowance)
        self.check("measured marginal", ref.check_measured_marginal(
            predicted, measured, tol, allowance))

    # -- rounds --------------------------------------------------------------

    def in_process(self, names):
        """Run the named blocks; in a traced run, run them again traced."""
        blocks = [getattr(self, name + "_block") for name in names]
        plain = [block("") for block in blocks]
        if not self.trace:
            return
        tracer = self.tracer
        tracer.install()
        try:
            with tracer.span("group"):
                traced = []
                for name, block in zip(names, blocks):
                    with tracer.span("block." + name) as span:
                        traced.append(block("traced."))
                    if name == "sweep":
                        self.sweep_spans.append((span.idx, self.rounds % len(self.configs)))
        finally:
            tracer.remove()
        if None not in plain and None not in traced:
            self.plain_s += sum(plain)
            self.traced_s += sum(traced)

    def round(self):
        self.setup_probe()
        self.in_process(("equivalents", "limits"))
        self.cli_call()
        self.in_process(("sweep", "equivalents", "limits"))
        self.rounds += 1


def end_to_end(study):
    s = study.samples
    return {
        "setup_s": (quartile(s["setup_s"], upper=True), "s"),
        "cli_limits_ms": (quartile(s["cli_limits_ms"], upper=True), "ms"),
        "equivalents_per_s": (quartile(s["equivalents_per_s"], upper=False), "1/s"),
        "limits_per_s": (quartile(s["limits_per_s"], upper=False), "1/s"),
        "points_per_s": (quartile(s["points_per_s"], upper=False), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(study):
    """Per-layer metrics from the traced blocks' spans and the probes."""
    tr = study.tracer
    names = [tr.names[i] for i in tr.name]
    n = len(names)
    block = [-1] * n
    durations: dict[str, list[float]] = {}
    children = [0.0] * n
    for k in range(n):
        parent = tr.parent[k]
        block[k] = k if names[k].startswith("block.") else (block[parent] if parent >= 0 else -1)
        d = tr.end[k] - tr.start[k]
        durations.setdefault(names[k], []).append(d)
        if parent >= 0:
            children[parent] += d

    per_block: dict[int, dict[str, float]] = {}

    def add(b, key, value):
        counts = per_block.setdefault(b, {})
        counts[key] = counts.get(key, 0.0) + value

    solve_ok, solve_failed = [], []
    for k in range(n):
        name, b = names[k], block[k]
        if name == "feeder.solve_feeder":
            d = tr.end[k] - tr.start[k]
            outcome = tr.outcome[k]
            add(b, "calls", 1)
            add(b, spans.OUTCOMES[outcome], 1)
            if tr.iterations[k] > 0:
                add(b, "iterations", tr.iterations[k])
            (solve_ok if outcome == spans.OK else solve_failed).append(d)
        elif name == "sweep.best_reactive_point":
            add(b, "brp_self", tr.end[k] - tr.start[k] - children[k])
        elif name == "sweep.run_sweep":
            add(b, "run_sweep", tr.end[k] - tr.start[k])
        elif name == "twobus.solve":
            add(b, "twobus_solve", 1)
    limit_blocks = [b for b in range(n) if names[b] == "block.limits"]

    def per_lattice(key):
        """Sum over the sub-grids of the median per sweep: one whole lattice."""
        by_grid: dict[int, list[float]] = {}
        for b, grid in study.sweep_spans:
            by_grid.setdefault(grid, []).append(per_block.get(b, {}).get(key, 0.0))
        return sum(median(v) for v in by_grid.values())

    def per_call(name, scale):
        return median(durations.get(name, [])) * scale

    s = study.samples
    return {
        "import.numpy_ms": (median(s.get("import.numpy_ms")), "ms"),
        "import.feederlimits_ms": (median(s.get("import.feederlimits_ms")), "ms"),
        "cli.main_ms": (median(s.get("cli.main_ms")), "ms"),
        "feeder.parse_feeder_ms": (median(s.get("feeder.parse_feeder_ms")), "ms"),
        "feeder.thevenin_impedance_us": (per_call("feeder.thevenin_impedance", 1e6), "us"),
        "feeder.two_bus_equivalent_us": (per_call("feeder.two_bus_equivalent", 1e6), "us"),
        "feeder.solve_feeder.calls": (per_lattice("calls"), "count"),
        "feeder.solve_feeder.converged": (per_lattice("ok"), "count"),
        "feeder.solve_feeder.stalled": (per_lattice("stalled"), "count"),
        "feeder.solve_feeder.diverged": (per_lattice("diverged"), "count"),
        "feeder.solve_feeder.capped": (per_lattice("capped"), "count"),
        "feeder.solve_feeder.iterations": (per_lattice("iterations"), "count"),
        "feeder.solve_feeder.converged_us": (median(solve_ok) * 1e6, "us"),
        "feeder.solve_feeder.failed_us": (median(solve_failed) * 1e6, "us"),
        "sweep.run_sweep_s": (per_lattice("run_sweep"), "s"),
        "sweep.best_reactive_point.self_s": (per_lattice("brp_self"), "s"),
        "sweep.frontier_curves_ms": (per_call("sweep.frontier_curves", 1e3), "ms"),
        "limits.binding_limit_us": (per_call("limits.binding_limit", 1e6), "us"),
        "limits.marginal_limit_us": (per_call("limits.marginal_limit", 1e6), "us"),
        "limits.thermal_limit_us": (per_call("limits.thermal_limit", 1e6), "us"),
        "twobus.solve.calls": (median([per_block.get(b, {}).get("twobus_solve", 0.0)
                                       for b in limit_blocks]), "count"),
        "trace.overhead_pct": ((study.traced_s / study.plain_s - 1.0) * 100.0, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "feederlimits" / "__init__.py").is_file() or not BUNDLED.is_file():
        print(f"error: no feederlimits sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if selftest.main() != 0:
        print("error: the benchmark's own checks failed their self-test", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, str(OUT), str(BUNDLED))
    study = Study(wl, bool(args.trace))

    start = perf_counter()
    # at least one sweep of every sub-grid, so the whole lattice is checked
    while study.rounds < workloads.SUBGRIDS or perf_counter() - start < args.seconds:
        study.round()
    elapsed = perf_counter() - start

    metrics = per_layer(study) if args.trace else end_to_end(study)
    result = {
        "correct": not study.mismatches,
        "attempted": study.attempted,
        "failed": study.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        study.tracer.write(f"{stem}.spans.jsonl")
        if study.tracer.absent:
            print("absent layers: " + ", ".join(study.tracer.absent), file=sys.stderr)
    with open(f"{stem}.result.json", "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": study.rounds,
                   "elapsed_s": elapsed, "grid_points": study.grid_points,
                   "measured_gap_share": study.measured_gap,
                   "mismatches": study.mismatches[:50], "samples": study.samples,
                   **result}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {study.rounds} rounds in {elapsed:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
