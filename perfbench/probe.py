"""Child-process probes, each run in a fresh interpreter.

    python3 probe.py setup <feeder file> <bus> <v_plus>
        Import feederlimits, parse the feeder, take the bus's two-bus
        equivalent, report its binding limit and solve one power flow: the
        work a study does before its first real call. Prints one JSON line
        with the perf_counter time at which the study was ready.
    python3 probe.py cli <limits arguments...>
        Run `feederlimits limits` through cli.main in this process, then
        print one JSON line with main's wall time to stderr.

perf_counter reads CLOCK_MONOTONIC on Linux, so the parent can subtract its
own reading taken before it started this process.
"""

import json
import sys
from time import perf_counter


def setup(path, bus, v_plus):
    t0 = perf_counter()
    from feederlimits import feeder, limits, twobus

    t1 = perf_counter()
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    t2 = perf_counter()
    model = feeder.parse_feeder(text, name=path)
    t3 = perf_counter()
    case, _sub = feeder.two_bus_equivalent(model, bus, v_plus=float(v_plus))
    report = limits.binding_limit(case)
    feeder.solve_feeder(model, {bus: twobus.ComplexPower(0.0, 0.0)})
    ready = perf_counter()
    print(json.dumps({
        "ready": ready,
        "import_ms": (t1 - t0) * 1e3,
        "parse_feeder_ms": (t3 - t2) * 1e3,
        "warmup_ms": (ready - t3) * 1e3,
        "v0": case.v0, "r": case.z.r, "x": case.z.x, "v_plus": case.v_plus,
        "pg": report.marginal.sg.p, "qg": report.marginal.sg.q, "p0": report.marginal.s0.p,
    }))


def cli(argv):
    from feederlimits import cli as cli_module

    t0 = perf_counter()
    code = cli_module.main(argv)
    elapsed = perf_counter() - t0
    sys.stdout.flush()
    print(json.dumps({"main_ms": elapsed * 1e3}), file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2:]))
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
