"""Workload inputs, made from the seed alone.

Each workload is one feeder study: a feeder file, a generator bus, a case
set for the closed-form limits, the buses whose two-bus equivalents are
taken, a (P, Q) sweep grid and the arguments of one cold CLI call. The
package only ever sees these inputs; it never sees the seed.

Every swept case keeps R/X ≥ λ′, because the BFS oracle only finds the
high-voltage root and cannot check the closed form below λ′.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference as ref

V_PLUS = 1.06
# Each round sweeps one of SUBGRIDS interleaved column sets of the
# workload's (P, Q) lattice, so a run times many short sweeps while the
# check sees the whole lattice once every SUBGRIDS rounds.
SUBGRIDS = 6
# Passes per block, fixed so that every run attempts whole rounds of
# identical work; each block takes about 30 ms on a 2-core x86 VM.
_REPS = {
    "study-1branch": {"equivalent_passes": 600, "limit_passes": 2},
    "study-feeder12": {"equivalent_passes": 30, "limit_passes": 6},
    "study-deep34": {"equivalent_passes": 4, "limit_passes": 2},
}
NAMES = tuple(_REPS)


@dataclass
class Workload:
    name: str
    feeder: ref.Feeder        # the reference's view of the feeder
    feeder_path: str          # the same feeder as a file the package parses
    bus: str                  # generator bus
    study_buses: list         # buses whose two-bus equivalents are taken
    equivalent_passes: int    # passes over study_buses per equivalents block
    cases: list               # (v0, r, x, v_plus, i_plus) limit cases
    limit_passes: int         # passes over cases per limits block
    p_range: tuple            # sweep lattice (lo, hi, step)
    q_range: tuple
    cli_args: list            # arguments after `feederlimits limits`
    # tuples (r, x, v0) when the two-bus quadratic checks every frontier point
    two_bus_check: tuple | None


def _jittered_range(rng, lo, hi, count):
    """``count`` grid values spanning [lo, hi], shifted by a seeded part of a
    step so that each seed samples the same window at other points."""
    step = (hi - lo) / (count - 1)
    shift = rng.random() * step
    # SweepConfig counts floor((hi - lo)/step + 1e-9) + 1 = count values
    return (lo + shift, hi + shift, step)


def subgrids(p_range):
    """Split a P range into SUBGRIDS interleaved ranges: range k holds
    columns k, k + SUBGRIDS, k + 2·SUBGRIDS, ... of the lattice."""
    lo, hi, step = p_range
    return [(lo + k * step, hi, SUBGRIDS * step) for k in range(SUBGRIDS)]


def _ratio_impedance(lam, z_mag=1.0):
    scale = math.sqrt(1.0 + lam * lam)
    return z_mag * lam / scale, z_mag / scale


def _one_branch_cases(rng):
    """R/X from 0.1 to 10, ampacity 0.3 to unbounded, V+ 1.02 to 1.10."""
    cases = []
    for k in range(12):
        lam = 10.0 ** (-1.0 + 2.0 * (k + rng.random()) / 12.0)
        r, x = _ratio_impedance(lam)
        for amp in (0.3, 0.6, 0.9, 1.5, 3.0, math.inf):
            for v_plus in (1.02, 1.04, 1.06, 1.08, 1.10):
                cases.append((1.0, r, x, v_plus * (1.0 + 0.004 * rng.random()), amp))
    return cases


def _feeder_cases(rng, feeder, buses):
    """Each bus's equivalent with half, one and two times its path ampacity,
    unbounded ampacity, and V+ from 1.05 to 1.10."""
    cases = []
    for bus in buses:
        r, x, amp = feeder.equivalent(bus)
        for scale in (0.5, 1.0, 2.0, math.inf):
            for v_plus in (1.05, 1.075, 1.10):
                cases.append((feeder.v0, r, x, v_plus + 0.004 * rng.random(), amp * scale))
    return cases


def deep34_feeder(seed: int) -> ref.Feeder:
    """A synthetic radial feeder at IEEE 34-bus scale.

    Bus 1 is the source. Buses 1..22 form the main, 21 segments of seeded
    length with R/X between 1.45 and 1.75, so the generator path sits well
    above λ′ ≈ 0.57. Twelve more buses hang off five laterals attached at
    seeded main buses. Bus 22, at the far end of the main, holds the
    generator and a 0.3 pu load; the lateral loads are as light as the
    bundled feeder's (0.2 to 0.4 milli-pu each), so the two-bus equivalent
    is nearly exact and the sweep's measured marginal transfer can be held
    to the grid tolerance (README.md).
    """
    rng = random.Random(f"deep34-{seed}")
    branches = []
    for k in range(1, 22):
        length = rng.uniform(0.6, 1.4)
        r = 0.0085 * length
        branches.append((str(k), str(k + 1), r, r / rng.uniform(1.45, 1.75), rng.uniform(3.0, 3.6)))
    loads = {"22": (0.30, 0.06)}
    taps = sorted(rng.sample(range(2, 21), 5))
    nxt = 23
    for tap, length in zip(taps, (3, 3, 2, 2, 2)):
        prev = str(tap)
        for _ in range(length):
            bus = str(nxt)
            nxt += 1
            seg = rng.uniform(0.5, 1.5)
            branches.append((prev, bus, 0.012 * seg, 0.009 * seg, 0.6))
            p = rng.uniform(0.0002, 0.0004)
            loads[bus] = (p, 0.3 * p)
            prev = bus
    return ref.Feeder("1", 1.05, branches, loads)


def build(name: str, seed: int, outdir: str, bundled_feeder: str) -> Workload:
    """Inputs of workload ``name`` for ``seed``.

    Generated feeders are written to ``outdir`` so that the package's parser
    and CLI read them; the bundled 12-bus feeder is used in place.
    """
    rng = random.Random(f"{name}-{seed}")
    reps = _REPS[name]
    two_bus_check = None
    if name == "study-1branch":
        # Acceptance criterion 4: R/X = 1, |Z| = 1, ampacity 0.9, V+ 1.06,
        # over the full ±4 pu window (lattice coarsened from 0.01 to 0.045 pu).
        r, x = _ratio_impedance(1.0)
        feeder = ref.Feeder("0", 1.0, [("0", "g", r, x, 0.9)], {})
        bus = "g"
        cases = _one_branch_cases(rng)
        p_range = _jittered_range(rng, 0.0, 4.0, 90)
        q_range = _jittered_range(rng, -4.0, 4.0, 178)
        cli_args = ["--v0", "1", "--r", repr(r), "--x", repr(x), "--i-plus", "0.9"]
        two_bus_check = (r, x, 1.0)
    elif name == "study-feeder12":
        # Acceptance criterion 5: the bundled feeder, generator at bus 12,
        # P 0..3.2 pu and Q -2.6..0.4 pu (lattice coarsened from 0.02 x 0.01
        # to 0.060 x 0.026 pu).
        with open(bundled_feeder, encoding="ascii") as fh:
            feeder = ref.read_feeder(fh.read())
        bus = "12"
        cases = _feeder_cases(rng, feeder, feeder.buses())
        p_range = _jittered_range(rng, 0.0, 3.2, 54)
        q_range = _jittered_range(rng, -2.6, 0.4, 118)
        cli_args = None
    else:
        feeder = deep34_feeder(seed)
        bus = "22"
        cases = _feeder_cases(rng, feeder, feeder.buses())
        r, x, _amp = feeder.equivalent(bus)
        s_scale = feeder.v0**2 / math.hypot(r, x)
        # the criterion-5 window in units of V0²/|Z|, 42 x 40 points
        p_range = _jittered_range(rng, 0.0, 0.59 * s_scale, 42)
        q_range = _jittered_range(rng, -0.48 * s_scale, 0.074 * s_scale, 40)
        cli_args = None
    if name == "study-feeder12":
        path = bundled_feeder
    else:
        path = f"{outdir}/{name}-seed{seed}.feeder"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(feeder.to_text(f"{name} inputs for seed {seed}"))
    if cli_args is None:
        cli_args = ["--feeder", path, "--bus", bus]
    return Workload(
        name=name,
        feeder=feeder,
        feeder_path=path,
        bus=bus,
        study_buses=feeder.buses(),
        equivalent_passes=reps["equivalent_passes"],
        cases=cases,
        limit_passes=reps["limit_passes"],
        p_range=p_range,
        q_range=q_range,
        cli_args=cli_args,
        two_bus_check=two_bus_check,
    )
