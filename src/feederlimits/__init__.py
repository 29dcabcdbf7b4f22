"""Maximum power transfer limits of radial distribution feeders.

Closed-form two-bus transfer limits (thermal and marginal loss-induced),
a radial feeder model with Thevenin equivalencing, and a brute-force sweep
oracle for validating the predictions.
"""

from importlib import resources

from .errors import (
    ConvergenceError,
    DegenerateImpedanceError,
    DomainError,
    FeederFileError,
    FeederLimitsError,
    NoFeasiblePointError,
    NoSolutionError,
    ThermalLimitError,
    TopologyError,
    VoltageLimitError,
)
from .feeder import (
    BranchSpec,
    FeederModel,
    PowerFlowResult,
    load_feeder,
    parse_feeder,
    single_branch_model,
    solve_feeder,
    thevenin_impedance,
    two_bus_equivalent,
)
from .limits import (
    Limit,
    LimitReport,
    OperatingPoint,
    TwoBusCase,
    binding_limit,
    boundary_generation,
    lambda_prime,
    locus_estimate,
    marginal_limit,
    marginal_transfer,
    metrics,
    thermal_limit,
    upf_limit_generation,
)
from .sweep import (
    FrontierPoint,
    SweepConfig,
    SweepErrors,
    SweepReport,
    frontier_curves,
    run_sweep,
)
from .twobus import (
    Branch,
    ComplexPower,
    Impedance,
    RotatedPower,
    TwoBusSolution,
    boundary_power,
    discriminant,
    feasible,
    net_power_transferred,
    rotate,
    solve,
    unrotate,
    upf_limit_power,
)

__version__ = "0.1.0"


def bundled_feeder_path():
    """Filesystem path of the bundled 12-bus test feeder."""
    return resources.files(__name__).joinpath("data/feeder12.feeder")
