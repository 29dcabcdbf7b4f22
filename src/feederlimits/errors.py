"""Exception types raised by the feederlimits package."""


class FeederLimitsError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateImpedanceError(FeederLimitsError):
    """A zero-magnitude impedance was used where a line is required."""


class NoSolutionError(FeederLimitsError):
    """The power flow discriminant is negative: no steady-state solution."""


class DomainError(FeederLimitsError, ValueError):
    """An input lies outside the mathematical domain of a formula."""


class ThermalLimitError(FeederLimitsError):
    """The thermal limit point does not intersect the voltage-limit locus."""


class ConvergenceError(FeederLimitsError):
    """The iterative feeder solver failed to converge."""


class TopologyError(FeederLimitsError):
    """The feeder graph is not a tree rooted at the source bus."""


class FeederFileError(FeederLimitsError):
    """A feeder description file could not be parsed."""


class NoFeasiblePointError(FeederLimitsError):
    """A sweep found no operating point satisfying all constraints."""
