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
    """The iterative feeder solver failed to converge.

    ``kind`` says how: "stalled", "diverged" or "capped" (the sweep budget
    ran out); ``iterations`` counts the sweeps taken.  Both are None when
    the error does not come from the solver.
    """

    def __init__(self, message, kind=None, iterations=None):
        super().__init__(message)
        self.kind = kind
        self.iterations = iterations


class VoltageLimitError(FeederLimitsError):
    """The feeder solver proved that the power flow breaks a voltage cap.

    ``iterations`` counts the sweeps taken before the proof.
    """

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class TopologyError(FeederLimitsError):
    """The feeder graph is not a tree rooted at the source bus."""


class FeederFileError(FeederLimitsError):
    """A feeder description file could not be parsed."""


class NoFeasiblePointError(FeederLimitsError):
    """A sweep found no operating point satisfying all constraints."""
