"""Exception hierarchy shared across the package."""


class SimulationError(Exception):
    """Base class for all domain errors raised by this package."""


class NegativeDiscriminant(SimulationError):
    """The drag-free drop prediction has no real solution (ball cannot reach the table plane)."""


class SingularGradient(SimulationError):
    """The remaining-time gradient is singular (discriminant at or below the floor)."""


class MaxStepsExceeded(SimulationError):
    """Flight integration did not terminate within the allowed number of steps."""


class MissedBall(SimulationError):
    """Base class for failed interceptions."""


class NoCrossing(MissedBall):
    """The incoming ball path never reaches the requested base azimuth."""


class OutOfReach(MissedBall):
    """The interception point lies outside the annular reach of the two-link arm."""


class DegenerateDataset(SimulationError):
    """Training dataset is unusable: all policies identical, or a record not finite."""


class NonFiniteStep(SimulationError):
    """An online iteration observed a non-finite landing point or policy Jacobian."""


class AbortedRun(SimulationError):
    """An online run exceeded the consecutive-failure cap; `log` holds the run so far."""

    def __init__(self, message: str, log):
        super().__init__(message)
        self.log = log


class InfeasibleRegion(SimulationError):
    """Sampling over the feasible set produced almost exclusively missed balls."""


class ConfigError(SimulationError):
    """Invalid or incomplete experiment configuration."""
