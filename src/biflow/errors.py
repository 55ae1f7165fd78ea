"""Exception types shared across the package."""


class UnsupportedOrderError(ValueError):
    """A derivative order outside the implemented range was requested."""


class InvalidTimeError(ValueError):
    """A kernel or semigroup evaluation was requested at a non-positive time."""


class QuadratureResidualError(RuntimeError):
    """A kernel quadrature cannot meet its tolerance.

    Raised when the rounding floor of the radial sum lies above the
    profile's tolerance, which double precision then cannot reach.
    """


class ScaleUnresolvableError(ValueError):
    """A norm scan was asked for scales the grid or time axis cannot resolve."""


class TimeMisalignedError(ValueError):
    """A Duhamel evaluation time does not lie on the stored frame grid."""


class ManifoldTubeExitError(RuntimeError):
    """An iterate left the tubular neighbourhood where the projection is valid.

    Carries the offending location and distance so runs can report where the
    data got too rough for the small-data regime.
    """

    def __init__(self, message, location=None, radius=None):
        super().__init__(message)
        self.location = location
        self.radius = radius


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""
