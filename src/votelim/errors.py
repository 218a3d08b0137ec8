"""Exception hierarchy shared across the package."""


class VotelimError(Exception):
    """Base class of this package's errors (exit code 2; exit 1 only means a failed verification)."""


class ConfigError(VotelimError):
    """Invalid model/experiment configuration (exit code 2)."""


class ResourceError(VotelimError):
    """A resource guard tripped, e.g. a lattice too large to enumerate (exit code 3)."""


class QuadratureError(ResourceError):
    """Numerical integration failed to stabilize within the node budget (exit code 3)."""


class DataError(VotelimError):
    """Malformed or unusable input data (exit code 2)."""


class UnsupportedMeasureError(VotelimError):
    """Operation not defined for this measure variant combination (exit code 2)."""
