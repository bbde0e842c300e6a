"""Exception types shared across the package."""


class SphereFlockError(Exception):
    """Base class for all library errors."""


class AntipodalPair(SphereFlockError):
    """Two points are numerically antipodal, where the transport operator
    is singular and the model loses well-posedness.

    When raised during time integration, ``time`` holds the failing time
    and ``partial_trajectory`` the frames computed up to that point.
    """

    def __init__(self, message, pair=None, time=None, partial_trajectory=None):
        super().__init__(message)
        self.pair = pair
        self.time = time
        self.partial_trajectory = partial_trajectory

    @classmethod
    def between(cls, k, i) -> "AntipodalPair":
        """The error naming agents k and i, with ``pair = (k, i)``."""
        k, i = int(k), int(i)
        return cls(f"agents {k} and {i} are antipodal", pair=(k, i))


class NonFinite(SphereFlockError):
    """The state of a run stopped being finite (NaN or inf), as when dt is
    far too large for the dynamics.

    ``time`` holds the time of the last finite frame (for ``simulate``) or
    state (for ``energy_audit``), and ``partial_trajectory`` the frames
    computed up to it.
    """

    def __init__(self, message, time=None, partial_trajectory=None):
        super().__init__(message)
        self.time = time
        self.partial_trajectory = partial_trajectory


class OffSphere(SphereFlockError):
    """A vector required to lie on the unit sphere does not."""


class NotTangent(SphereFlockError):
    """A vector required to be tangent to the sphere at its base point is not."""


class ZeroVector(SphereFlockError):
    """The zero vector has no radial projection onto the sphere."""


class OutOfRange(SphereFlockError):
    """Argument outside the kernel domain [0, 2]."""


class NoRoot(SphereFlockError):
    """The bracketing interval contains no sign change (degenerate kernel)."""


class NonPositiveValue(SphereFlockError):
    """Log-linear fitting requires strictly positive values."""


class InsufficientSamples(SphereFlockError):
    """Too few samples inside the fit window."""


class InvalidEnsemble(SphereFlockError):
    """Ensemble state violates the sphere or tangency invariants."""


class ConfigError(SphereFlockError):
    """Malformed or inconsistent run configuration."""
