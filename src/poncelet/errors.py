"""Exception types shared across the package.

Every validation failure raises a subclass of :class:`PonceletError`, so the
CLI can map any library error onto exit code 2 with a machine-readable reason.
"""

from __future__ import annotations


class PonceletError(Exception):
    """Base class for all input/validation errors raised by this package."""

    #: short machine-readable reason code, overridden per subclass
    code = "error"


class ModulusOutOfRange(PonceletError):
    """Elliptic modulus outside [0, 1 - 1e-9)."""

    code = "modulus_out_of_range"


class NotAnEllipse(PonceletError):
    """Conic fails the ordered-signature test (+,+,-).

    ``reason`` is one of ``"minor_not_pd"`` or ``"det_nonnegative"``.
    """

    code = "not_an_ellipse"

    def __init__(self, reason, message=None):
        self.reason = reason
        super().__init__(message or f"not an ellipse: {reason}")


class DegenerateSpectrum(PonceletError):
    """Generalized eigenvalues coincide, are complex, or are not all positive."""

    code = "degenerate_spectrum"


class NotNested(PonceletError):
    """Inner conic is not strictly inside the outer one."""

    code = "not_nested"


class InvalidParameter(PonceletError):
    """Pencil parameter outside the valid cone, or malformed numeric input."""

    code = "invalid_parameter"


class LimitingPoint(PonceletError):
    """Parameter ray of the point conic; carries the limit point coordinates."""

    code = "limiting_point"

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or "parameter ray degenerates to the limiting point")


class HomographySingularity(PonceletError):
    code = "homography_singularity"


class NotInDelta(PonceletError):
    """Eccentricity pair outside 0 < f < e < 1."""

    code = "not_in_delta"


class InvalidRotation(PonceletError):
    """Rotation number outside the open interval (0, 1/2)."""

    code = "invalid_rotation"


class OffCircle(PonceletError):
    code = "off_circle"


class OffOuterConic(PonceletError):
    code = "off_outer_conic"


class NonFiniteResult(PonceletError):
    """A report would hold NaN or an infinity, which JSON cannot carry."""

    code = "non_finite_result"


class InvalidPeriod(PonceletError):
    """Cayley period N below 3."""

    code = "invalid_period"


class UnknownSet(PonceletError):
    """Poristic polynomial family name not recognised."""

    code = "unknown_set"
