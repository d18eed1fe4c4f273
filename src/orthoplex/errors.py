"""Exception hierarchy shared by all orthoplex modules."""


class OrthoplexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OrthoplexError, ValueError):
    """Malformed or out-of-contract user input."""


class NumericError(OrthoplexError):
    """A numerical kernel failed (non-convergence, inconsistent residuals)."""


class NotPSDError(NumericError):
    """A matrix expected to be positive semidefinite has a significantly
    negative eigenvalue."""

    def __init__(self, message, min_ratio=None):
        super().__init__(message)
        self.min_ratio = min_ratio


class DegenerateSimplexError(InputError):
    """Vertices are affinely dependent (within tolerance): ``thickness`` is
    the relative thickness min h_i / diam that the degeneracy rule read."""

    def __init__(self, message, thickness=None):
        super().__init__(message)
        self.thickness = thickness


class NotOrthocentricError(InputError):
    """Operation requires an orthocentric simplex."""


class ParametrizationError(InputError):
    """Orthocenter barycentrics violate the admissible sign pattern."""


class RectangularParamsError(InputError):
    """Operation is undefined for rectangular parameters (obtuseness zero)."""


class DegenerateKiteError(InputError):
    """Kite eccentricity at or below the existence threshold."""


class NotLiftableError(InputError):
    """Simplex cannot be realized as a hypotenuse facet (obtuseness >= 0)."""


class AdmissibilityError(InputError):
    """(d, m) pair fails the equiradial admissibility bound."""

    def __init__(self, message, lhs=None, rhs=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs
