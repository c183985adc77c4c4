"""Exception types shared across the package."""


class ToepspecError(Exception):
    """Base class for analysis failures."""


class ExceptionalLevelError(ToepspecError):
    """The requested level is too close to a critical or threshold value."""


class InadmissibleIntervalError(ToepspecError):
    """The requested spectral interval touches the exceptional set."""


class CountingError(ToepspecError):
    """The two crossing counts disagree; indicates a root-finder defect."""


class QuadratureError(ToepspecError):
    """A numerical route missed its tolerance or refused to try: the root
    certificate (``certified_roots``, or a non-real level without K roots
    inside), a non-finite closed-form Q, ``log_fourier`` at a level its grid
    does not resolve, the lambda-rule ``spectral._settle`` or ``_adaptive_gl``
    unsettled at their caps, ``boundary_sigma`` above ``DEFAULT_TOL``, or the panel rules.
    ``achieved_tol`` is the accuracy reached, where one is known."""

    def __init__(self, message, achieved_tol=None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class FormMismatchError(ToepspecError):
    """Two independent closed forms of the same quantity disagree."""
