"""Exception and warning types shared across the package."""


class EquiweylError(Exception):
    pass


class DomainError(EquiweylError, ValueError):
    """Argument outside the mathematical domain (e.g. |alpha| > 1)."""


class IndexRangeError(EquiweylError, ValueError):
    """Invalid harmonic index (|m| > k or k < 0)."""


class ResourceLimitError(EquiweylError, RuntimeError):
    """Requested size beyond the supported range (degree > 2000)."""


class InvalidPointError(EquiweylError, ValueError):
    """Point does not lie on the manifold / outside the chart."""


class SingularProfileError(EquiweylError, ValueError):
    """Surface-of-revolution profile vanishes in the interior."""


class TruncationError(EquiweylError, ValueError):
    """Spectral query beyond the basis truncation lambda_max."""


class EmptyWindowError(EquiweylError, ValueError):
    """Spectral window contains no mode with the requested label."""


class ConvergenceError(EquiweylError, RuntimeError):
    """Iterative solver failed to converge within its budget."""


class DegenerateCriticalError(EquiweylError, RuntimeError):
    """Transversal Hessian near-singular: caustic in the declared family."""


class DegenerateDataError(EquiweylError, ValueError):
    """Fit input is nonpositive, constant, or otherwise unusable."""


class ConfigError(EquiweylError, ValueError):
    """Invalid run configuration; message lists every violated constraint."""


class RegimeWarning(UserWarning):
    """Asymptotic prediction evaluated outside its regime of validity."""


class StratumContributionWarning(UserWarning):
    """Singular strata contribute more than 0.1% under refinement."""
