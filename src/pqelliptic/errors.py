"""Exception types shared across the package."""


class PQError(Exception):
    """Base class for all errors raised by this package."""


class InvalidExponents(PQError):
    """Declared exponents violate a structural constraint."""


class NonnegativityViolation(PQError):
    """A coefficient that must be nonnegative was negative at a probe point."""


class MeshError(PQError):
    """Degenerate mesh geometry or an empty node/element selection."""


class QuadratureFailure(PQError):
    """A non-finite value appeared at a quadrature point."""


class InconsistentExactData(PQError):
    """Manufactured exact data failed its internal consistency spot-check."""


class ConfigError(PQError):
    """Malformed configuration or descriptor input."""


class SingularJacobian(PQError):
    """The linearized system matrix could not be factorized."""


class NonConvergence(PQError):
    """An iterative solver exhausted its budget.

    Carries the best iterate seen (``best``), its solver statistics
    (``stats``) and, for continuation runs, the partial trace (``trace``).
    """

    def __init__(self, message, best=None, stats=None, trace=None):
        super().__init__(message)
        self.best = best
        self.stats = stats
        self.trace = trace
