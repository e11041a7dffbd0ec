"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, everything else
here -> 3 (numeric/domain failures).
"""


class CmestError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CmestError, ValueError):
    """A scenario/experiment configuration violates an invariant."""


class DomainError(CmestError, ValueError):
    """A function argument is outside the mathematical domain."""


class NonConvergenceError(CmestError, RuntimeError):
    """An iterative computation exceeded its iteration budget."""


class MomentUndefinedError(CmestError, ValueError):
    """A requested moment does not exist for the distribution."""


class UnsupportedModelError(CmestError, TypeError):
    """The operation is not defined for this noise model."""


class CfZeroError(CmestError, ArithmeticError):
    """The characteristic function vanishes at the requested frequency."""


class RootNotFoundError(CmestError, RuntimeError):
    """A bracketing root search found no sign change."""


class AllGridInvalidError(CmestError, RuntimeError):
    """Every candidate grid point hit a characteristic-function zero."""


#: Errors the CLI reports as numeric/domain failures (exit code 3).
NUMERIC_ERRORS = (
    DomainError,
    NonConvergenceError,
    MomentUndefinedError,
    UnsupportedModelError,
    CfZeroError,
    RootNotFoundError,
    AllGridInvalidError,
)
