"""Exception hierarchy shared by all qretrodict modules.

The CLI maps these onto exit codes: malformed scenario files are parse
errors, constructor/invariant failures are validation errors, and errors
raised while computing (zero-probability outcomes, numeric integrity
violations) are computation errors.
"""

#: Absolute tolerance of every completeness, normalization, positivity and
#: probability-range check in the package.
TOL = 1e-9

#: Weight at or below which an outcome counts as having zero probability.
TRACE_TOL = 1e-12


class QRetrodictError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QRetrodictError, ValueError):
    """An input violates a documented invariant (bad shape, bad row sum, ...)."""


class DimensionMismatch(ValidationError):
    """Operands live on incompatible spaces or an index is out of range."""


class BiasedSourceError(ValidationError):
    """A preparation POM was requested for an ensemble that is not unbiased."""


class ComputationError(QRetrodictError):
    """A well-formed input led to an undefined or unreliable result."""


class ZeroProbabilityError(ComputationError):
    """Conditioning on an outcome of zero probability; the posterior is undefined."""


class NumericIntegrityError(ComputationError):
    """A quantity that must be a probability fell outside [0, 1] beyond tolerance."""
