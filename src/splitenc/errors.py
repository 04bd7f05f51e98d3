"""Exception types raised across the package.

Everything derives from :class:`SplitEncError` so callers can catch the
package's failures with a single handler.  Validation-style failures and
numerical-degeneracy failures are separated into two branches because the
command line maps them to different exit codes.
"""


class SplitEncError(Exception):
    """Base class for all errors raised by splitenc."""


class ValidationError(SplitEncError):
    """Bad inputs, bad configuration, malformed files."""


class NumericalError(SplitEncError):
    """Numerically meaningless or degenerate computation."""


# -- validation branch ------------------------------------------------------

class InsufficientData(ValidationError):
    """Too few observations for the requested fit or selection."""


class InvalidSplit(ValidationError):
    """Sample-split fraction or location violates the admissible range."""


class BandwidthOutOfRange(ValidationError):
    """HAC bandwidth outside 1 <= M < n."""


class InvalidSpec(ValidationError):
    """A simulation design is internally inconsistent."""


class ParseError(ValidationError):
    """Malformed input file."""


class CoverageError(ValidationError):
    """A country lacks the minimum usable quarterly coverage."""


class EmptyQuarter(ValidationError):
    """A quarter inside the panel range has no contributing country."""


class NonPositivePrice(ValidationError):
    """Price levels must be strictly positive to take log differences."""


class ConfigError(ValidationError):
    """Experiment config file is malformed; carries the offending key path."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


# -- numerical branch -------------------------------------------------------

class RankDeficient(NumericalError):
    """Cross-product matrix singular to working precision."""


class DegenerateVariance(NumericalError):
    """Long-run variance too close to zero for meaningful studentization."""


class DegenerateSpectrum(NumericalError):
    """Leading eigenvalue not simple to working precision."""


class SingularBlock(NumericalError):
    """A matrix block that must be inverted is singular."""
