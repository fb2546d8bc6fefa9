"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`EffectProbError`,
so callers (and the CLI) can catch one base class and report the concrete
class name as a machine-parsable error code.
"""


class EffectProbError(Exception):
    """Base class for all errors raised by this package."""


# --- draw storage and validation ------------------------------------------

class InvalidDraws(EffectProbError):
    """Candidate draw matrix violates the structural contract."""


class NonFiniteValue(InvalidDraws):
    """A draw is NaN or infinite; the input is corrupt."""


class RaggedChains(InvalidDraws):
    """Chain lengths or chain counts differ where they must match."""


class DuplicateParameter(InvalidDraws):
    """Two parameters share a name."""


class UnknownParameter(EffectProbError):
    """Requested parameter does not exist in the draws."""


# --- summaries -------------------------------------------------------------

class InvalidRange(EffectProbError):
    """Range bounds are not ordered a < b."""


class InvalidLevel(EffectProbError):
    """Credible level must lie strictly between 0 and 1."""


class DegenerateDraws(EffectProbError):
    """Draws admit no density estimate or figure: zero variance, or a
    spread whose bandwidth, grid or axis span does not fit in a double."""


# --- convergence diagnostics ----------------------------------------------

class TooFewIterations(EffectProbError):
    """Chains are too short for split-half diagnostics."""


# --- regression ------------------------------------------------------------

class InvalidArgument(EffectProbError):
    """Argument outside its documented domain."""


class DegenerateDesign(EffectProbError):
    """The data cannot be fitted: one treatment arm only, an outcome
    constant within each arm, or a spread too small for a double."""


class NonFiniteData(EffectProbError):
    """Dataset contains NaN or infinite outcome values."""


# --- file interchange ------------------------------------------------------

class ParseError(EffectProbError):
    """Input text does not match the documented file grammar."""


class NonBinaryTreatment(EffectProbError):
    """Treatment column contains a value other than 0 or 1."""


class MissingColumn(EffectProbError):
    """Required column is absent from the file header."""


# --- rendering -------------------------------------------------------------

class EmptyCurve(EffectProbError):
    """Curve has no points to plot."""
