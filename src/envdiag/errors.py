"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers


class EnvDiagError(Exception):
    """Base class for all envdiag failures."""


class ParameterError(EnvDiagError, ValueError):
    """An argument or configuration value is invalid."""


def whole_number(value, least: int, message: str) -> int:
    """``value`` as an int when it is a whole number ``>= least``; otherwise,
    NaN and infinities included, ParameterError with ``message``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(message) from None
    if whole != value or whole < least:
        raise ParameterError(message)
    return whole


def positive_finite(value, what: str, unit: str = "") -> None:
    """Raise ParameterError unless ``value`` is a real number, not a bool, in
    (0, inf) as a float; the message shows a number as ``{value:g}{unit}``,
    else its repr."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        number, real = math.nan, False
    if not 0 < number < math.inf:
        shown = f"{number:g}{unit}" if real else repr(value)
        raise ParameterError(f"{what} must be positive and finite, got {shown}")


class SimulationError(EnvDiagError):
    """Signal synthesis could not be carried out."""


class EstimationError(EnvDiagError):
    """Peak search or per-segment frequency estimation failed."""


class CalibrationError(EnvDiagError):
    """Monte-Carlo threshold calibration could not complete."""


class TableMismatchError(EnvDiagError):
    """A threshold table has no calibrated cell for the requested segment length.

    The analysis settings cannot mismatch: a table carries them, and a
    recording is analysed with the table's own.  The command line treats it
    as a usage error (exit 2), found before the recording is read.
    """


class SignalFormatError(EnvDiagError):
    """A signal file could not be parsed."""


class DegenerateSampleError(EnvDiagError):
    """Sample has (near-)zero variance; a density estimate is undefined."""
