"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers


class EnvDiagError(Exception):
    """Base class for all envdiag failures."""


class ParameterError(EnvDiagError, ValueError):
    """An argument or configuration value is invalid."""


def whole_number(value, least: int, message: str) -> int:
    """``value`` as an int when it is a whole number ``>= least`` and not a bool;
    otherwise, NaN and infinities included, ParameterError with ``message``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(message) from None
    if isinstance(value, bool) or whole != value or whole < least:
        raise ParameterError(message)
    return whole


def real(value) -> float:
    """``float(value)`` for a real number that is not a bool and fits a float;
    NaN, which fails every range comparison, for anything else."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    return math.nan


def shown(value, unit: str = "") -> str:
    """``value`` in a message: ``{value:g}{unit}`` for a real number, NaN too, else its repr."""
    number = real(value)
    if number != number and not (isinstance(value, numbers.Real) and value != value):
        return repr(value)
    return f"{number:g}{unit}"


def positive_finite(value, what: str, unit: str = "") -> None:
    """Raise ParameterError, showing ``value``, unless it is a ``real`` number in (0, inf)."""
    if not 0 < real(value) < math.inf:
        raise ParameterError(f"{what} must be positive and finite, got {shown(value, unit)}")


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
