"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: data/validation problems exit with 3,
numerical failures with 4.
"""

from __future__ import annotations


class CarqteError(Exception):
    """Base class for all package-specific errors."""


class DataValidationError(CarqteError):
    """Malformed input data (bad CSV schema, missing values, bad shapes)."""


class EmptyStratumError(DataValidationError):
    """A stratum carries zero (weighted) observations."""


class DegenerateCellError(DataValidationError):
    """A stratum has no treated or no control units, so pi_hat is 0 or 1."""

    def __init__(self, strata: list, message: str | None = None) -> None:
        self.strata = list(strata)
        if message is None:
            message = f"degenerate treated/control cell in strata {self.strata}"
        super().__init__(message)


class CellTooSmallError(DataValidationError):
    """Every (arm, stratum) cell is too small to fit the requested model."""


class NumericalError(CarqteError):
    """Numerical failure (solver breakdown, impossible bootstrap draws)."""


class DegenerateWeightedCellError(NumericalError):
    """Bootstrap weights repeatedly zeroed out an arm within a stratum."""
