"""Exception hierarchy shared across the package."""


class GtimmError(Exception):
    """Base class for all library-raised errors."""


class SchemaError(GtimmError):
    """A CSV schema names columns the file does not provide, or names one
    column in two roles."""


class ParseError(GtimmError):
    """A cell could not be parsed; the message names row and column."""


class DataError(GtimmError):
    """Data is structurally valid but semantically unusable."""


class IllPosedRegionError(DataError):
    """A region holds too few observations for its linear fit."""


class NumericalError(GtimmError):
    """Optimization diverged or a linear system could not be solved."""
