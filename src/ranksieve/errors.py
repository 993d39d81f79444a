"""Exception types shared across the package."""


class RankSieveError(Exception):
    """Base class for errors raised by this package."""


class DataError(RankSieveError):
    """Malformed or unusable input data (files, columns, cells)."""


class NumericalError(RankSieveError):
    """A numerical procedure could not produce a valid result."""


class EmptyWindowError(NumericalError):
    """Too few observations with weight to fit: fewer than the free coefficients plus two."""
