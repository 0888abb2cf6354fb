"""Exception types shared across the package."""


class CmtrfError(Exception):
    """Base class for all library errors."""


class DomainError(CmtrfError, ValueError):
    """An argument lies outside the domain of the requested divergence."""


class DataError(CmtrfError, ValueError):
    """Malformed, empty, or inconsistent rating data."""
