"""Exception hierarchy shared by all ulik modules."""


class UlikError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(UlikError):
    """An input file (scenario, CSV report or sample dump) breaks its format."""


class ValidationError(UlikError):
    """A value breaks a condition the program needs: a parameter out of
    range, an empty region, a UE on a BS, a placement that cannot finish."""
