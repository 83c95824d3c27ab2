"""Exception hierarchy shared by all ulik modules."""


class UlikError(Exception):
    """Base class for all errors raised by this package."""


class EmptyRegionError(UlikError):
    """Rejection sampling could not find any point inside the region."""


class DegenerateGeometryError(UlikError):
    """A sampled UE position coincides with a base station."""


class NonpositiveFadingError(UlikError):
    pass


class ZeroVarianceError(UlikError):
    pass


class UnsupportedOrderError(UlikError):
    pass


class InvalidDesignPointsError(UlikError):
    pass


class NonpositiveValueError(UlikError):
    pass


class DomainMismatchError(UlikError):
    """Mixed dBm / mW sample domains in a distribution comparison."""


class SchemaError(UlikError):
    """Scenario document does not conform to the file schema."""


class ValidationError(UlikError):
    """Scenario content violates a structural invariant."""


class PlacementFailureError(UlikError):
    """Random BS placement exhausted its attempt budget."""
