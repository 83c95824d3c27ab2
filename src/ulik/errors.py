"""Exception hierarchy shared by all ulik modules."""


class UlikError(Exception):
    """Base class for all errors raised by this package."""


class EmptyRegionError(UlikError):
    """A region has no area: its bounding box is empty, no ray meets it, or
    rejection sampling finds no point in it."""


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


class SchemaError(UlikError):
    """An input file (scenario, CSV report or sample dump) breaks its format."""


class ValidationError(UlikError):
    """Scenario content violates a structural invariant."""


class PlacementFailureError(UlikError):
    """Random BS placement exhausted its attempt budget."""
