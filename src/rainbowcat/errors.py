"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for all package-specific errors."""


class InvalidElementError(RainbowError, ValueError):
    """Element does not belong to the group (wrong arity or unreduced coordinate)."""


class InvalidShapeError(RainbowError, ValueError):
    """Hair counts do not describe a three-spine caterpillar of order p^k."""


class PartitionShapeMismatchError(RainbowError, ValueError):
    """Role-class sizes of a partition disagree with the requested shape."""


class UnsupportedInstanceError(RainbowError, ValueError):
    """Group too small to carry a three-spine caterpillar analysis."""


class OrderLimitError(RainbowError, ValueError):
    """Group order too large: above oracle.MAX_ORDER for the exhaustive search,
    or above constructor.MAX_ORDER for a construction."""


class InfeasibleShapeError(RainbowError):
    """construct() was called on a shape the feasibility predicate rejects."""

    def __init__(self, verdict):
        super().__init__(verdict.detail)
        self.verdict = verdict


class ConstructionError(RainbowError):
    """No labeling was produced: at p >= 5 no recipe or empty-X twin covers the
    shape, at p in {2,3} no canonical spine model realizes it, or the result
    failed verification.  Should not happen on predicate-feasible shapes; it
    is raised instead of returning garbage."""

