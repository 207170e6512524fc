"""Exception types shared across the package."""


class HorizonRiskError(Exception):
    """Base class for all domain errors raised by this package."""


class StructureError(HorizonRiskError):
    """Tree description is not a single-rooted, gap-free, non-recombining tree."""


class ProbabilityError(HorizonRiskError):
    """Branch probabilities are missing, non-positive, or do not sum to one."""


class UnknownNode(HorizonRiskError):
    """A node id does not exist in the tree."""


class TimeOrderError(HorizonRiskError):
    """A time index is out of range or conditioning runs forward in time."""


class DimensionError(HorizonRiskError):
    """An allocation or price vector has the wrong number of assets."""


class PrefixMismatch(HorizonRiskError):
    """Two policies disagree before the pasting time, so the paste is not adapted."""


class EmptyConditionalSpace(HorizonRiskError):
    """No policy in the space agrees with the given past."""


class EnumerationLimit(HorizonRiskError):
    """An enumeration would exceed its cap (market.STOPPING_TIME_CAP)."""


class OverflowGuard(HorizonRiskError):
    """An exponent in the entropic transform exceeds the configured bound."""


class NoUniformMaximizer(HorizonRiskError):
    """No policy dominates at every node; the supplied space is not pasting-closed."""


class MismatchedInputs(HorizonRiskError):
    """A report was requested for inputs that do not belong together."""
