"""Exception types shared across the package."""


class PhantomdfError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(PhantomdfError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateDrivingSequenceError(PhantomdfError):
    """All driving levels coincide, so no phantom can be built."""


class InvalidSpecError(PhantomdfError):
    """A process specification fails its validity checks."""


class NotExactlyComputableError(PhantomdfError):
    """No closed form exists for the requested quantity."""


class InsufficientGridError(PhantomdfError):
    """An evaluation grid is too coarse for the requested comparison."""


class InsufficientDataError(PhantomdfError):
    """Too few observations (or cycles) to run the estimator."""


class NotRegenerativeError(PhantomdfError):
    """The path carries no regeneration structure."""
