"""Exception types shared across the package."""


class PadExhaustedError(RuntimeError):
    """Raised when a pad does not hold enough unused bits for the request."""


class PoleError(ValueError):
    """Raised when a bound is evaluated at (or too close to) its singular point."""
