"""Exception types shared across the simulator: one class per CLI exit code."""


class FwcError(Exception):
    """Base class for all simulator errors."""


class ValidationError(FwcError, ValueError):
    """Invalid parameter, argument, or configuration value (exit 2)."""


class InfeasibleBudgetError(FwcError):
    """Power budget is below the fixed, transmit-independent consumption (exit 3)."""


class NullSentinelError(FwcError):
    """A sweep point landed on a dispersion null, the infinite-loss sentinel (exit 4)."""
