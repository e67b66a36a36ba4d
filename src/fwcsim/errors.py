"""Exception types shared across the simulator."""


class FwcError(Exception):
    """Base class for all simulator errors."""


class ValidationError(FwcError, ValueError):
    """Invalid parameter, argument, or configuration value."""


class ConfigError(ValidationError):
    """Unreadable config file or a config key/value outside the schema."""


class InfeasibleBudgetError(FwcError):
    """Power budget is below the fixed, transmit-independent consumption."""


class NullSentinelError(FwcError):
    """A sweep point landed on a dispersion null (infinite-loss sentinel)."""


class NoRealBeamError(FwcError):
    """Requested squint frequency has no real steering direction."""

