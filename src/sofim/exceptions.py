"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Vector or matrix operands have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """An input or intermediate value is NaN or infinite."""


class SingularUpdateError(ArithmeticError):
    """A rank-one inverse update has a (near-)zero denominator."""


class ScaleCapError(ValueError):
    """A dense small-scale oracle was asked to exceed its dimension cap."""


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid; the message names
    the offending field."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``ok``."""
    if not ok:
        raise ConfigError(message)
