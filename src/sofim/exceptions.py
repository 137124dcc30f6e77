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


def convert(kind, value, name: str):
    """``kind(value)`` for ``kind`` ``int`` or ``float``; a value that does
    not convert, a boolean, or a non-integral number for ``int`` raises
    :class:`ConfigError` naming ``name``."""
    try:
        out = kind(value)
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                        and out != value):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from None
