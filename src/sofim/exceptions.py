"""Exception types shared across the package."""

import math


class DimensionMismatchError(ValueError):
    """Vector or matrix operands have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """An input or intermediate value is NaN or infinite."""


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid; the message names
    the offending field."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``ok``."""
    if not ok:
        raise ConfigError(message)


def convert(kind, value, name: str):
    """``kind(value)`` for ``kind`` ``int``, ``float`` or ``str``, the one
    rule by which a config value gets its type; a value that does not
    convert, a boolean, a string for a number, a non-string for ``str``, a
    non-integral number for ``int`` or a NaN or infinity for ``float`` raises
    :class:`ConfigError` naming ``name``."""
    try:
        out = kind(value)
        if (isinstance(value, bool) or isinstance(value, str) != (kind is str)
                or (kind is int and out != value) or (kind is float and not math.isfinite(out))):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        noun = {int: "an integer", float: "a finite number", str: "a string"}[kind]
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from None
