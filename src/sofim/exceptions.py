"""Exception types shared across the package."""

import math
from dataclasses import fields


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
    :class:`ConfigError` naming ``name``, and so does an integer outside
    int64, which numpy could not take as a size or a seed."""
    try:
        out = kind(value)
        if (isinstance(value, bool) or isinstance(value, str) != (kind is str)
                or (kind is int and out != value) or (kind is float and not math.isfinite(out))):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = {int: "an integer", float: "a finite number", str: "a string"}[kind]
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from None
    require(kind is not int or -2**63 <= out < 2**63,
            f"{name} must lie in [-2**63, 2**63), got {value!r}")
    return out


#: A config field's type by its annotation, text under ``from __future__ import annotations``.
CONVERTED = {"float": float, "int": int, "int | None": int, "str": str}


def convert_fields(config, noun: str) -> None:
    """Convert each field of the frozen dataclass ``config`` that
    :data:`CONVERTED` types, in field order, by :func:`convert` naming it
    ``noun 'field'``; an ``int | None`` field holding ``None`` keeps it."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in CONVERTED and not (value is None and f.type == "int | None"):
            object.__setattr__(config, f.name,
                               convert(CONVERTED[f.type], value, f"{noun} {f.name!r}"))
