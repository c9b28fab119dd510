"""Numeric config keys: each declares its kind and bounds once.

A config dataclass makes each numeric field with key(); its kind is its
annotation, int or float. check_fields applies check to every such field
in __post_init__, and scenario applies check to the keys that no
dataclass holds. A refusal is a ValueError that starts with the key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from functools import cache
from typing import Any, NamedTuple

# Integers beyond a C ssize_t overflow deque sizes and float conversion.
INT_LIMIT = 2**63 - 1
# One day: presets build their knots at parse time, in proportion to
# duration. No time key may exceed it, so no sum or product of them
# overflows.
MAX_DURATION_S = 86_400.0
MAX_DURATION_MS = MAX_DURATION_S * 1e3
MAX_DURATION_US = MAX_DURATION_S * 1e6


class Bounds(NamedTuple):
    """lo <= value (lo < value when open_lo) and value <= hi; None is no bound."""

    lo: float | None
    hi: float | None
    open_lo: bool
    unit: str


def key(default: Any = MISSING, lo: float | None = None, hi: float | None = None, *,
        open_lo: bool = False, unit: str = "") -> Any:
    """A dataclass field that check_fields bounds."""
    return field(default=default, metadata={"bounds": Bounds(lo, hi, open_lo, unit)})


def check(value: Any, name: str, kind: type, lo: float | None = None,
          hi: float | None = None, open_lo: bool = False, unit: str = "") -> None:
    """Raise a ValueError that starts with name unless value is an int (kind
    int) or a number (kind float) that is not a bool, lies within
    +-(2**63 - 1) when an int, is finite when a float, and lies within the
    bounds."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if isinstance(value, int) and abs(value) > INT_LIMIT:
        raise ValueError(f"{name} must lie within +-(2**63 - 1)")
    unit = f" {unit}" if unit else ""
    if lo is not None and (value <= lo if open_lo else value < lo):
        raise ValueError(f"{name} must be {'>' if open_lo else '>='} {lo:g}{unit}, "
                         f"got {value!r}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi:g}{unit}, got {value!r}")


@cache
def declared(cls: type) -> tuple[tuple[str, type, Bounds], ...]:
    """(name, kind, bounds) of each field of cls that key() made."""
    return tuple((f.name, int if f.type in ("int", int) else float, f.metadata["bounds"])
                 for f in fields(cls) if "bounds" in f.metadata)


def check_fields(obj: Any) -> None:
    """check each declared field of a dataclass instance; a float field
    given an int then holds it as a float."""
    for name, kind, bounds in declared(type(obj)):
        value = getattr(obj, name)
        check(value, name, kind, *bounds)
        if kind is float and type(value) is int:
            object.__setattr__(obj, name, float(value))
