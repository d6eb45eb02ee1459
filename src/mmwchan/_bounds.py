"""Admissible values of the simulator's inputs, checked in one place.

A range is an :class:`_Interval` or a tuple of choices.  Dataclass fields
declare theirs with :func:`admissible` and are checked together by
:func:`check_fields`; function arguments go through :func:`check`.  Every
failure is a ValueError of one form, naming the field or argument.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


@dataclasses.dataclass(frozen=True)
class _Interval:
    """Numeric range with open ``(`` or closed ``[`` ends; ``auto`` also
    admits ``None``.  NaN lies in no interval."""

    low: float
    high: float
    ends: str = "()"
    auto: bool = False

    def __contains__(self, value) -> bool:
        if value is None:
            return self.auto
        above = self.low < value if self.ends[0] == "(" else self.low <= value
        below = value < self.high if self.ends[1] == ")" else value <= self.high
        return above and below

    def __str__(self) -> str:
        text = f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"
        return text + " or auto" if self.auto else text


FINITE = _Interval(-math.inf, math.inf)
POSITIVE = _Interval(0.0, math.inf)
NON_NEGATIVE = _Interval(0.0, math.inf, "[)")
COUNT = _Interval(1, math.inf, "[)")
POSITIVE_OR_AUTO = _Interval(0.0, math.inf, auto=True)
UNIT_OPEN = _Interval(0.0, 1.0)
UNIT_HALF_OPEN = _Interval(0.0, 1.0, "(]")
UNIT_CLOSED = _Interval(0.0, 1.0, "[]")
UNIT_CLOSED_OR_AUTO = _Interval(0.0, 1.0, "[]", auto=True)


def check(name: str, value, allowed, integer: bool = False):
    """Return ``value`` if it lies in ``allowed`` (an interval or a tuple of
    choices) and, with ``integer``, is an ``Integral``; else raise a
    ValueError naming ``name``."""
    if isinstance(allowed, tuple):
        if value not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        return value
    if (integer and not isinstance(value, numbers.Integral)) or value not in allowed:
        kind = "a finite integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind} in {allowed}, got {value!r}")
    return value


def admissible(allowed, default=dataclasses.MISSING):
    """Dataclass field whose values must lie in ``allowed``."""
    return dataclasses.field(default=default, metadata={"allowed": allowed})


def check_fields(obj, label: str = "{}") -> None:
    """Check every field of dataclass ``obj`` declared with
    :func:`admissible`, an ``int`` annotation making it an integer;
    ``label`` formats the field name in the message."""
    for f in dataclasses.fields(obj):
        if "allowed" in f.metadata:
            value = getattr(obj, f.name)
            check(label.format(f.name), value, f.metadata["allowed"], f.type in ("int", int))
