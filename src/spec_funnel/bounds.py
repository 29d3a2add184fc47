"""Which numbers a config field accepts, declared on the field, as in
`tau: Annotated[float, Range(0, 1, open=True)]`, and checked by
check_bounds(self) in the dataclass's __post_init__."""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from numbers import Real
from typing import get_type_hints

from .errors import ValidationError

__all__ = ["Range", "FINITE", "check_bounds"]


@dataclass(frozen=True)
class Range:
    """lo <= v <= hi, or lo < v < hi when open. An infinite end is always
    strict, so every number a Range accepts is finite."""

    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False

    def __contains__(self, value) -> bool:
        if self.open:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi and -math.inf < value < math.inf  # isfinite raises on a huge int

    def __str__(self) -> str:
        left = "(" if self.open or self.lo == -math.inf else "["
        right = ")" if self.open or self.hi == math.inf else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


FINITE = Range()


@functools.cache
def _ranges(cls) -> dict[str, Range]:
    hints = get_type_hints(cls, include_extras=True)
    return {
        f.name: next((m for m in getattr(hints[f.name], "__metadata__", ()) if isinstance(m, Range)), FINITE)
        for f in fields(cls)
    }


def check_bounds(obj) -> None:
    """Hold each number in a field of dataclass `obj`, tuple items and
    mapping values one by one, to the field's Range, or to FINITE when it
    declares none."""
    for name, bounds in _ranges(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, Mapping):
            entries = [(f"{name}.{k}", v) for k, v in value.items()]
        elif isinstance(value, (tuple, list)):
            entries = [(f"{name}[{i}]", v) for i, v in enumerate(value)]
        else:
            entries = [(name, value)]
        for label, v in entries:
            if isinstance(v, Real) and v not in bounds:
                raise ValidationError(f"{label} must lie in {bounds}")
