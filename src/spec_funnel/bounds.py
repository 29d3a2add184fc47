"""Which numbers an argument or a config field accepts: a Range, checked
for named arguments by check(COUNT, k=k), and for a dataclass's fields,
declared on each as in `tau: Annotated[float, Range(0, 1, open=True)]`, by
check_bounds(self) in its __post_init__."""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from numbers import Real
from typing import get_type_hints

from .errors import ValidationError

__all__ = ["Range", "FINITE", "UNIT", "COUNT", "check", "check_bounds"]


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
UNIT = Range(0, 1)
COUNT = Range(1)


@functools.cache
def _ranges(cls) -> dict[str, Range]:
    hints = get_type_hints(cls, include_extras=True)
    return {
        f.name: next((m for m in getattr(hints[f.name], "__metadata__", ()) if isinstance(m, Range)), FINITE)
        for f in fields(cls)
    }


def check(bounds: Range, **values) -> None:
    """Hold each named number, and the items of a tuple or list and the
    values of a mapping one by one, to `bounds`; a value that is not a
    number is left to its user. A NaN lies in no Range."""
    for name, value in values.items():
        # exact types first: a plain float or int is the common case, and the ABC checks are slow
        if type(value) in (float, int) or not isinstance(value, (Mapping, tuple, list)):
            items, label = ((None, value),), "{}"
        elif isinstance(value, Mapping):
            items, label = value.items(), "{}.{}"
        else:
            items, label = enumerate(value), "{}[{}]"
        for key, v in items:
            if (type(v) in (float, int) or isinstance(v, Real)) and v not in bounds:
                raise ValidationError(f"{label.format(name, key)} must lie in {bounds}")


def check_bounds(obj) -> None:
    """check each field of dataclass `obj` against the field's Range, or
    against FINITE when it declares none."""
    for name, bounds in _ranges(type(obj)).items():
        check(bounds, **{name: getattr(obj, name)})
