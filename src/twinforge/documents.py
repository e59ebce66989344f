"""Config documents: one walk between dataclasses and JSON-able dicts, and one
rule for the range of every number in them.

A case bundle and each of its sections, down to the tire spline, is a
dataclass that `to_doc` writes and `from_doc` reads back; a verdict and the
sweep report are written by the same walker. The rule:

- only init fields are written and read; derived fields are rebuilt;
- a field whose name ends in `_` (`class_`) is stored under the key without it;
- a class attribute `SCHEMA_VERSION` is written as `schema_version` and required on read;
- a field with a default may be absent, and then takes the default, so the
  dataclass field default is the only place a default lives; every section,
  the vehicle's too, has one on each field but the tire spline's knots and a
  sprung mass's, so a document gives only the numbers it changes;
- a dict or list field that is given replaces the default whole, never merged;
- keys that name no field are ignored;
- a field without a default that is absent raises `ConfigurationError`
  naming the dataclass and the fields.

The field type hints drive the reading: a dataclass recurses, `dict` keys are
cast to the key type, and lists and tuples (fixed or `tuple[T, ...]`) are
rebuilt. A dataclass or dict reads only a JSON object and a list or tuple only
a JSON array, a fixed tuple only one of its length. A `float`, `int`, `str` or
`bool` leaf must have that type (an `int` passes as a `float`, as in JSON, and
is stored as one; a `bool` never passes as a number). Any other value raises
`ConfigurationError` naming its `Class.field`.

Each number of a section declares its range on its type, as
`Annotated[float, Range(...)]` or an alias below, on a field or on the items of
a tuple, list or dict field. It must be finite and inside its range: NaN, ±inf
and an int beyond the float range never pass. `Section.__post_init__` checks
every declared range, of a value read from a document or built in code alike,
and raises `ConfigurationError` naming `Class.field`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

_FLOAT_MAX = sys.float_info.max


class ConfigurationError(ValueError):
    """Raised when a configuration document or value violates its invariants."""


@dataclass(frozen=True)
class Range:
    """gt < x and ge <= x <= le; the defaults admit every finite number."""
    gt: float = -math.inf
    ge: float = -_FLOAT_MAX
    le: float = _FLOAT_MAX

    def admits(self, x) -> bool:  # int-float comparisons are exact, so no int overflows
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and self.gt < x and self.ge <= x <= self.le)

    def __str__(self) -> str:
        bounds = [f"{op} {b:g}" for op, b, free in ((">", self.gt, -math.inf),
                  (">=", self.ge, -_FLOAT_MAX), ("<=", self.le, _FLOAT_MAX)) if b != free]
        return " ".join(["a finite number", " and ".join(bounds)]).rstrip()


Finite = Annotated[float, Range()]
Positive = Annotated[float, Range(gt=0.0)]
NonNegative = Annotated[float, Range(ge=0.0)]
Fraction = Annotated[float, Range(ge=0.0, le=1.0)]
Count = Annotated[int, Range(ge=1)]
Seed = Annotated[int, Range(ge=0)]


def _check(hint, value, where: str) -> None:
    """Raise unless each number in `value` is inside the range `hint` declares for it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        if not args[1].admits(value):
            raise ConfigurationError(f"{where} must be {args[1]}, got {value!r}")
    elif origin is dict:
        for v in value.values():
            _check(args[1], v, where)
    elif origin in (list, tuple):
        each = origin is list or args[-1] is Ellipsis  # else one hint per item
        for a, v in zip(args[:1] * len(value) if each else args, value):
            _check(a, v, where)


@functools.cache
def _init_fields(cls) -> tuple:
    """(name, document key, hint with its ranges, "Class.name", required) of
    each init field of `cls`."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, f.name.removesuffix("_"), hints[f.name], f"{cls.__name__}.{f.name}",
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


class Section:
    """Base of the config dataclasses: construction checks every declared range."""

    def __post_init__(self):
        for name, _, hint, where, _ in _init_fields(type(self)):
            _check(hint, getattr(self, name), where)


def to_doc(value):
    """JSON-able document of a config value; only init fields are written."""
    if is_dataclass(value):
        doc = {key: to_doc(getattr(value, name)) for name, key, *_ in _init_fields(type(value))}
        version = getattr(value, "SCHEMA_VERSION", None)
        return doc if version is None else {"schema_version": version, **doc}
    if isinstance(value, dict):
        return {str(k): to_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_doc(v) for v in value]
    return value


def from_doc(kind, doc, where: str = ""):
    """Inverse of `to_doc`, driven by the type hints of `kind`; `where` names
    the field being read, for the error on a value of the wrong kind."""
    if get_origin(kind) is Annotated:
        kind = get_args(kind)[0]
    if kind in (float, int, str, bool):
        if isinstance(doc, bool) is not (kind is bool) or not isinstance(
                doc, (int, float) if kind is float else kind):
            raise ConfigurationError(f"{where or kind.__name__} must be {kind.__name__}, got {doc!r}")
        # an int beyond the float range stays an int and fails its field's range
        return float(doc) if kind is float and -_FLOAT_MAX <= doc <= _FLOAT_MAX else doc
    origin, args = get_origin(kind), get_args(kind)
    where = where or kind.__name__
    if origin in (list, tuple):
        each = origin is list or args[-1] is Ellipsis
        if not isinstance(doc, (list, tuple)) or not each and len(doc) != len(args):
            size = "" if each else f" of {len(args)}"
            raise ConfigurationError(f"{where} must be an array{size}, got {doc!r}")
        items = [from_doc(a, v, where) for a, v in zip(args[:1] * len(doc) if each else args, doc)]
        return items if origin is list else tuple(items)
    if not isinstance(doc, dict):  # a dataclass or a dict
        raise ConfigurationError(f"{where} must be an object, got {doc!r}")
    if origin is dict:
        return {args[0](k): from_doc(args[1], v, where) for k, v in doc.items()}
    version, got = getattr(kind, "SCHEMA_VERSION", None), doc.get("schema_version")
    if version is not None and got != version:
        raise ConfigurationError(f"{kind.__name__}.schema_version must be {version}, got {got!r}")
    spec = _init_fields(kind)
    missing = [key for _, key, _, _, required in spec if required and key not in doc]
    if missing:
        raise ConfigurationError(f"{kind.__name__} document lacks {', '.join(missing)}")
    return kind(**{name: from_doc(hint, doc[key], at)
                   for name, key, hint, at, _ in spec if key in doc})
