"""Config documents: one walk between dataclasses and JSON-able dicts.

Every section of a case bundle (vehicle, autonomy, sensors, sim) is a
dataclass that `to_doc` writes and `from_doc` reads back. The rule:

- only init fields are written and read; derived fields are rebuilt;
- a field with a default may be absent, and then takes the default, so the
  dataclass field default is the only place a default lives;
- keys that name no field are ignored;
- a field without a default that is absent raises `ConfigurationError`
  naming the dataclass and the fields.

The field type hints drive the reading: a dataclass recurses, `dict` keys are
cast to the key type, lists and tuples (fixed or `tuple[T, ...]`) are
rebuilt, and a non-dataclass type with `to_dict`/`from_dict` (such as
`FrictionSpline`) serialises itself. A `float`, `int`, `str` or `bool` leaf
must have that type (an `int` passes as a `float`, as in JSON; a `bool` never
passes as a number), else `ConfigurationError` names its `Class.field`.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

_type_hints = functools.cache(get_type_hints)  # each call compiles every string annotation


class ConfigurationError(ValueError):
    """Raised when a configuration document or value violates its invariants."""


def to_doc(value):
    """JSON-able document of a config value; only init fields are written."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value) if f.init}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): to_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_doc(v) for v in value]
    return value


def from_doc(kind, doc, where: str = ""):
    """Inverse of `to_doc`, driven by the type hints of `kind`; `where` names
    the field being read, for the error on a scalar of the wrong type."""
    if is_dataclass(kind):
        missing = [f.name for f in fields(kind) if f.init and f.name not in doc
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigurationError(f"{kind.__name__} document lacks {', '.join(missing)}")
        hints = _type_hints(kind)
        return kind(**{f.name: from_doc(hints[f.name], doc[f.name], f"{kind.__name__}.{f.name}")
                       for f in fields(kind) if f.init and f.name in doc})
    if hasattr(kind, "from_dict"):
        return kind.from_dict(doc)
    if kind in (float, int, str, bool):
        if isinstance(doc, bool) is not (kind is bool) or not isinstance(
                doc, (int, float) if kind is float else kind):
            raise ConfigurationError(f"{where or kind.__name__} must be {kind.__name__}, got {doc!r}")
        return doc
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        return {args[0](k): from_doc(args[1], v, where) for k, v in doc.items()}
    if origin is list:
        return [from_doc(args[0], v, where) for v in doc]
    if origin is tuple and args[-1] is Ellipsis:
        return tuple(from_doc(args[0], v, where) for v in doc)
    if origin is tuple:
        return tuple(from_doc(a, v, where) for a, v in zip(args, doc, strict=True))
    return doc
