"""One parser for every JSON document the repo reads back.

Each document is declared once, next to its writer, from a few field
kinds; :func:`declare` derives a declaration from a dataclass.  A reader
parses at its boundary and then trusts every declared field: a missing or
wrongly typed one raises :class:`SchemaError` naming its dotted path
(``shape_plan.requests[0].dtype``), which the obs CLIs report as exit 2
and ``CheckpointStore.validate`` as a "manifest" problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from typing import Callable, Dict, Optional


class SchemaError(ValueError):
    """A document field is missing or of the wrong type."""


#: a REQUIRED field must be present; an ABSENT one may be missing and stays
#: missing (its readers pick their own fallback)
REQUIRED, ABSENT = object(), object()


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class Kind:
    """A leaf field kind: ``check`` returns the value, or raises TypeError,
    ValueError or OverflowError on one the kind cannot hold.  Container
    kinds override :meth:`parse`."""

    def __init__(self, what: str, check: Optional[Callable] = None):
        self.what = what
        self.check = check

    def fail(self, value: object, path: str):
        text = repr(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise SchemaError(f"{path or 'document'} is {text}, not {self.what}")

    def parse(self, value: object, path: str = "") -> object:
        try:
            return self.check(value)
        except (TypeError, ValueError, OverflowError):
            self.fail(value, path)


def _number(v: object) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError
    return float(v)         # an integer past the float range overflows


def _need(ok: bool, v: object) -> object:
    if not ok:
        raise ValueError
    return v


#: a number; NaN and ±inf pass, because the numerics detectors report them
FLOAT = Kind("a number", _number)
FINITE = Kind("a finite number",
              lambda v: _need(math.isfinite(_number(v)), float(v)))
INT = Kind("an integer", lambda v: _need(_number(v).is_integer(), int(v)))
#: a size or count of at least one (a world size, an item size, a tile)
POSITIVE = Kind("a positive integer", lambda v: _need(INT.check(v) >= 1,
                                                      int(v)))
STR = Kind("a string", lambda v: _need(isinstance(v, str), v))
BOOL = Kind("a boolean", lambda v: _need(isinstance(v, bool), v))


def one_of(*choices: object) -> Kind:
    """A value from a fixed set (a kernel's stage, library or family)."""
    return Kind(f"one of {', '.join(map(str, choices))}",
                lambda v: _need(v in choices, v))


class Nullable(Kind):
    """``null`` or a value of ``kind`` (a writer's ``Optional``)."""

    def __init__(self, kind: Kind):
        super().__init__(f"null or {kind.what}")
        self.kind = kind

    def parse(self, value, path=""):
        return None if value is None else self.kind.parse(value, path)


class ListOf(Kind):
    def __init__(self, kind: Kind):
        super().__init__("a list")
        self.kind = kind

    def parse(self, value, path=""):
        if not isinstance(value, list):
            self.fail(value, path)
        return [self.kind.parse(v, f"{path}[{i}]")
                for i, v in enumerate(value)]


class TupleOf(Kind):
    """A fixed-length list whose items have their own kinds."""

    def __init__(self, *kinds: Kind):
        super().__init__(f"a list of {len(kinds)} items")
        self.kinds = kinds

    def parse(self, value, path=""):
        if not isinstance(value, list) or len(value) != len(self.kinds):
            self.fail(value, path)
        return [k.parse(v, f"{path}[{i}]")
                for i, (k, v) in enumerate(zip(self.kinds, value))]


class ObjectOf(Kind):
    """An object with free keys, every value of ``kind``."""

    def __init__(self, kind: Kind):
        super().__init__("an object")
        self.kind = kind

    def parse(self, value, path=""):
        if not isinstance(value, dict):
            self.fail(value, path)
        return {k: self.kind.parse(v, _at(path, k)) for k, v in value.items()}


class Record(Kind):
    """An object with declared fields; undeclared keys pass through.

    ``fields`` maps a name to a kind (required) or to ``(kind, default)``.
    A missing field gets its default *parsed*, so an object default fills
    in its own fields' defaults.  ``tag`` pins the ``"schema"`` key;
    ``cls`` is the dataclass :meth:`make` builds.
    """

    def __init__(self, fields: Dict[str, object], *,
                 tag: Optional[str] = None, title: Optional[str] = None,
                 cls: Optional[type] = None):
        super().__init__("an object")
        self.fields = {name: spec if isinstance(spec, tuple)
                       else (spec, REQUIRED) for name, spec in fields.items()}
        self.tag, self.title, self.cls = tag, title or f"{tag} document", cls

    def parse(self, value, path=""):
        if not isinstance(value, dict):
            self.fail(value, path)
        if self.tag is not None and value.get("schema") != self.tag:
            raise SchemaError(f"{_at(path, 'schema')} is "
                              f"{value.get('schema')!r}, not {self.tag!r}")
        out = dict(value)
        for name, (kind, default) in self.fields.items():
            if name in value:
                out[name] = kind.parse(value[name], _at(path, name))
            elif default is REQUIRED:
                raise SchemaError(f"{_at(path, name)} is missing")
            elif default is not ABSENT:
                out[name] = kind.parse(default, _at(path, name))
        return out

    def make(self, parsed: Dict[str, object], **extra: object) -> object:
        """The dataclass instance of an already-parsed value."""
        return self.cls(**extra, **{k: parsed[k] for k in self.fields})

    def load(self, path) -> Dict[str, object]:
        """Read and parse one JSON document; every error names the file."""
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}: not valid JSON (truncated or "
                                  f"corrupt write?): {e}") from e
        try:
            return self.parse(doc)
        except SchemaError as e:
            raise SchemaError(f"{path}: not a {self.title}: {e}") from None


_HINTS = {int: INT, float: FLOAT, str: STR, bool: BOOL}


def _kind_of(hint: object) -> Kind:
    args = typing.get_args(hint)
    if type(None) in args:                      # Optional[X]
        return Nullable(_kind_of(args[0]))
    if typing.get_origin(hint) is dict:
        return ObjectOf(_kind_of(args[1]))
    return _HINTS[hint]


def _default(f: dataclasses.Field) -> object:
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED


def declare(cls: type, *, exclude: tuple = (), **overrides: object
            ) -> Record:
    """The :class:`Record` of a dataclass: kinds from its type hints,
    defaults from its field defaults (none = required); ``overrides``
    replace a field's kind or ``(kind, default)``."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: (_kind_of(hints[f.name]), _default(f))
              for f in dataclasses.fields(cls) if f.name not in exclude}
    return Record({**fields, **overrides}, cls=cls)
