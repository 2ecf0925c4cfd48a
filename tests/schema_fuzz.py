"""Generated fuzz over a declared document (:mod:`repro.obs.schema`).

:func:`skewed` walks a declaration over a complete sample document and
yields one copy per (declared position, wrong value): every field of every
:class:`Record`, the first item of each list or free-keyed object and each
item of a tuple, set in turn to each of :data:`WRONG`.  It fails when the
sample leaves a declared field unreached, so a field added to a
declaration is fuzzed as soon as the sample carries it.
"""

import copy

from repro.obs.schema import ListOf, Nullable, ObjectOf, Record, TupleOf

#: deletes the field instead of setting it
MISSING = object()

#: what each declared position is set to in turn; ``1e400`` is spelt as
#: JSON integer digits, an integer past the float range (the float
#: spelling parses as ``inf``, already covered)
WRONG = {"missing": MISSING, "null": None, "string": "x", "list": [1],
         "object": {"v": 1}, "nan": float("nan"), "inf": float("inf"),
         "-inf": float("-inf"), "1e400": 10 ** 400}


def _declared(kind, seen):
    """Every (record id, field name) a declaration holds."""
    if isinstance(kind, Record):
        if id(kind) in seen:
            return
        seen.add(id(kind))
        for name, (sub, _) in kind.fields.items():
            yield id(kind), name
            yield from _declared(sub, seen)
    elif isinstance(kind, TupleOf):
        for sub in kind.kinds:
            yield from _declared(sub, seen)
    elif isinstance(kind, (Nullable, ListOf, ObjectOf)):
        yield from _declared(kind.kind, seen)


def _positions(kind, doc, path, reached):
    """``path`` of every declared position the sample ``doc`` holds."""
    if isinstance(kind, Nullable):
        if doc is not None:
            yield from _positions(kind.kind, doc, path, reached)
    elif isinstance(kind, Record):
        for name, (sub, _) in kind.fields.items():
            if name in doc:
                reached.add((id(kind), name))
                yield path + (name,)
                yield from _positions(sub, doc[name], path + (name,),
                                      reached)
    elif isinstance(kind, (ListOf, ObjectOf)) and doc:
        key = 0 if isinstance(kind, ListOf) else next(iter(doc))
        yield path + (key,)
        yield from _positions(kind.kind, doc[key], path + (key,), reached)
    elif isinstance(kind, TupleOf):
        for i, sub in enumerate(kind.kinds):
            yield path + (i,)
            yield from _positions(sub, doc[i], path + (i,), reached)


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def skewed(kind, doc, at=()):
    """``(label, skewed copy of doc)`` for every declared position of the
    sub-document ``doc[at...]`` (declared by ``kind``) and every wrong
    value."""
    sub = doc
    for key in at:
        sub = sub[key]
    reached = set()
    paths = list(_positions(kind, sub, at, reached))
    unreached = set(_declared(kind, set())) - reached
    assert not unreached, f"sample lacks declared fields {unreached}"
    for path in paths:
        for name, value in WRONG.items():
            label = ".".join(map(str, path)) + "=" + name
            yield label, _set(doc, path, value)
