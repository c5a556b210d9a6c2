"""The checkpoint codec: one format for all simulator state.

Every stateful simulator class declares its state once, as a tuple of
attribute names in a class attribute ``STATE``.  Slotted records -- a
cache :class:`~repro.memory.cache.Line`, an MHT entry and its register
slots, the stride, SMS and Tango table entries -- list their fields the
same way; a slot a record leaves out is derived, and a restored record
starts it as None.  :func:`snapshot` turns a declared object into
JSON-stable data (``json.loads(json.dumps(s)) == s``) and
:func:`restore` writes it back into a live object of the same
assembly.

Restore rules:

* an attribute holding a declared object (a *component*) is restored
  into that object;
* every list, dict, deque and set is refilled in place, and a list of
  containers element by element: the B-Fetch walk, the cycle loop and
  the front end bind tables and queues once;
* a ``random.Random`` is given its saved state in place;
* any other value (an int, None, a record) is replaced;
* afterwards a component's ``after_restore()``, if it has one,
  rebuilds lookups derived from the declared state (the BrTC's
  successor hashes).  Derived state is never stored.

Representation: scalars are themselves and a list is a JSON list of its
items.  Other values are one-key JSON objects: ``{"tuple": items}``,
``{"deque": items}``, ``{"set": sorted items}``, ``{"dict": [keys,
values]}`` (two item lists, so int keys and key order -- a cache set's
recency -- survive), ``{"rng": state}`` and ``{"sentinel": name}`` for
the :data:`~repro.prefetchers.base.IFETCH_META` identity.  Items are
stored by columns where they can be:

* plain values are copied whole, after one pass over their types in C,
  never walked one by one in Python;
* records of one type (or None) are ``{tag: rows}``, one field list per
  record; the tag picks the class from :data:`RECORDS`, a fixed table,
  so a loaded file never names a class to import or instantiate;
* dicts (a cache's sets) are ``{"dicts": [sizes, keys, values]}``, the
  keys and values of all of them in two item lists.
"""

import random
from collections import OrderedDict, deque
from importlib import import_module
from itertools import chain, islice, repeat
from operator import attrgetter

from repro.prefetchers.base import IFETCH_META

_NoneType = type(None)
_SCALARS = frozenset((int, float, str, bool, _NoneType))
_CONTAINERS = frozenset((list, dict, deque, set))
_DICT = frozenset((dict,))

#: the record types a checkpoint may hold: tag -> (module, class)
RECORDS = {
    "line": ("repro.memory.cache", "Line"),
    "mht-entry": ("repro.core.mht", "MHTEntry"),
    "mht-slot": ("repro.core.mht", "RegisterHistory"),
    "stride-entry": ("repro.prefetchers.stride", "_Entry"),
    "sms-generation": ("repro.prefetchers.sms", "_Generation"),
    "tango-entry": ("repro.prefetchers.tango", "_BlockEntry"),
}
_TAGS = {path: tag for tag, path in RECORDS.items()}
_SENTINELS = {"ifetch": IFETCH_META}
_classes = {}  # tag -> (record class, undeclared slots), on first use
_record_types = {}  # class -> (tag, fields getter) or None


def snapshot(obj):
    """The declared ``STATE`` of *obj* as JSON-stable data."""
    state = {}
    for name in type(obj).STATE:
        value = getattr(obj, name)
        if hasattr(type(value), "STATE"):
            state[name] = snapshot(value)
        else:
            state[name] = _encode(value)
    return state


def restore(obj, state):
    """Write :func:`snapshot` output *state* back into *obj* in place."""
    for name in type(obj).STATE:
        data = state[name]
        current = getattr(obj, name)
        if hasattr(type(current), "STATE"):
            restore(current, data)
        elif type(data) in _SCALARS or not _refill(current, data):
            setattr(obj, name, _decode(data))
    after_restore = getattr(obj, "after_restore", None)
    if after_restore is not None:
        after_restore()


# ----------------------------------------------------------------------
# encoding


def _encode(value):
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return _items(value)
    if kind is dict or kind is OrderedDict:
        return {"dict": [_items(list(value)), _items(list(value.values()))]}
    if kind is tuple:
        if value is IFETCH_META:
            return {"sentinel": "ifetch"}
        return {"tuple": _items(value)}
    if kind is deque:
        return {"deque": _items(value)}
    if kind is set:
        return {"set": sorted(value)}
    if isinstance(value, random.Random):
        version, internal, gauss_next = value.getstate()
        return {"rng": [version, list(internal), gauss_next]}
    raise TypeError("cannot checkpoint a %s: %r" % (kind.__name__, value))


def _items(values):
    """The items of a list, tuple or deque: copied whole when they are
    all plain values, as rows when they are records of one type, as
    three columns when they are dicts."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return list(values)
    if kinds == _DICT:  # e.g. a cache's sets: one pass over all of them
        return {"dicts": [
            list(map(len, values)),
            _items(list(chain.from_iterable(values))),
            _items(list(chain.from_iterable(map(dict.values, values)))),
        ]}
    holes = _NoneType in kinds
    if len(kinds) == 1 + holes:
        kinds.discard(_NoneType)
        record = _record_type(kinds.pop())
        if record is not None:
            tag, fields = record
            if holes:
                rows = [None if value is None else fields(value)
                        for value in values]
            else:
                rows = list(map(fields, values))
            plain = set(map(type, chain.from_iterable(
                filter(None, rows)))) <= _SCALARS
            if plain and not holes:
                return {tag: list(map(list, rows))}
            encode_row = list if plain else _encode_row
            return {tag: [None if row is None else encode_row(row)
                          for row in rows]}
    return [_encode(value) for value in values]


def _encode_row(row):
    return [_encode(value) for value in row]


def _record_type(cls):
    """``(tag, fields getter)`` of a record class, None for any other."""
    try:
        return _record_types[cls]
    except KeyError:
        tag = _TAGS.get((cls.__module__, cls.__name__))
        record = None if tag is None else (tag, attrgetter(*cls.STATE))
        _record_types[cls] = record
        return record


# ----------------------------------------------------------------------
# decoding


def _decode(data):
    kind = type(data)
    if kind is list:
        if set(map(type, data)) <= _SCALARS:
            return list(data)
        return [_decode(item) for item in data]
    if kind is not dict:
        return data
    (tag, payload), = data.items()
    if tag == "tuple":
        return tuple(_decode(payload))
    if tag == "dict":
        keys, values = payload
        return dict(zip(_decode(keys), _decode(values)))
    if tag == "dicts":
        return [dict(items) for items in _dict_items(payload)]
    if tag == "deque":
        return deque(_decode(payload))
    if tag == "set":
        return set(payload)
    if tag == "rng":
        rng = random.Random()
        rng.setstate(_rng_state(payload))
        return rng
    if tag == "sentinel":
        return _SENTINELS[payload]
    return _decode_rows(tag, payload)


def _decode_rows(tag, rows):
    """The records (or None) of *rows*, built without their
    constructors: each declared field from its row, every other slot
    (derived state, such as an MHT entry's issue list) None.  Fields are
    set a column at a time, in C loops."""
    cls, derived = _record_class(tag)
    present = [row for row in rows if row is not None]
    if not set(map(type, chain.from_iterable(present))) <= _SCALARS:
        present = [list(map(_decode, row)) for row in present]
    records = list(map(cls.__new__, repeat(cls, len(present))))
    for name, column in zip(cls.STATE, zip(*present)):
        deque(map(setattr, records, repeat(name), column), 0)
    for name in derived:
        deque(map(setattr, records, repeat(name), repeat(None)), 0)
    if len(present) == len(rows):
        return records
    built = iter(records)
    return [None if row is None else next(built) for row in rows]


def _record_class(tag):
    """``(class, slots it does not declare)`` of the record *tag*."""
    record = _classes.get(tag)
    if record is None:
        module, name = RECORDS[tag]  # KeyError: not a record tag
        cls = getattr(import_module(module), name)
        record = _classes[tag] = (cls, tuple(
            slot for slot in cls.__slots__ if slot not in cls.STATE))
    return record


def _dict_items(payload):
    """The ``(key, value)`` pairs of each dict of a ``dicts`` payload."""
    sizes, keys, values = payload
    keys = iter(_decode(keys))
    values = iter(_decode(values))
    for size in sizes:
        yield zip(islice(keys, size), islice(values, size)) if size else ()


def _rng_state(payload):
    version, internal, gauss_next = payload
    return version, tuple(internal), gauss_next


def _refill(target, data):
    """Refill container *target* from *data* in place; False when
    *target* is not a container."""
    kind = type(target)
    if kind is list:
        if type(data) is list:
            if set(map(type, data)) <= _SCALARS:
                target[:] = data
                return True
            if len(data) == len(target) \
                    and set(map(type, target)) <= _CONTAINERS:
                for index, (element, saved) in enumerate(zip(target, data)):
                    if type(saved) in _SCALARS \
                            or not _refill(element, saved):
                        target[index] = _decode(saved)
                return True
        elif "dicts" in data and len(data["dicts"][0]) == len(target) \
                and set(map(type, target)) == _DICT:
            for element, items in zip(target, _dict_items(data["dicts"])):
                element.clear()
                element.update(items)
            return True
        target[:] = _decode(data)
    elif isinstance(target, dict):
        keys, values = data["dict"]
        target.clear()
        target.update(zip(_decode(keys), _decode(values)))
    elif kind is deque:
        target.clear()
        target.extend(_decode(data["deque"]))
    elif kind is set:
        target.clear()
        target.update(data["set"])
    elif isinstance(target, random.Random):
        target.setstate(_rng_state(data["rng"]))
    else:
        return False
    return True
