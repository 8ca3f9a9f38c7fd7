"""Structured-text (JSON) forms of the domain objects.

Rationals travel as exact "num/den" strings (plain integers when whole),
sets as {"elements": [...]}, points as {"head": ..., "period": ...},
martingale tables as {"depth": D, "values": {...}}, strategies as tagged
records naming their kind.  Each record class declares its document once,
in its `fields`: every key with the wire type parse_field reads it by, a
trailing "?" marking a key that may be left out; space.record makes the
dataclass fields of all but PrefixFreeSet and DyadicFunction from it.
to_doc and dumps write a record from that declaration, and parse_field
reads one back through it, key by key, as it reads a job's fields.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _str
from types import UnionType
from typing import Any, Callable

from . import martingales as mg
from .covers import TestFamily
from .errors import ParseError
from .reports import Check, Report
from .space import Natural, PrefixFreeSet


def parse_fraction(doc: Any) -> Fraction:
    """A JSON integer or a rational's text; a boolean is not a rational."""
    try:
        if type(doc) is int or isinstance(doc, str):
            return Fraction(doc)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad rational {doc!r}: {err}") from None
    raise ParseError(f"bad rational {doc!r}")


def parse_int(doc: Any, natural: bool = False) -> int:
    """A JSON integer, >= 0 if natural; a boolean or a numeric string is rejected."""
    if type(doc) is not int:
        raise TypeError(f"expected an integer, got {type(doc).__name__}")
    if natural and doc < 0:
        raise ValueError(f"expected a natural, got {doc}")
    return doc


def parse_bool(doc: Any) -> bool:
    """JSON true or false; any other value is rejected, not read by truthiness."""
    if type(doc) is not bool:
        raise TypeError(f"expected a boolean, got {type(doc).__name__}")
    return doc


@cache
def _declared(cls: type) -> tuple | None:
    """A record class's document keys, as (name, wire type, optional) from
    its fields; None for a class that declares none, or for a strategy
    class whose kind is not registered."""
    decl = getattr(cls, "fields", None)
    if not isinstance(decl, dict) or (issubclass(cls, mg.BettingStrategy)
                                      and cls.kind not in mg.BettingStrategy.kinds):
        return None
    return tuple((key.rstrip("?"), wire, key.endswith("?")) for key, wire in decl.items())


def _shape(obj: Any, frac: Callable[[Fraction], Any] = str) -> Any:
    """A value's document one level deep, its parts left as they are: a
    Fraction as frac renders it, a dict with str keys, a list; a record's
    declared keys, a strategy's kind first, an optional key left out where
    it is None unless its type admits null; None for a JSON scalar or a
    value with no wire form."""
    # Fraction's isinstance goes through ABCMeta, so commoner types come first.
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, Check):
        return {"check": obj.name, "lhs": obj.lhs, "relation": obj.relation,
                "rhs": obj.rhs, "result": "PASS" if obj.passed else "FAIL"}
    if (keys := _declared(type(obj))) is not None:
        doc = {"kind": obj.kind} if isinstance(obj, mg.BettingStrategy) else {}
        for name, wire, optional in keys:
            if (part := getattr(obj, name)) is not None or not optional \
                    or type(wire) is UnionType:
                doc[name] = part
        return doc
    if isinstance(obj, Fraction):
        return frac(obj)
    if isinstance(obj, Report):
        return {"title": obj.title, "checks": obj.checks, "data": obj.data,
                "result": "PASS" if obj.passed else "FAIL"}
    return None


def to_doc(obj: Any, frac: Callable[[Fraction], Any] = str) -> Any:
    """The JSON document of a value, built from its shape; frac renders each
    Fraction in it, by default as its exact "num/den" string."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    doc = _shape(obj, frac)
    if doc is None:
        raise ParseError(f"cannot serialize {type(obj).__name__}")
    # The shape's dict or list is fresh, so its parts are converted in place;
    # a str part, such as a generator, is already its document, and a list
    # of them alone, which one C-level join accepts, is returned as it is.
    if type(doc) is dict:
        parts = doc.items()
    elif type(doc) is list:
        try:
            "".join(doc)
            return doc
        except TypeError:
            parts = enumerate(doc)
    else:
        return doc
    for key, part in parts:
        if type(part) is not str:
            doc[key] = to_doc(part, frac)
    return doc


def dumps(value: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, ASCII, trailing newline.

    Byte for byte json.dumps(to_doc(value), sort_keys=True, indent=2,
    allow_nan=False) + "\n", which with an indent never reaches the stdlib's
    C encoder.  Written from the values themselves by exact type, a dict's or
    a list's leaves in its own loop, the C string encoder per key and string,
    a set's lines quoted as they stand, one C-level join for a list of plain
    strings, _shape for the rest; NaN and inf raise ValueError, a value with
    no wire form TypeError.  The cap on an int's digits is lifted meanwhile.
    """
    out: list[str] = []
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no cap
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write(value, "\n", out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out.append("\n")
    return "".join(out)


# A float as the stdlib writes it (NaN and inf raise), and json's own writer.
_scalar = JSONEncoder(allow_nan=False).encode
_json = JSONEncoder(sort_keys=True, indent=2, allow_nan=False).encode
_ESCAPED = bytes(c for c in range(128) if len(_str(chr(c))) > 3)  # asked of json


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the pieces of one value to out; newline ends a line at its
    indent."""
    put = out.append
    kind = type(value)
    if kind is str:
        put(_str(value))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            put("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        if keyed := kind is dict:
            try:
                "".join(keys := sorted(value))  # TypeError for a key not a str
            except TypeError:  # which is written as its str(), sorted as one
                keys = sorted(value := _shape(value))
        else:
            try:  # strings alone, none to escape: each quoted as it stands, in one piece
                plain = (text := "".join(keys := value)).isascii() \
                    and len(text.encode().translate(None, _ESCAPED)) == len(text)
            except TypeError:
                plain = False
            if plain:
                out.extend(("[" + inner + '"', ('",' + inner + '"').join(value),
                            '"' + newline + "]"))
                return
        # Each member or item; the leaves, exact types only, written here.
        sep = ("{" if keyed else "[") + inner
        for item in keys:
            head = sep
            if keyed:
                head, item = sep + _str(item) + ": ", value[item]
            kind = type(item)
            if kind is str:
                put(head + _str(item))
            elif kind is int:
                put(head + int.__repr__(item))
            elif kind is Fraction:
                put(head + '"' + str(item) + '"')
            elif kind is bool or item is None:
                put(head + ("null" if item is None else "true" if item else "false"))
            else:
                put(head)
                _write(item, inner, out)
            sep = "," + inner
        put(newline + ("}" if keyed else "]"))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool or value is None:
        put("null" if value is None else "true" if value else "false")
    elif kind is float:
        put(_scalar(value))
    elif kind is PrefixFreeSet:
        # Generators are checked bit strings: each line is quoted as it stands.
        if not value.count:
            put("{" + newline + '  "elements": []' + newline + "}")
            return
        inner = newline + "    "
        out.extend(("{" + newline + '  "elements": [' + inner + '"',
                    value.lines('",' + inner + '"'),
                    '"' + newline + "  ]" + newline + "}"))
    elif (doc := _shape(value)) is not None:
        _write(doc, newline, out)
    else:
        # A subclass of a JSON scalar by json's writer, at this indent; or TypeError.
        put(_json(value).replace("\n", newline))


def parse_set(doc: Any) -> PrefixFreeSet:
    return parse_field(PrefixFreeSet, doc)


def parse_test(doc: Any) -> TestFamily:
    return parse_field(TestFamily, doc)


def _bits(doc: Any) -> str:
    if not isinstance(doc, str):
        raise TypeError("expected a bit string")
    return doc


def parse_field(wire: Any, doc: Any) -> Any:
    """A job's or a record's field from its document, by the wire type it
    declares: [T] a JSON list of T, list one of anything, (A, B) a JSON list
    of an A and a B, {K: V} an object of K keys (str as they are, Natural a
    natural's canonical text) and V values, a dict of names one of its
    names, T | None a T or null, a class by its _FIELD_PARSERS entry or else
    as a record of the fields it declares.  The wrong shape raises TypeError
    or ValueError, which a record prefixes with its field; ParseError is for
    text or a record of the right shape refused: a bad rational, an index
    not written canonically, an unknown strategy kind, and a record its
    class refuses, in the class's words."""
    kind = type(wire)
    if kind is list or wire is list:
        if not isinstance(doc, list):
            raise TypeError("expected a list")
        return doc if wire is list else [parse_field(wire[0], x) for x in doc]
    if kind is tuple:
        if not isinstance(doc, list) or len(doc) != 2:
            raise TypeError("expected a pair")
        return parse_field(wire[0], doc[0]), parse_field(wire[1], doc[1])
    if kind is dict:
        key, value = next(iter(wire.items()))
        if isinstance(key, str):
            if not isinstance(doc, str) or doc not in wire:
                raise ValueError(f"must be one of {', '.join(wire)}")
            return doc
        if not isinstance(doc, dict):
            raise TypeError("expected an object")
        out = {}
        for text, part in doc.items():
            if key is Natural and not (text.isdecimal() and str(int(text)) == text):
                raise ParseError(f"index {text!r} is not written as a canonical natural")
            out[int(text) if key is Natural else text] = parse_field(value, part)
        return out
    if kind is UnionType:
        return None if doc is None else parse_field(wire.__args__[0], doc)
    parse = _FIELD_PARSERS.get(wire)
    return parse(doc) if parse is not None else _record(wire, doc)


def _record(cls: type, doc: Any) -> Any:
    """A record made by keyword from its declared keys, each read by its
    wire type; an optional key absent or null leaves the constructor's
    default.  A strategy is read as the class its kind names."""
    if not isinstance(doc, dict):
        raise TypeError("expected an object")
    if cls is mg.BettingStrategy:
        if "kind" not in doc:
            raise ValueError("missing field 'kind'")
        kind = doc["kind"]
        cls = mg.BettingStrategy.kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ParseError(f"unknown strategy kind {kind!r}")
    args = {}
    for name, wire, optional in _declared(cls):
        if (part := doc.get(name)) is None:
            if optional:
                continue
            if name not in doc:
                raise ValueError(f"missing field {name!r}")
        try:
            args[name] = parse_field(wire, part)
        except (TypeError, ValueError) as err:
            raise ValueError(f"field {name!r}: {err}") from None
    try:
        return cls(**args)
    except ValueError as err:
        raise ParseError(str(err)) from None


# str is a bit string (its bits checked by what reads it), Natural a JSON
# integer >= 0, and object any JSON value, checked by the record holding it.
_FIELD_PARSERS = {
    int: parse_int, Natural: lambda doc: parse_int(doc, natural=True), bool: parse_bool,
    str: _bits, Fraction: parse_fraction, object: lambda doc: doc,
}
