"""Structured-text (JSON) forms of the domain objects.

Rationals travel as exact "num/den" strings (plain integers when whole),
sets as {"elements": [...]}, points as {"head": ..., "period": ...},
martingale tables as {"depth": D, "values": {...}}, strategies as tagged
records naming their kind, written by to_doc and by dumps from one shape
rule.  Each record type of _RECORDS is a dataclass whose fields are its
document keys.  parse_* functions are the inverse direction used by the
front door, and parse_field reads a job's or a strategy's field by the wire
type it declares.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from fractions import Fraction
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Callable

from . import martingales as mg
from .coding import DyadicFunction, KCRequestList, Machine
from .covers import TestFamily
from .diagonal import DiagonalTrace, TraceStage
from .errors import ParseError
from .reports import Check, Report
from .space import Natural, PeriodicPoint, PrefixFreeSet, StagedOpenSet, check_bits


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


# The wire's record types: a record's document is its dataclass fields, by name.
_RECORDS = {cls: tuple(f.name for f in fields(cls)) for cls in (
    PeriodicPoint, StagedOpenSet, mg.MartingaleTable, mg.WinningSet, Machine,
    KCRequestList, DiagonalTrace)}


def _shape(obj: Any, frac: Callable[[Fraction], Any] = str) -> Any:
    """A value's document one level deep, its parts left as they are: a
    Fraction as frac renders it, a dict with str keys, a list; a record's
    attributes _RECORDS names; a registered strategy's kind and fields;
    None for a JSON scalar or a value with no wire form."""
    # Fraction's isinstance goes through ABCMeta, so commoner types come first.
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, Check):
        return {"check": obj.name, "lhs": obj.lhs, "relation": obj.relation,
                "rhs": obj.rhs, "result": "PASS" if obj.passed else "FAIL"}
    if isinstance(obj, PrefixFreeSet):
        return {"elements": obj.elements}
    if isinstance(obj, Fraction):
        return frac(obj)
    names = _RECORDS.get(type(obj))
    if names is None and isinstance(obj, mg.BettingStrategy) \
            and obj.kind in mg.BettingStrategy.kinds:
        names = ("kind", *obj.fields)
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, Report):
        return {"title": obj.title, "checks": obj.checks, "data": obj.data,
                "result": "PASS" if obj.passed else "FAIL"}
    if isinstance(obj, TestFamily):
        doc = {"kind": obj.kind, "levels": obj.levels,
               "bounds": obj.bound_schedule, "martingale": obj.martingale}
        return {key: part for key, part in doc.items() if part is not None}
    if isinstance(obj, DyadicFunction):
        return {"values": obj.entries, "sum": obj.declared_sum}
    if isinstance(obj, TraceStage):
        return {"index": obj.index, "sigma": obj.sigma,
                "set": obj.current, "n_e": obj.n_e, "tau": obj.tau}
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
    # a str part, such as a generator, is already its document.
    if type(doc) is dict:
        parts = doc.items()
    elif type(doc) is list:
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
    C encoder.  Written from the values themselves: exact types first, the C
    string encoder per key and string, a set's lines quoted by one replace,
    one C-level join for a list of strings, _shape for the rest; NaN and inf
    raise ValueError, a value with no wire form TypeError.  The
    interpreter's cap on an int's digits is lifted meanwhile.
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
    elif kind is dict:
        if not value:
            put("{}")
            return
        try:
            "".join(keys := sorted(value))  # TypeError for a key not a str
        except TypeError:  # which is written as its str(), sorted as one
            keys = sorted(value := _shape(value))
        inner = newline + "  "
        sep = "{" + inner
        for key in keys:
            if type(item := value[key]) is str:
                put(sep + _str(key) + ": " + _str(item))
            else:
                put(sep + _str(key) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        put(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        put("[" + inner)
        try:
            text = "".join(value)
        except TypeError:
            sep = ""
            for item in value:
                put(sep)
                _write(item, inner, out)
                sep = "," + inner
        else:
            # Nothing to escape: each string quoted as is; the body is its own piece.
            if text.isascii() and len(text.encode().translate(None, _ESCAPED)) == len(text):
                out.extend(('"', ('",' + inner + '"').join(value), '"'))
            else:
                put(("," + inner).join(map(_str, value)))
        put(newline + "]")
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
                    value.lines().replace("\n", '",' + inner + '"'),
                    '"' + newline + "  ]" + newline + "}"))
    elif (doc := _shape(value)) is not None:
        _write(doc, newline, out)
    else:
        # A subclass of a JSON scalar by json's writer, at this indent; or TypeError.
        put(_json(value).replace("\n", newline))


def _need(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _refusing(*errors: type) -> Callable:
    """A parser whose errors of these types become a ParseError, same message."""
    def wrap(parse: Callable) -> Callable:
        def parsed(doc: Any) -> Any:
            try:
                return parse(doc)
            except errors as err:
                raise ParseError(str(err)) from None
        return parsed
    return wrap


@_refusing(ValueError)
def parse_set(doc: Any) -> PrefixFreeSet:
    return PrefixFreeSet(_need(doc, "elements"))


@_refusing(ValueError)
def parse_point(doc: Any) -> PeriodicPoint:
    return PeriodicPoint(_need(doc, "head"), _need(doc, "period"))


@_refusing(ValueError)
def parse_staged(doc: Any) -> StagedOpenSet:
    stages = tuple(parse_set(s) for s in _need(doc, "stages"))
    declared = doc.get("final_measure")
    return StagedOpenSet(stages, None if declared is None else parse_fraction(declared))


@_refusing(ValueError, TypeError, AttributeError)
def parse_table(doc: Any) -> mg.MartingaleTable:
    values = {s: parse_fraction(v) for s, v in _need(doc, "values").items()}
    return mg.MartingaleTable(parse_int(_need(doc, "depth")), values)


@_refusing(ValueError, TypeError)
def parse_strategy(doc: Any) -> mg.BettingStrategy:
    kind = _need(doc, "kind")
    cls = mg.BettingStrategy.kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown strategy kind {kind!r}")
    return cls(*[parse_field(wire, _need(doc, name)) for name, wire in cls.fields.items()])


def _index(key: str) -> int:
    """A test family's level or bound index, a natural's canonical text."""
    if str(n := int(key)) != key:
        raise ParseError(f"index {key!r} is not written as a canonical natural")
    return n


@_refusing(ValueError, AttributeError)
def parse_test(doc: Any) -> TestFamily:
    levels = {_index(n): parse_set(s) for n, s in _need(doc, "levels").items()}
    bounds = doc.get("bounds")
    sched = None if bounds is None else {
        _index(n): parse_fraction(v) for n, v in bounds.items()}
    mart = doc.get("martingale")
    return TestFamily(_need(doc, "kind"), levels, bound_schedule=sched,
                      martingale=None if mart is None else parse_strategy(mart))


@_refusing(ValueError, AttributeError)
def parse_machine(doc: Any) -> Machine:
    return Machine(_need(doc, "table"))


@_refusing(ValueError, TypeError)
def parse_requests(doc: Any) -> KCRequestList:
    return KCRequestList([(parse_int(k), s) for k, s in _need(doc, "requests")])


@_refusing(ValueError, TypeError)
def parse_dyadic(doc: Any) -> DyadicFunction:
    return DyadicFunction([(k, parse_fraction(v)) for k, v in _need(doc, "values")])


def _stage_field(s: dict, key: str, parse: Callable, null: bool = True) -> Any:
    """A trace stage's field by its parser, or None where it may be null and is."""
    if null and s.get(key) is None:
        return None
    value = _need(s, key)
    try:
        return parse(value)
    except (ValueError, TypeError, ParseError) as err:
        raise ParseError(f"trace stage field {key!r}: {err}") from None


@_refusing(ValueError, TypeError)
def parse_trace(doc: Any) -> DiagonalTrace:
    stages = tuple(TraceStage(index=_stage_field(s, "index", parse_int, null=False),
                              sigma=_stage_field(s, "sigma", check_bits, null=False),
                              current=_stage_field(s, "set", parse_set, null=False),
                              n_e=_stage_field(s, "n_e", parse_int),
                              tau=_stage_field(s, "tau", check_bits))
                   for s in _need(doc, "stages"))
    if not stages:
        raise ParseError("a trace needs at least its final stage")
    return DiagonalTrace(_need(doc, "case"), stages)


def _bits(doc: Any) -> str:
    if not isinstance(doc, str):
        raise TypeError("expected a bit string")
    return doc


def parse_field(wire: Any, doc: Any) -> Any:
    """A job's or a strategy's field from its document, by the wire type it
    declares: [T] a JSON list of T, list a JSON list of anything, (A, B) a
    JSON list of an A and a B, a dict one of its keys, a type by its
    _FIELD_PARSERS entry."""
    if type(wire) is list or wire is list:
        if not isinstance(doc, list):
            raise TypeError("expected a list")
        return doc if wire is list else [parse_field(wire[0], x) for x in doc]
    if type(wire) is tuple:
        if not isinstance(doc, list) or len(doc) != 2:
            raise TypeError("expected a pair")
        return parse_field(wire[0], doc[0]), parse_field(wire[1], doc[1])
    if type(wire) is dict:
        if doc not in wire:
            raise ValueError(f"must be one of {', '.join(wire)}")
        return doc
    return _FIELD_PARSERS[wire](doc)


# str is a bit string (its bits checked by what reads it), Natural a JSON
# integer >= 0, and a job's requests the list a KCRequestList's document holds.
_FIELD_PARSERS = {
    int: parse_int, Natural: lambda doc: parse_int(doc, natural=True), bool: parse_bool,
    str: _bits, Fraction: parse_fraction, PrefixFreeSet: parse_set,
    PeriodicPoint: parse_point, StagedOpenSet: parse_staged, TestFamily: parse_test,
    mg.MartingaleTable: parse_table, mg.BettingStrategy: parse_strategy,
    Machine: parse_machine, DyadicFunction: parse_dyadic, DiagonalTrace: parse_trace,
    KCRequestList: lambda doc: parse_requests({"requests": doc}),
}
