"""Structured-text (JSON) forms of the domain objects.

Rationals travel as exact "num/den" strings (plain integers when whole),
sets as {"elements": [...]}, points as {"head": ..., "period": ...},
martingale tables as {"depth": D, "values": {...}}, strategies as tagged
records naming their kind.  parse_* functions are the inverse direction
used by the batch front door.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from . import martingales as mg
from .coding import DyadicFunction, KCRequestList, Machine
from .covers import TestFamily
from .diagonal import DiagonalTrace, TraceStage
from .errors import ParseError
from .space import PeriodicPoint, PrefixFreeSet, StagedOpenSet


def parse_fraction(doc: Any) -> Fraction:
    try:
        if isinstance(doc, (int, str)):
            return Fraction(doc)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad rational {doc!r}: {err}") from None
    raise ParseError(f"bad rational {doc!r}")


def parse_int(doc: Any) -> int:
    """A JSON integer; a boolean or a numeric string is rejected."""
    if type(doc) is not int:
        raise TypeError(f"expected an integer, got {type(doc).__name__}")
    return doc


def parse_bool(doc: Any) -> bool:
    """JSON true or false; any other value is rejected, not read by truthiness."""
    if type(doc) is not bool:
        raise TypeError(f"expected a boolean, got {type(doc).__name__}")
    return doc


# The document of each record type: its attributes of these names, each
# under its own name.
_RECORDS = {
    PeriodicPoint: ("head", "period"),
    StagedOpenSet: ("stages", "final_measure"),
    mg.MartingaleTable: ("depth", "values"),
    mg.WinningSet: ("threshold", "generators", "source_depth", "truncated"),
    Machine: ("table",),
    KCRequestList: ("requests",),
    DiagonalTrace: ("case", "stages"),
}


def to_doc(obj: Any, frac: Callable[[Fraction], Any] = str) -> Any:
    """The JSON document of a value; frac renders each Fraction in it, by
    default as its exact "num/den" string.  A record writes the attributes
    _RECORDS names; a strategy of a registered kind, its kind and fields."""
    # Builtin types first: Fraction's isinstance goes through ABCMeta.
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_doc(x, frac) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_doc(v, frac) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return frac(obj)
    if isinstance(obj, PrefixFreeSet):
        return {"elements": list(obj.elements)}
    names = _RECORDS.get(type(obj))
    if names is None and isinstance(obj, mg.BettingStrategy) \
            and obj.kind in mg.BettingStrategy.kinds:
        names = ("kind", *obj.fields)
    if names is not None:
        return {name: to_doc(getattr(obj, name), frac) for name in names}
    if isinstance(obj, TestFamily):
        doc = {"kind": obj.kind, "levels": to_doc(obj.levels)}
        if obj.bound_schedule is not None:
            doc["bounds"] = to_doc(obj.bound_schedule, frac)
        if obj.martingale is not None:
            doc["martingale"] = to_doc(obj.martingale, frac)
        return doc
    if isinstance(obj, DyadicFunction):
        return {"values": to_doc(obj.entries, frac), "sum": frac(obj.declared_sum)}
    if isinstance(obj, TraceStage):
        return {"index": obj.index, "sigma": obj.sigma,
                "set": to_doc(obj.current), "n_e": obj.n_e, "tau": obj.tau}
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def _need(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def parse_set(doc: Any) -> PrefixFreeSet:
    try:
        return PrefixFreeSet(_need(doc, "elements"))
    except ValueError as err:
        raise ParseError(str(err)) from None


def parse_point(doc: Any) -> PeriodicPoint:
    try:
        return PeriodicPoint(_need(doc, "head"), _need(doc, "period"))
    except ValueError as err:
        raise ParseError(str(err)) from None


def parse_staged(doc: Any) -> StagedOpenSet:
    try:
        stages = tuple(parse_set(s) for s in _need(doc, "stages"))
        declared = doc.get("final_measure")
        return StagedOpenSet(
            stages, None if declared is None else parse_fraction(declared))
    except ValueError as err:
        raise ParseError(str(err)) from None


def parse_table(doc: Any) -> mg.MartingaleTable:
    try:
        values = {s: parse_fraction(v) for s, v in _need(doc, "values").items()}
        return mg.MartingaleTable(parse_int(_need(doc, "depth")), values)
    except (ValueError, TypeError, AttributeError) as err:
        raise ParseError(str(err)) from None


def _parse_field(wire: Any, doc: Any) -> Any:
    """A strategy field from its document, by the wire type its class declares."""
    if isinstance(wire, list):
        return [_parse_field(wire[0], x) for x in doc]
    if isinstance(wire, tuple):
        first, second = doc
        return _parse_field(wire[0], first), _parse_field(wire[1], second)
    if wire is str:
        return doc
    return _FIELD_PARSERS[wire](doc)


def parse_strategy(doc: Any) -> mg.BettingStrategy:
    kind = _need(doc, "kind")
    cls = mg.BettingStrategy.kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown strategy kind {kind!r}")
    try:
        return cls(*[_parse_field(wire, _need(doc, name))
                     for name, wire in cls.fields.items()])
    except (ValueError, TypeError) as err:
        raise ParseError(str(err)) from None


_FIELD_PARSERS = {
    Fraction: parse_fraction, int: parse_int, mg.MartingaleTable: parse_table,
    PeriodicPoint: parse_point, PrefixFreeSet: parse_set,
    mg.BettingStrategy: parse_strategy,
}


def parse_test(doc: Any) -> TestFamily:
    try:
        levels = {int(n): parse_set(s) for n, s in _need(doc, "levels").items()}
        bounds = doc.get("bounds")
        sched = None if bounds is None else {
            int(n): parse_fraction(v) for n, v in bounds.items()}
        mart = doc.get("martingale")
        return TestFamily(_need(doc, "kind"), levels, bound_schedule=sched,
                          martingale=None if mart is None else parse_strategy(mart))
    except (ValueError, AttributeError) as err:
        raise ParseError(str(err)) from None


def parse_machine(doc: Any) -> Machine:
    try:
        return Machine(_need(doc, "table"))
    except (ValueError, AttributeError) as err:
        raise ParseError(str(err)) from None


def parse_requests(doc: Any) -> KCRequestList:
    try:
        return KCRequestList([(parse_int(k), s) for k, s in _need(doc, "requests")])
    except (ValueError, TypeError) as err:
        raise ParseError(str(err)) from None


def parse_dyadic(doc: Any) -> DyadicFunction:
    try:
        return DyadicFunction([(k, parse_fraction(v)) for k, v in _need(doc, "values")])
    except (ValueError, TypeError) as err:
        raise ParseError(str(err)) from None


def parse_trace(doc: Any) -> DiagonalTrace:
    try:
        stages = tuple(
            TraceStage(
                index=parse_int(_need(s, "index")),
                sigma=_need(s, "sigma"),
                current=parse_set(_need(s, "set")),
                n_e=s.get("n_e"),
                tau=s.get("tau"),
            )
            for s in _need(doc, "stages")
        )
        if not stages:
            raise ParseError("a trace needs at least its final stage")
        return DiagonalTrace(_need(doc, "case"), stages)
    except (ValueError, TypeError) as err:
        raise ParseError(str(err)) from None
