"""Certificate reports: named exact checks with both sides kept as rationals.

Every construction that asserts a paper bound returns (or embeds) a Report
so the CLI and the acceptance suite can print one PASS/FAIL line per
certified inequality, with no decimal approximations anywhere.
"""

from __future__ import annotations

from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _str
from typing import Any


def fmt(value: Any) -> Any:
    """Render a value for a report: its serialize.to_doc document, with
    Fractions as 'num/den' strings, exactly."""
    return _to_doc(value)


def _to_doc(value: Any) -> Any:
    # serialize imports the modules that import this one, so it is imported
    # on the first call, which rebinds _to_doc to serialize.to_doc itself: an
    # import statement per call would cost more than rendering a Fraction.
    global _to_doc
    from .serialize import to_doc as _to_doc

    return _to_doc(value)


_REL = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "!=": lambda a, b: a != b,
}


class Check:
    """One certified relation; lhs and rhs stay exact."""

    __slots__ = ("name", "lhs", "relation", "rhs", "passed")

    def __init__(self, name: str, lhs, relation: str, rhs, passed: bool | None = None):
        self.name = name
        self.lhs = lhs
        self.relation = relation
        self.rhs = rhs
        if passed is None:
            passed = _REL[relation](lhs, rhs)
        self.passed = bool(passed)

    def to_doc(self) -> dict:
        return {
            "check": self.name,
            "lhs": fmt(self.lhs),
            "relation": self.relation,
            "rhs": fmt(self.rhs),
            "result": "PASS" if self.passed else "FAIL",
        }

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.lhs} {self.relation} {self.rhs}"


class Report:
    """Ordered collection of checks plus arbitrary exact payload data."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[Check] = []
        self.data: dict[str, Any] = {}

    def check(self, name: str, lhs, relation: str, rhs) -> Check:
        c = Check(name, lhs, relation, rhs)
        self.checks.append(c)
        return c

    def record(self, name: str, passed: bool) -> Check:
        """A boolean certificate that is not a two-sided comparison."""
        c = Check(name, bool(passed), "==", True, passed=passed)
        self.checks.append(c)
        return c

    def put(self, key: str, value) -> None:
        self.data[key] = value

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "title": self.title,
            "checks": [c.to_doc() for c in self.checks],
            "data": fmt(self.data),
            "result": "PASS" if self.passed else "FAIL",
        }

    def __repr__(self) -> str:
        lines = [f"Report({self.title}): {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  {c!r}" for c in self.checks]
        return "\n".join(lines)


def dumps(doc: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, ASCII, trailing newline.

    Byte for byte json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    plus "\n", which with an indent never reaches the stdlib's C encoder.
    This writer dispatches on exact types, takes the C string encoder for each
    key and string and one C-level join for a list of strings, such as a set's
    generators; a NaN or an infinity raises ValueError.
    """
    out: list[str] = []
    _write(doc, "\n", out)
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
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
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
    else:
        # A subclass of a JSON type by json's writer, at this indent; or TypeError.
        put(_json(value).replace("\n", newline))
