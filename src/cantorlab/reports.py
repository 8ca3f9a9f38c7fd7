"""Certificate reports: named exact checks with both sides kept as rationals.

Every construction that asserts a paper bound returns (or embeds) a Report
so the CLI and the acceptance suite can print one PASS/FAIL line per
certified inequality, with no decimal approximations anywhere.
"""

from __future__ import annotations

import operator
from typing import Any


def fmt(value: Any) -> Any:
    """Render a value for a report: its serialize.to_doc document, with
    Fractions as 'num/den' strings, exactly."""
    from .serialize import to_doc  # which imports the modules importing this one
    return to_doc(value)


def dumps(value: Any) -> str:
    """A value's canonical JSON text, as serialize.dumps writes it."""
    from .serialize import dumps
    return dumps(value)


_REL = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
        ">=": operator.ge, ">": operator.gt, "!=": operator.ne}


class Check:
    """One certified relation; lhs and rhs stay exact."""

    __slots__ = ("name", "lhs", "relation", "rhs", "passed")

    def __init__(self, name: str, lhs, relation: str, rhs):
        self.name = name
        self.lhs = lhs
        self.relation = relation
        self.rhs = rhs
        self.passed = bool(_REL[relation](lhs, rhs))

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
        self.checks.append(Check(name, lhs, relation, rhs))
        return self.checks[-1]

    def record(self, name: str, passed: bool) -> Check:
        """A boolean certificate that is not a two-sided comparison."""
        self.checks.append(Check(name, bool(passed), "==", True))
        return self.checks[-1]

    def put(self, key: str, value) -> None:
        self.data[key] = value

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return fmt(self)

    def __repr__(self) -> str:
        lines = [f"Report({self.title}): {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  {c!r}" for c in self.checks]
        return "\n".join(lines)

