"""The canonical report writer against the stdlib's json.dumps."""

import ast
import collections
import enum
import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import serialize
from cantorlab.cli import dispatch
from cantorlab.closure import MLRProvider
from cantorlab.coding import DyadicFunction, KCRequestList, Machine
from cantorlab.covers import TestFamily
from cantorlab.diagonal import run
from cantorlab.martingales import (
    AverageStrategy,
    BettingStrategy,
    ConstantStrategy,
    MixtureStrategy,
    PointDoubler,
    ScaledStrategy,
    TableStrategy,
    TranslateStrategy,
    positive_shift,
    reset,
    table_of,
    winning_set,
)
from cantorlab.reports import Check, Report
from cantorlab.serialize import dumps, to_doc
from cantorlab.series import BlockDoubler, b_set
from cantorlab.space import (
    EMPTY_SET,
    FULL_SET,
    PeriodicPoint,
    PrefixFreeSet,
    StagedOpenSet,
    pinned_union,
    union,
)

from util import doubler, wire_records


def oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# Quotes, backslashes, control characters, DEL, non-ASCII and astral ones.
text = st.text(alphabet=st.sampled_from('01ab"\\\n\t\x00\x1f\x7fé \U0001F600'),
               max_size=6)
bit_strings = st.text(alphabet="01", max_size=8)
scalars = (text | st.booleans() | st.none()
           | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
           | st.floats(allow_nan=False, allow_infinity=False))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(bit_strings, max_size=6)
                   | st.dictionaries(text, inner, max_size=5)),
    max_leaves=30)


@given(documents)
@settings(max_examples=400)
def test_matches_json_dumps(doc):
    assert dumps(doc) == oracle(doc)


@given(st.lists(bit_strings, min_size=1, max_size=8), st.integers(0, 8), scalars)
def test_mixed_list_falls_back_item_by_item(strings, at, other):
    """A list that is all strings but one: the joined fast path fails on the
    odd item and the list is written item by item instead."""
    doc = {"set": {"elements": strings[:at] + [other] + strings[at:]}}
    assert dumps(doc) == oracle(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_infinity_raise(bad):
    for doc in (bad, [bad], {"a": bad}, ["0", bad], {"a": [{"b": bad}]}):
        with pytest.raises(ValueError):
            dumps(doc)


BITS = [format(i, "b") for i in range(1000)]


@pytest.mark.parametrize("char", ["\x00", "\x1f", "\n", '"', "\\", "\x7f", "\u00e9",
                                  "\U0001F600"])
@pytest.mark.parametrize("at", [0, 500, 999])
def test_one_escaped_character_in_a_long_list(char, at):
    """A list of strings is quoted as it stands only when json would escape
    none of its characters; one such character anywhere sends it back to
    the per-string encoder."""
    strings = list(BITS)
    strings[at] = strings[at][:1] + char + strings[at][1:]
    for doc in (strings, {"set": {"elements": strings}}, tuple(strings)):
        assert dumps(doc) == oracle(doc)


class Text(str):
    def __str__(self):
        return "not the value"


class Number(int):
    pass


class Real(float):
    pass


class Table(dict):
    pass


class Items(list):
    pass


class Pair(tuple):
    pass


class Colour(str, enum.Enum):
    RED = "r\x7fed"


class Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize("doc", [
    Text("a\"b"), Number(7), Real(0.5), Colour.RED, Level.HIGH,
    Table(b=[1, Text("x")], a={}), Items(["0", "1"]), Items(["0", Number(2)]),
    Pair(("01", "10")), Pair(()), Table(), Items(),
    collections.OrderedDict([("z", 1), ("a", [Real(1.5), None])]),
    {"k": [Table(x=Items([Pair(("0",)), {"y": Level.HIGH}]))], "s": Text("t")},
    [[Colour.RED, Text("\n")], {"deep": Table(e=Items([Table(f="1")]))}],
])
def test_subclasses_written_as_their_base_type(doc):
    """A subclass of str, int, float, dict, list or tuple, at any depth, is
    written as json writes its base type, whatever its __str__ says."""
    assert dumps(doc) == oracle(doc)


def test_unserializable_value_raises_type_error():
    with pytest.raises(TypeError):
        dumps({"a": [object()]})


def test_long_generator_list_is_one_join(monkeypatch):
    """A b-set report lists its generators byte for byte as json does, with
    a number of string-encoder calls that does not grow with the number of
    generators: the set's lines are quoted with one replace, with no call
    per string."""
    calls = []
    encode = serialize._str

    def counting(text):
        calls.append(1)
        return encode(text)

    monkeypatch.setattr(serialize, "_str", counting)
    counts = {}
    for alpha, size in (("7/8", None), ("63/64", 33867)):
        rep, status = dispatch("b-set", {"n": 0, "alpha": alpha})
        doc = to_doc(rep)
        assert status == 0
        generators = doc["output"]["set"]["elements"]
        assert size is None or len(generators) == size
        calls.clear()
        text = dumps(rep)
        counts[len(generators)] = len(calls)
        assert text == oracle(doc)
    few, many = sorted(counts)
    assert few < many and counts[few] == counts[many] < 100


class Half(Fraction):
    pass


@functools.cache
def wire_values():
    """One value of each type with a wire form: the records, the ten
    strategy kinds, sets built from strings and by the kernel (the empty
    set, {""} and one behind a 3,000-bit prefix among them), test families,
    dyadic functions, a trace stage, a check, a report, a Fraction
    subclass, and every leaf the writer writes inline."""
    trace, lemma = run(PrefixFreeSet(["1"]), MLRProvider(k=1), [], 2)
    base = positive_shift(doubler())
    report = Report("oracle")
    report.check("measure", Fraction(1, 3), "<=", Half(1, 2))
    report.record("flag", False)
    report.put("levels", {10: "ten", 2: ["two", Fraction(2)]})
    # Each leaf the writer writes inline, a lone surrogate, which json.loads
    # accepts, among them; a Check of an int and a bool.
    leaves = [Fraction(4), Fraction(-3, 8), True, False, 0, 10 ** 39 + 7, None,
              'quote " slash \\ tab \t bell \x07 é \U0001F600', "\ud800"]
    return {
        "point": PeriodicPoint("01", "1"),
        "staged": StagedOpenSet((PrefixFreeSet(["00"]), PrefixFreeSet(["0"]))),
        "table": table_of(doubler(), 2),
        "winning": winning_set(doubler(), Fraction(2), 3),
        "machine": Machine({"0": "1", "10": "11"}),
        "requests": KCRequestList([(1, "0"), (3, "010")]),
        "trace": trace,
        "constant": ConstantStrategy(Fraction(3, 2)),
        "tabulated": TableStrategy(table_of(doubler(), 3)),
        "point-doubler": PointDoubler(PeriodicPoint("", "0")),
        "translated": TranslateStrategy(doubler(), "0"),
        "scaled": ScaledStrategy(doubler(), Fraction(3, 4)),
        "blend": base,
        "mixture": MixtureStrategy(ConstantStrategy(1), doubler(), 2),
        "averaged": AverageStrategy(base, 2),
        "reset": reset(base, Fraction(3, 2), PrefixFreeSet(["0"])),
        "block-doubler": BlockDoubler([2, 3], Fraction(2)),
        "strings": PrefixFreeSet(["0", "10", "110"]),
        "kernel": union(PrefixFreeSet(["00"]), PrefixFreeSet(["01", "1"])),
        "b-set": b_set(0, Fraction(63, 64)),
        "empty-set": EMPTY_SET,
        "full-set": FULL_SET,
        "chain": pinned_union([[(i, "1") for i in range(3000)] + pins
                               for pins in ([(3000, "0")], [(3000, "1"), (3001, "1")])]),
        "family": TestFamily("ML", {2: PrefixFreeSet(["00"]),
                                    10: PrefixFreeSet(["0" * 10])},
                             bounds={2: Fraction(1, 4), 10: Fraction(1, 1024)},
                             martingale=doubler()),
        "int-keyed": DyadicFunction({0: Fraction(1, 4), 3: Fraction(2)}),
        "str-keyed": DyadicFunction({"0": Fraction(1, 2), "10": Fraction(1, 8)}),
        "stage": trace.stages[0],
        "check": report.checks[0],
        "report": report,
        "lemma": lemma,
        "half": Half(1, 2),
        "leaves": {"dict": dict(zip("abcdefghi", leaves)), "list": leaves,
                   "strings": ["01", "\ud800"], "check": Check("sides", 3, "<=", True)},
    }


@pytest.mark.parametrize("name", list(wire_values()))
def test_writer_matches_the_document_oracle(name):
    """dumps writes a value straight from its objects byte for byte as json
    writes its to_doc document, alone and nested in dicts and lists."""
    value = wire_values()[name]
    for doc in (value, [value, Half(3)], {"x": value, "y": [{"z": value}], 7: value}):
        assert dumps(doc) == oracle(to_doc(doc)), name


def test_every_wire_type_is_in_the_oracle():
    values = wire_values()
    kinds = {type(v) for v in values.values()}
    assert wire_records() <= kinds
    assert {v.kind for v in values.values() if isinstance(v, BettingStrategy)} \
        == set(BettingStrategy.kinds)


SRC = Path(__file__).resolve().parent.parent / "src" / "cantorlab"


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_one_writer_and_no_global_state():
    """Only serialize.py reaches json's encoder; no module rebinds a global;
    cli.py builds a document with to_doc only for the --decimal shadow."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            names = ({alias.name for alias in node.names}
                     if isinstance(node, ast.ImportFrom) else {_name(node)})
            if path.name != "serialize.py" and (
                    getattr(node, "module", None) == "json.encoder" or "JSONEncoder" in names):
                found.append(f"{where} reaches json's encoder")
            elif isinstance(node, ast.Global):
                found.append(f"{where} has a global statement")
            elif path.name == "cli.py" and isinstance(node, ast.Call) \
                    and _name(node.func) == "to_doc" and "_decimal" not in map(_name, node.args):
                found.append(f"{where} calls to_doc")
    assert not found, found


def test_no_unused_import():
    """No module imports a name it never reads; a name __init__.py lists
    in __all__ counts as read."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        imported, read = {}, set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                imported.update({(alias.asname or alias.name).split(".")[0]: node.lineno
                                 for alias in node.names})
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in map(_name, node.targets):
                read.update(item.value for item in node.value.elts)
        found += [f"{path.name}:{line} imports {name}, never read"
                  for name, line in imported.items() if name not in read]
    assert not found, found
