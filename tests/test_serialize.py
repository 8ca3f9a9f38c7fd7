"""Wire-format round trips for every domain object."""

import ast
import copy
import dataclasses
import types
from fractions import Fraction
from pathlib import Path

import pytest

from cantorlab.cli import _HANDLERS, dispatch
from cantorlab.closure import MLRProvider
from cantorlab.coding import DyadicFunction, KCRequestList, Machine
from cantorlab.covers import TestFamily
from cantorlab.diagonal import DiagonalTrace, TraceStage, run
from cantorlab.errors import ParseError
from cantorlab.reports import Report
from cantorlab.martingales import (
    AverageStrategy,
    BettingStrategy,
    ConstantStrategy,
    MartingaleTable,
    MixtureStrategy,
    PointDoubler,
    ScaledStrategy,
    TableStrategy,
    TranslateStrategy,
    WinningSet,
    positive_shift,
    reset,
    table_of,
    winning_set,
)
from cantorlab.serialize import parse_field, parse_fraction, parse_set, parse_test, to_doc
from cantorlab.series import BlockDoubler
from cantorlab.space import Natural, PeriodicPoint, PrefixFreeSet, StagedOpenSet

from util import all_strings, doubler, wire_records


def test_fraction_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("2") == Fraction(2)
    assert parse_fraction(5) == Fraction(5)
    with pytest.raises(ParseError):
        parse_fraction("1/0")
    with pytest.raises(ParseError):
        parse_fraction([1, 2])
    # A JSON boolean is not a rational, though Python's bool is an int.
    for flag in (True, False):
        with pytest.raises(ParseError):
            parse_fraction(flag)


def test_set_and_point_round_trip():
    u = PrefixFreeSet(["0", "10"])
    assert parse_set(to_doc(u)) == u
    x = PeriodicPoint("01", "1")
    assert parse_field(PeriodicPoint, to_doc(x)) == x


def test_string_lists_stay_as_they_are():
    """A list of strings alone, such as a set's generators, is its own
    document; a list with any other item is still converted item by item."""
    gens = tuple(format(i, "b") for i in range(10 ** 5))
    assert to_doc(gens) == list(gens)
    assert to_doc(["0", Fraction(1, 2), ["1", Fraction(3, 4)]]) == ["0", "1/2", ["1", "3/4"]]
    assert to_doc([]) == [] and to_doc({"a": ("0", "1")}) == {"a": ["0", "1"]}


def test_staged_round_trip():
    s = StagedOpenSet((PrefixFreeSet(["00"]), PrefixFreeSet(["0"])))
    doc = to_doc(s)
    assert doc["final_measure"] == "1/2"
    assert parse_field(StagedOpenSet, doc) == s


def test_table_round_trip():
    t = table_of(doubler(), 3)
    assert parse_field(MartingaleTable, to_doc(t)).values == t.values


def strategy_examples() -> dict:
    """One strategy of each registered kind, by kind."""
    base = positive_shift(doubler())
    return {
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
    }


def test_strategy_round_trips_evaluate_identically():
    examples = strategy_examples()
    assert set(examples) == set(BettingStrategy.kinds)
    for kind, d in examples.items():
        assert d.kind == kind
        doc = to_doc(d)
        assert set(doc) == {"kind", *type(d).fields}
        back = parse_field(BettingStrategy, doc)
        assert type(back) is type(d)
        for s in all_strings(5):
            assert back.value(s) == d.value(s), kind


def misshapen(wire, bad):
    """(value, message): bad in place of each list or pair a field of this
    wire type holds, and the error that names the shape expected there."""
    if isinstance(wire, (list, tuple)):
        yield bad, "expected a list" if isinstance(wire, list) else "expected a pair"
    if isinstance(wire, list):
        yield from (([value], message) for value, message in misshapen(wire[0], bad))


@pytest.mark.parametrize("bad", ["", {}, 1])
def test_list_and_pair_fields_refuse_other_shapes(bad):
    """A list-typed or pair-typed strategy field holding a string, an object
    or a number is refused by the shape it expected, naming the field: not
    read as an empty list, nor refused in the interpreter's words.  A job
    names its parameter too."""
    refused = set()
    for kind, d in strategy_examples().items():
        doc = to_doc(d)
        for name, wire in type(d).fields.items():
            for value, message in misshapen(wire, bad):
                with pytest.raises(ValueError) as err:
                    parse_field(BettingStrategy, {**doc, name: value})
                assert str(err.value) == f"field {name!r}: {message}", (kind, name, value)
                rep, status = dispatch("translate", {"strategy": {**doc, name: value},
                                                     "sigma": ""})
                assert status == 2 and rep["error"] == {
                    "type": "ParseError",
                    "message": f"bad parameter 'strategy': field {name!r}: {message}"}
                refused.add((kind, message))
    assert refused == {("blend", "expected a list"), ("blend", "expected a pair"),
                       ("block-doubler", "expected a list")}


def test_block_doubler_exponents_are_naturals():
    """The strategy's exponents and the encode-series job's declare one
    wire type, so a negative exponent is refused by name in both."""
    assert BlockDoubler.fields["exponents"] == [Natural] \
        == _HANDLERS["encode-series"].fields["exponents"]
    with pytest.raises(ValueError, match="^field 'exponents': expected a natural, got -1$"):
        parse_field(BettingStrategy, {"kind": "block-doubler", "exponents": [-1], "q": "1"})


def test_test_family_round_trip():
    fam = TestFamily("Schnorr", {n: PrefixFreeSet(["0" * n]) for n in range(4)})
    back = parse_test(to_doc(fam))
    assert back.kind == "Schnorr" and back.levels == fam.levels
    assert back.martingale is None


def test_test_family_keeps_its_martingale():
    fam = TestFamily("ML", {1: PrefixFreeSet(["0"])}, martingale=doubler())
    doc = to_doc(fam)
    assert doc["martingale"] == to_doc(doubler())
    back = parse_test(doc)
    assert [back.martingale.value(s) for s in all_strings(3)] == \
        [doubler().value(s) for s in all_strings(3)]


def test_machine_and_requests_round_trip():
    m = Machine({"0": "1", "10": "11"})
    assert parse_field(Machine, to_doc(m)).table == m.table
    reqs = KCRequestList([(1, "0"), (3, "010")])
    assert parse_field(KCRequestList, to_doc(reqs)).requests == reqs.requests


def test_dyadic_round_trip():
    for f in (DyadicFunction({0: Fraction(1, 4), 3: Fraction(2)}),
              DyadicFunction({"0": Fraction(1, 2)})):
        assert parse_field(DyadicFunction, to_doc(f)) == f


def test_records_write_their_declared_fields():
    """Each record class writes the keys its fields declare, in order, an
    optional one left out only where it is None and its type admits no
    null; a dataclass declares exactly its own fields.  Each document parses
    back to a value of the same class with the same document."""
    trace, _ = run(PrefixFreeSet(["1"]), MLRProvider(k=1), [], 2)
    examples = {
        PrefixFreeSet: [PrefixFreeSet(["0", "10"]), PrefixFreeSet()],
        PeriodicPoint: [PeriodicPoint("01", "1")],
        StagedOpenSet: [StagedOpenSet((PrefixFreeSet(["00"]), PrefixFreeSet(["0"])))],
        MartingaleTable: [table_of(doubler(), 2)],
        WinningSet: [winning_set(doubler(), Fraction(2), 3)],
        Machine: [Machine({"0": "1", "10": "11"})],
        KCRequestList: [KCRequestList([(1, "0"), (3, "010")])],
        DiagonalTrace: [trace],
        TraceStage: list(trace.stages),
        TestFamily: [TestFamily("Schnorr", {n: PrefixFreeSet(["0" * n]) for n in range(3)}),
                     TestFamily("generalized", {1: PrefixFreeSet(["0", "10"]),
                                                3: PrefixFreeSet(["000"])},
                                bounds={1: Fraction(3, 4), 3: Fraction(1, 8)},
                                martingale=doubler())],
        DyadicFunction: [DyadicFunction({0: Fraction(1, 4), 3: Fraction(2)}),
                         DyadicFunction({"0": Fraction(1, 2)}), DyadicFunction({})],
    }
    assert set(examples) == wire_records()
    assert trace.stages[-1].n_e is None and to_doc(trace.stages[-1])["n_e"] is None
    found = []
    for cls, objs in examples.items():
        keys = [key.rstrip("?") for key in cls.fields]
        if dataclasses.is_dataclass(cls) and \
                keys != [f.name for f in dataclasses.fields(cls)]:
            found.append(f"{cls.__name__} does not declare its dataclass fields")
        for obj in objs:
            doc = to_doc(obj)
            left_out = [key for key, wire in cls.fields.items()
                        if key.rstrip("?") not in doc]
            if list(doc) != [key for key in keys if key in doc] or any(
                    not key.endswith("?") or getattr(obj, key[:-1]) is not None
                    or isinstance(cls.fields[key], types.UnionType) for key in left_out):
                found.append(f"{cls.__name__} writes {list(doc)}")
            back = parse_field(cls, doc)
            if type(back) is not cls or to_doc(back) != doc:
                found.append(f"{cls.__name__} does not parse back")
    assert not found, found


# The classes with no wire form whose fields a dataclass declares once.
DATACLASS_CLASSES = {"TrieNode", "ProviderState", "ExtractionResult"}
# The record that stores what it writes differently, by hand.
HAND_WRITTEN_RECORDS = {"PrefixFreeSet"}
SRC = Path(__file__).resolve().parent.parent / "src" / "cantorlab"


def test_one_record_mechanism():
    """No class but PrefixFreeSet, whose caches fill lazily, defines
    __setattr__.  Every wire record but PrefixFreeSet, DyadicFunction and
    each registered strategy kind among them, is made by a call to record,
    which reads its keys from its fields: its body annotates nothing, so it
    writes each key once.  Those records, the strategy classes they derive
    from and the dataclasses with no wire form do not restate the __init__,
    __eq__ or __hash__ their decorator writes, and only the modules that
    define those dataclasses import dataclasses."""
    kinds = set(BettingStrategy.kinds.values())
    assert kinds and DyadicFunction in wire_records()
    records = {cls.__name__ for cls in wire_records() | kinds} - HAND_WRITTEN_RECORDS
    bases = {base.__name__ for cls in kinds for base in cls.__mro__[1:-1]}
    assert bases == {"BettingStrategy", "LinearStrategy"}, bases
    found = []
    decorated = {"record": set(), "dataclass": set()}
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" or \
                    isinstance(node, ast.Import) and "dataclasses" in [a.name for a in node.names]:
                importers.add(path.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for d in node.decorator_list:
                if isinstance(d, ast.Call) and getattr(d.func, "id", None) in decorated:
                    decorated[d.func.id].add(node.name)
            defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            banned = {"__init__", "__eq__", "__hash__"} \
                if node.name in records | bases | DATACLASS_CLASSES else set()
            if node.name != "PrefixFreeSet":
                banned.add("__setattr__")
            found += [f"{path.name}: {node.name} defines {name}"
                      for name in sorted(defined & banned)]
            if node.name in records:
                found += [f"{path.name}:{item.lineno} {node.name} annotates a field"
                          for item in node.body if isinstance(item, ast.AnnAssign)]
    assert not found, found
    assert decorated["record"] == records, decorated["record"] ^ records
    assert DATACLASS_CLASSES <= decorated["dataclass"], DATACLASS_CLASSES - decorated["dataclass"]
    assert all(dataclasses.is_dataclass(cls) for cls in wire_records() | kinds
               if cls.__name__ in records)
    assert importers == {"space.py", "closure.py", "series.py"}, importers


def test_records_have_no_parsers_of_their_own():
    """serialize.py reads every record through parse_field and the fields its
    class declares: its only parse_* functions are the scalar parsers,
    parse_field, and parse_set and parse_test, one line each onto
    parse_field, which the bench calls."""
    tree = ast.parse((SRC / "serialize.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in defs if name.startswith("parse_")} == {
        "parse_fraction", "parse_int", "parse_bool", "parse_field", "parse_set", "parse_test"}
    for name in ("parse_set", "parse_test"):
        (body,) = defs[name].body
        assert isinstance(body, ast.Return) and body.value.func.id == "parse_field", name
    assert not {"_need", "_refusing", "_stage_field", "_index", "_RECORDS"} & (
        set(defs) | {t.id for node in tree.body if isinstance(node, ast.Assign)
                     for t in node.targets if isinstance(t, ast.Name)})


@pytest.mark.parametrize("field,keys", [
    ("levels", ["1_0"]), ("levels", [" 2 "]), ("levels", ["01"]),
    ("levels", ["1", "01"]), ("bounds", ["01"]),
])
def test_test_indices_are_canonical_naturals(field, keys):
    """A level or bound key is refused unless it is the canonical text of
    its natural, so no two keys name one level; the error names the key."""
    level = {"elements": ["0" * 12]}
    doc = {"kind": "ML", "levels": {"1": level}}
    doc[field] = {key: level if field == "levels" else "1/2" for key in keys}
    with pytest.raises(ParseError, match=repr(keys[-1])):
        parse_test(doc)
    canonical = {str(int(key)): value for key, value in doc[field].items()}
    assert parse_test({**doc, field: canonical}).kind == "ML"


def test_parse_errors_are_typed():
    with pytest.raises(ParseError):
        parse_set({"elements": ["0", "01"]})
    with pytest.raises(ParseError):
        parse_field(BettingStrategy, {"kind": "teleport"})
    with pytest.raises(ParseError):
        parse_field(Machine, {"table": {"0": "1", "01": "1"}})


class Bits(str):
    pass


class Count(int):
    pass


class Half(Fraction):
    pass


class Record(dict):
    pass


class Items(list):
    pass


def test_exact_types_and_subclasses_render_alike():
    """Plain values and their subclasses give the same document: a string or
    an integer as it is, a dict with str keys, a list for a list or tuple, a
    Fraction through frac."""
    assert to_doc(Bits("01")) == "01" and type(to_doc(Bits("01"))) is Bits
    assert to_doc(Count(3)) == 3 and to_doc(True) is True and to_doc(None) is None
    assert to_doc(Half(1, 2)) == "1/2" == to_doc(Fraction(1, 2))
    assert to_doc(Half(1, 2), float) == 0.5
    plain = {"a": [Fraction(1, 3), ("0", 1)], 2: {}}
    sub = Record({"a": Items([Half(1, 3), ("0", Count(1))]), 2: Record()})
    assert to_doc(plain) == to_doc(sub) == {"a": ["1/3", ["0", 1]], "2": {}}
    assert type(to_doc(sub)) is dict and type(to_doc(sub)["a"]) is list
    with pytest.raises(ParseError):
        to_doc(1.5)


def test_to_doc_leaves_the_values_as_they_were():
    """to_doc converts the fresh containers of each shape in place; the
    values a report holds, and their own containers, stay as they were."""
    table = MartingaleTable(1, {"": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2)})
    keyed = {1: [Fraction(1, 2), "0"], 2: {"x": Fraction(1, 4)}}
    pair = ("0", [Fraction(1, 3)], {"k": [Fraction(1, 8)]})
    u = PrefixFreeSet(["0", "10"])
    rep = Report("held")
    for key, value in {"table": table, "keyed": keyed, "pair": pair, "set": u}.items():
        rep.put(key, value)
    before = copy.deepcopy((table.values, keyed, pair, u.elements))
    doc = to_doc(rep)
    assert (table.values, keyed, pair, u.elements) == before
    assert type(table.values[""]) is Fraction and type(keyed[2]["x"]) is Fraction
    assert doc["data"] == {
        "table": {"depth": 1, "values": {"": "1", "0": "3/2", "1": "1/2"}},
        "keyed": {"1": ["1/2", "0"], "2": {"x": "1/4"}},
        "pair": ["0", ["1/3"], {"k": ["1/8"]}],
        "set": {"elements": ["0", "10"]},
    }
    assert to_doc(rep) == doc
