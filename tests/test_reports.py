"""The canonical report writer against the stdlib's json.dumps."""

import collections
import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import reports
from cantorlab.cli import dispatch
from cantorlab.reports import dumps


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
    generators: the list goes through one join, not one call per string."""
    calls = []
    encode = reports._str

    def counting(text):
        calls.append(1)
        return encode(text)

    monkeypatch.setattr(reports, "_str", counting)
    counts = {}
    for alpha, size in (("7/8", None), ("63/64", 33867)):
        doc, status = dispatch("b-set", {"n": 0, "alpha": alpha})
        assert status == 0
        generators = doc["output"]["set"]["elements"]
        assert size is None or len(generators) == size
        calls.clear()
        text = dumps(doc)
        counts[len(generators)] = len(calls)
        assert text == oracle(doc)
    few, many = sorted(counts)
    assert few < many and counts[few] == counts[many] < 100
