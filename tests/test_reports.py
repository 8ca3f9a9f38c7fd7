"""The canonical report writer against the stdlib's json.dumps."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
