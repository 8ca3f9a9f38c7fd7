"""Core cylinder-algebra operations against brute-force enumeration oracles.

The oracle expands every open set to a fixed depth and counts strings; it
never goes through measure/condition/covers, so agreement is meaningful.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.errors import PowerOfEpsilon
from cantorlab.space import (
    PeriodicPoint,
    PrefixFreeSet,
    StagedOpenSet,
    condition,
    covers,
    measure,
    member,
    power,
    reduce,
    tails,
    union,
)


def bf_expand(strings, depth):
    """All length-`depth` strings extending some element: the open set, flat."""
    out = set()
    for m in range(2 ** depth):
        s = format(m, f"0{depth}b") if depth else ""
        if any(s.startswith(g) for g in strings):
            out.add(s)
    return out


def bf_measure(strings, depth):
    return Fraction(len(bf_expand(strings, depth)), 2 ** depth)


bits = st.text(alphabet="01", min_size=0, max_size=6)
prefix_free = st.sets(bits, min_size=0, max_size=8).map(reduce)
nonempty_bits = st.text(alphabet="01", min_size=1, max_size=4)
points = st.builds(PeriodicPoint, bits, nonempty_bits)


class TestReduce:
    def test_prefix_absorption(self):
        assert reduce(["0", "00", "01"]) == PrefixFreeSet(["0"])

    def test_empty(self):
        assert reduce([]) == PrefixFreeSet()

    def test_already_prefix_free(self):
        assert reduce(["00", "01", "1"]) == PrefixFreeSet(["00", "01", "1"])

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            reduce(["0", "2"])

    def test_error_names_first_bad_string(self):
        for build in (PrefixFreeSet, reduce):
            with pytest.raises(ValueError, match="'2x'"):
                build(["0", "2x", "3", "1"])
            with pytest.raises(ValueError, match="5"):
                build(["0", 5, "2"])

    @given(st.sets(bits, max_size=10))
    def test_idempotent_and_same_open_set(self, strings):
        r = reduce(strings)
        assert reduce(r.elements) == r
        assert bf_expand(strings, 6) == bf_expand(r.elements, 6)


class TestMeasure:
    def test_examples(self):
        assert measure(PrefixFreeSet(["0", "10", "110"])) == Fraction(7, 8)
        assert measure(PrefixFreeSet([""])) == 1
        assert measure(PrefixFreeSet()) == 0

    @given(prefix_free)
    def test_agrees_with_brute_force(self, u):
        assert measure(u) == bf_measure(u.elements, 6)


class TestCondition:
    def test_full_conditional_from_both_children(self):
        # Expected value derived by enumerating depth-1 extensions of [U]|0.
        assert condition(PrefixFreeSet(["00", "01", "11"]), "0") == PrefixFreeSet([""])

    def test_disjoint_cylinder(self):
        assert condition(PrefixFreeSet(["00"]), "1") == PrefixFreeSet()

    def test_sigma_extends_generator(self):
        assert condition(PrefixFreeSet(["0"]), "01") == PrefixFreeSet([""])

    @given(prefix_free, bits)
    def test_conditional_measure_identity(self, u, sigma):
        common = max(len(sigma), u.maxlen)
        got = measure(condition(u, sigma)) * Fraction(1, 2 ** len(sigma))
        inter = {s for s in bf_expand(u.elements, common) if s.startswith(sigma)}
        assert got == Fraction(len(inter), 2 ** common)


class TestPower:
    def test_spec_square(self):
        u = PrefixFreeSet(["00", "01", "10"])
        p = power(u, 2)
        assert len(p) == 9 and all(len(s) == 4 for s in p)
        assert measure(p) == Fraction(9, 16)

    def test_zeroth_power(self):
        assert power(PrefixFreeSet(["0", "11"]), 0) == PrefixFreeSet([""])

    def test_cube_of_singleton(self):
        assert power(PrefixFreeSet(["0"]), 3) == PrefixFreeSet(["000"])

    def test_epsilon_rejected(self):
        with pytest.raises(PowerOfEpsilon):
            power(PrefixFreeSet([""]), 2)

    @given(prefix_free, st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_power_law(self, u, n):
        if "" in u and n >= 2:
            return
        if u.maxlen * n > 14:
            n = 2 if u.maxlen <= 7 else 1
        assert measure(power(u, n)) == measure(u) ** n


class TestUnion:
    def test_examples(self):
        assert union(PrefixFreeSet(["0"]), PrefixFreeSet(["00"])) == PrefixFreeSet(["0"])
        assert union(PrefixFreeSet(["00"]), PrefixFreeSet(["11"])) == PrefixFreeSet(["00", "11"])
        both = union(PrefixFreeSet(["0"]), PrefixFreeSet(["1"]))
        assert measure(both) == 1

    @given(prefix_free, prefix_free, prefix_free)
    def test_commutative_associative(self, a, b, c):
        assert union(a, b) == union(b, a)
        assert union(union(a, b), c) == union(a, union(b, c))


class TestCovers:
    def test_examples(self):
        assert covers(PrefixFreeSet(["0"]), PrefixFreeSet(["00", "01"]))
        assert not covers(PrefixFreeSet(["00"]), PrefixFreeSet(["0"]))
        # mu([V] cap [0]) = 1/2 exactly, so [0] is covered piecewise.
        assert covers(PrefixFreeSet(["00", "01"]), PrefixFreeSet(["0"]))

    @given(prefix_free, prefix_free)
    def test_agrees_with_brute_force(self, v, u):
        depth = max(u.maxlen, v.maxlen)
        assert covers(v, u) == (bf_expand(u.elements, depth) <= bf_expand(v.elements, depth))


class TestPeriodicPoints:
    def test_tails_examples(self):
        assert tails(PeriodicPoint("", "1")) == [PeriodicPoint("", "1")]
        assert tails(PeriodicPoint("0", "1")) == [
            PeriodicPoint("0", "1"), PeriodicPoint("", "1")]
        assert tails(PeriodicPoint("", "01")) == [
            PeriodicPoint("", "01"), PeriodicPoint("", "10")]

    def test_member_examples(self):
        zeros = PeriodicPoint("", "0")
        ones = PeriodicPoint("", "1")
        assert member(PrefixFreeSet(["0"]), zeros)
        assert not member(PrefixFreeSet(["0"]), ones)
        # X = 010101..., whose length-3 prefix is exactly 010.
        assert member(PrefixFreeSet(["010"]), PeriodicPoint("", "01"))

    def test_canonical_absorbs_head(self):
        assert PeriodicPoint("0", "10").canonical() == PeriodicPoint("", "01")
        assert PeriodicPoint("", "0101").canonical() == PeriodicPoint("", "01")

    @given(prefix_free, points)
    def test_member_stable_under_doubled_period(self, u, x):
        doubled = PeriodicPoint(x.head, x.period * 2)
        assert member(u, x) == member(u, doubled)

    @given(points, st.integers(min_value=0, max_value=12))
    def test_shift_matches_prefix(self, x, k):
        assert x.shift(k).prefix(8) == x.prefix(8 + k)[k:]


class TestStagedOpenSet:
    def test_monotone_enforced(self):
        with pytest.raises(ValueError):
            StagedOpenSet((PrefixFreeSet(["0"]), PrefixFreeSet(["11"])))

    def test_final_measure(self):
        st_ = StagedOpenSet((PrefixFreeSet(["00"]), PrefixFreeSet(["0"])))
        assert st_.final_measure == Fraction(1, 2)
        assert st_.stage(5) == st_.final

    def test_declared_measure_checked(self):
        with pytest.raises(ValueError):
            StagedOpenSet((PrefixFreeSet(["0"]),), Fraction(1, 4))
