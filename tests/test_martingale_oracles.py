"""The martingale layer against the oracles of tests/util.py.

winning_set skips subtrees where the strategy is flat, so it must give the
generators, their order and the truncated flag of the exhaustive search on
random compositions of every registered strategy kind; that rests on the
flat_beyond contract (sound and monotone), checked here kind by kind.  A
reset strategy resumes from its longest known prefix, so its values and its
DeadCapital messages must match the replay from the root whatever order the
strings are evaluated in.  Each derived kind evaluates by the one linear
rule, so its values must match its own closed formula.  That rule sums its
terms over integer numerators and denominators and thresholds are compared
by cross-multiplication, so every kind nested two or three deep must give
the values, generators, witnesses, DeadCapital messages and bit-string
refusals of plain Fraction arithmetic recomputed from the leaves.  The memo
holds each value as an integer pair in lowest terms, and value and peak
make the Fractions the oracles give.
"""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantorlab.errors import DeadCapital
from cantorlab.martingales import (
    BettingStrategy,
    BlendStrategy,
    ConstantStrategy,
    LinearStrategy,
    MixtureStrategy,
    PointDoubler,
    ResetStrategy,
    ScaledStrategy,
    TableStrategy,
    TranslateStrategy,
    average_truncated,
    peak,
    reset,
    verify_ville_kolmogorov,
    winning_set,
)
from cantorlab.series import BlockDoubler
from cantorlab.space import PeriodicPoint, PrefixFreeSet, reduce

from util import (
    all_strings,
    closed_form,
    doubler,
    exhaustive_winning_set,
    random_fair_table,
    reference_value,
    replay_reset,
)

SEARCH_DEPTHS = (0, 1, 3, 6)
# Dyadic and non-dyadic thresholds, so cross-multiplication meets both.
THRESHOLDS = (Fraction(9, 8), Fraction(4, 3), Fraction(7, 5), Fraction(3, 2), Fraction(2),
              Fraction(5))

bits = st.text(alphabet="01", max_size=3)
points = st.builds(PeriodicPoint, bits, st.text(alphabet="01", min_size=1, max_size=3))
blocks = st.lists(st.text(alphabet="01", min_size=1, max_size=3), max_size=3).map(reduce)


def _table(seed, depth, positive):
    return TableStrategy(random_fair_table(Random(seed), depth, positive=positive))


def _average(base, level):
    """Truncated average, or the base itself when the base dies at an anchor."""
    try:
        return average_truncated(base, level)
    except DeadCapital:
        return base


# Leaf kinds, then kinds built over other strategies; together they are
# every registered kind (test_every_kind_is_generated).
LEAVES = {
    "constant": st.builds(ConstantStrategy,
                          st.sampled_from([0, Fraction(1, 2), 1, 3])),
    # Tables from depth 0 to 8: shallower and deeper than the searches.
    "tabulated": st.builds(_table, st.integers(0, 2 ** 16), st.integers(0, 8),
                           st.booleans()),
    "point-doubler": st.builds(PointDoubler, points),
    "block-doubler": st.builds(BlockDoubler,
                               st.lists(st.integers(1, 3), max_size=3),
                               st.sampled_from([Fraction(1, 3), Fraction(2, 3)])),
}
EXTEND = {
    "translated": lambda sub: st.builds(TranslateStrategy, sub, bits),
    "scaled": lambda sub: st.builds(ScaledStrategy, sub,
                                    st.sampled_from([Fraction(1, 2), 1, 3])),
    "blend": lambda sub: st.builds(
        BlendStrategy,
        st.lists(st.tuples(st.sampled_from([0, Fraction(1, 2), 1]), sub),
                 min_size=1, max_size=3)),
    "mixture": lambda sub: st.builds(MixtureStrategy, sub, sub, st.integers(1, 3)),
    "averaged": lambda sub: st.builds(_average, sub, st.integers(0, 1)),
    "reset": lambda sub: st.builds(ResetStrategy, sub,
                                   st.sampled_from([Fraction(3, 2), 2]), blocks),
}

compositions = st.recursive(
    st.one_of(*LEAVES.values()),
    lambda sub: st.one_of(*(extend(sub) for extend in EXTEND.values())),
    max_leaves=5)


def of_kind(kind):
    """A strategy of the given kind, built over random compositions."""
    return LEAVES[kind] if kind in LEAVES else EXTEND[kind](compositions)


def outcome(search, d, q, depth):
    """(generators in order, truncated), or the error the search raised."""
    try:
        found = search(d, q, depth)
    except DeadCapital as err:
        return "DeadCapital", str(err)
    if isinstance(found, tuple):
        gens, truncated = found
        return PrefixFreeSet(gens).elements, truncated
    return found.generators.elements, found.truncated


def test_every_kind_is_generated():
    assert set(LEAVES) | set(EXTEND) == set(BettingStrategy.kinds)


class TestPrunedSearch:
    @pytest.mark.parametrize("kind", sorted(BettingStrategy.kinds))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_search(self, kind, data):
        d = data.draw(of_kind(kind))
        for depth in SEARCH_DEPTHS:
            for q in THRESHOLDS:
                # The pruned search runs first, on the strategy's empty caches.
                got = outcome(winning_set, d, q, depth)
                assert got == outcome(exhaustive_winning_set, d, q, depth), (depth, q)

    def test_depth_200_visits_only_the_live_path(self):
        calls = []

        class Counted(PointDoubler):
            def _compute(self, sigma):
                calls.append(sigma)
                assert len(calls) < 1000, "the search left the live path"
                return super()._compute(sigma)

        d = MixtureStrategy(ConstantStrategy(1), Counted(PeriodicPoint("", "0")), 2)
        w = winning_set(d, Fraction(200), 200)
        assert w.generators.elements == ("0" * 9,) and not w.truncated
        assert len(calls) == 2 * 9 + 1


class TestFlatBeyondContract:
    @pytest.mark.parametrize("kind", sorted(BettingStrategy.kinds))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sound_and_monotone(self, kind, data):
        d = data.draw(of_kind(kind))
        for s in all_strings(3):
            if not d.flat_beyond(s):
                continue
            here = d.value(s)
            for t in all_strings(3):
                assert d.value(s + t) == here, (s, t)
            assert d.flat_beyond(s + "0") and d.flat_beyond(s + "1"), s


# The kinds built as a constant plus weighted translates of other strategies.
DERIVED = ("constant", "translated", "scaled", "blend", "mixture", "averaged")


def test_derived_kinds_share_one_rule():
    """No derived kind has its own _compute or flat_beyond: each evaluates
    by LinearStrategy's rule, whose docstring argues the flat_beyond
    contract once for all of them."""
    own = [f"{kind}.{name}" for kind in DERIVED
           for name in ("_compute", "flat_beyond")
           if getattr(BettingStrategy.kinds[kind], name) is not getattr(LinearStrategy, name)]
    assert not own, own


def outcome_at(f, tau):
    """f(tau), or the DeadCapital message it raised."""
    try:
        return f(tau)
    except DeadCapital as err:
        return str(err)


class TestLinearRule:
    @pytest.mark.parametrize("kind", DERIVED)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), taus=st.lists(st.text(alphabet="01", max_size=5),
                                         min_size=1, max_size=6))
    def test_value_matches_closed_form(self, kind, data, taus):
        d = data.draw(of_kind(kind))
        assume(d.kind == kind)
        for tau in taus:
            assert outcome_at(d.value, tau) == outcome_at(lambda t: closed_form(d, t), tau), tau


def evaluated(r, order):
    """Each string's value, or the DeadCapital message, in the given order."""
    out = {}
    for s in order:
        try:
            out[s] = r.value(s)
        except DeadCapital as err:
            out[s] = str(err)
    return out


def replayed(r, strings):
    out = {}
    for s in strings:
        try:
            out[s] = replay_reset(r, s)
        except DeadCapital as err:
            out[s] = str(err)
    return out


class TestIncrementalReset:
    @settings(max_examples=60, deadline=None)
    @given(compositions, st.sampled_from([Fraction(3, 2), 2]), blocks, st.randoms())
    def test_any_order_matches_replay(self, base, q, block_set, rng):
        strings = all_strings(6)
        want = replayed(ResetStrategy(base, q, block_set), strings)
        shuffled = list(strings)
        rng.shuffle(shuffled)
        for order in (sorted(strings, key=len, reverse=True), strings, shuffled):
            assert evaluated(ResetStrategy(base, q, block_set), order) == want

    def test_dying_base_message(self):
        r = reset(doubler(), Fraction(2), PrefixFreeSet(["0"]))
        with pytest.raises(DeadCapital) as want:
            replay_reset(r, "0101")
        for s in ("0101", "010", "0100", "0101"):
            with pytest.raises(DeadCapital) as got:
                r.value(s)
            assert str(got.value) == str(want.value)
        assert str(want.value) == "base martingale dies at '1' inside a block"
        assert r.value("00") == 4 and r.value("01") == 0

    def test_deep_string_one_step_per_new_string(self):
        calls = []

        class Counted(BlendStrategy):
            def _at(self, sigma):
                calls.append(sigma)
                return super()._at(sigma)

        base = Counted([(Fraction(1, 2), doubler()), (Fraction(1, 2), ConstantStrategy(1))])
        r = reset(base, Fraction(3, 2), PrefixFreeSet(["0"]))
        sigma = "0" * 1000
        assert r.value(sigma) == Fraction(3, 2) ** 1000
        calls.clear()
        assert r.value(sigma + "0") == Fraction(3, 2) ** 1001
        assert r.value(sigma + "1") == Fraction(3, 2) ** 1000 / 2
        assert calls == ["", "0", "", "1"]
        assert replay_reset(r, "0" * 40 + "1") == r.value("0" * 40 + "1")


# Every kind over sub-strategies one or two levels deep, so two or three
# levels in all; a blend's weight 0 and a mixture at n_e = 1 give zero-weight
# terms.
leaf = st.one_of(*LEAVES.values())
two_deep = st.one_of(*(extend(leaf) for extend in EXTEND.values()))


def nested(kind):
    return LEAVES[kind] if kind in LEAVES else EXTEND[kind](st.one_of(leaf, two_deep))


def scan_witnesses(t, sigma, q):
    """Minimal proper extensions s of sigma in the table with t[s] >= q t[sigma]."""
    threshold = q * t[sigma]
    hits = [s for s in all_strings(t.depth) if len(s) > len(sigma) and s.startswith(sigma)
            and t[s] >= threshold
            and not any(t[s[:i]] >= threshold for i in range(len(sigma) + 1, len(s)))]
    return sorted(hits, key=lambda s: (len(s), s))


class TestIntegerPath:
    @pytest.mark.parametrize("kind", sorted(BettingStrategy.kinds))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_values_match_fraction_reference(self, kind, data):
        d = data.draw(nested(kind))
        # Deepest strings first, so shallower ones are answered from memos.
        for tau in reversed(all_strings(4)):
            got = outcome_at(d.value, tau)
            assert got == outcome_at(lambda t: reference_value(d, t), tau), tau
            assert isinstance(got, str) or type(got) is Fraction, tau

    @pytest.mark.parametrize("kind", sorted(BettingStrategy.kinds))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_memo_holds_lowest_terms_pairs(self, kind, data):
        d = data.draw(nested(kind))
        for tau in all_strings(4):
            pair = outcome_at(d._at, tau)
            if isinstance(pair, str):  # a DeadCapital message
                assert pair == outcome_at(lambda t: reference_value(d, t), tau), tau
                continue
            n, den = pair
            assert type(pair) is tuple and type(n) is int and type(den) is int, (tau, pair)
            assert den > 0 and gcd(n, den) == 1, (tau, pair)
            assert d.value(tau) == Fraction(n, den) == reference_value(d, tau), tau
        for sigma in all_strings(4)[-16:]:
            got = outcome_at(lambda s: peak(d, s), sigma)
            assert got == outcome_at(lambda s: max(
                reference_value(d, s[:i]) for i in range(len(s) + 1)), sigma), sigma
            assert isinstance(got, str) or type(got) is Fraction, sigma

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(0, 6), st.booleans(),
           st.sampled_from([Fraction(1), Fraction(5, 3)]), st.sampled_from(THRESHOLDS),
           st.text(alphabet="01", max_size=6))
    def test_ville_kolmogorov_matches_fraction_scan(self, seed, depth, positive, start, q,
                                                    sigma):
        t = random_fair_table(Random(seed), depth, positive=positive, start=start)
        sigma = sigma[:depth]
        rep = verify_ville_kolmogorov(t, sigma, q)
        hits = scan_witnesses(t, sigma, q)
        assert rep.data["threshold"] == q * t[sigma]
        assert rep.data["witnesses"] == hits
        assert rep.checks[0].lhs == sum(
            (Fraction(1, 2 ** (len(s) - len(sigma))) for s in hits), start=Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.builds(PointDoubler, points),
                     st.builds(TranslateStrategy, st.builds(PointDoubler, points), bits),
                     st.builds(MixtureStrategy, compositions, st.builds(PointDoubler, points),
                               st.just(1))),
           st.sampled_from([Fraction(3, 2), 2]), blocks, st.randoms())
    def test_reset_over_a_dying_base(self, base, q, block_set, rng):
        r = ResetStrategy(base, q, block_set)
        strings = all_strings(5)
        rng.shuffle(strings)
        for s in strings:
            got = outcome_at(r.value, s)
            assert got == outcome_at(lambda t: reference_value(r, t), s), s
            assert not isinstance(got, str) or got.startswith("base martingale dies at "), got

    @pytest.mark.parametrize("kind", sorted(BettingStrategy.kinds))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_value_refuses_a_non_bit_string(self, kind, data):
        d = data.draw(nested(kind))
        for s in ("", "0", "01", "010"):
            outcome_at(d.value, s)
        outcome(winning_set, d, Fraction(2), 3)
        for bad in ("2", "012", "01 ", " 0", "0\n", "ab", 0, 1, None, b"01"):
            with pytest.raises(ValueError) as err:
                d.value(bad)
            assert str(err.value) == f"not a bit string: {bad!r}"
