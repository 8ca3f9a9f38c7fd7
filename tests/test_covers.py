"""Cover transforms: power tests, greedy factorizations, the Schnorr merge."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorlab.cli import dispatch
from cantorlab.covers import (
    FactorizationCertificate,
    TestFamily,
    check_nested,
    power_test,
    remark24_bundle,
    schnorr_merge,
    tails_to_power,
)
from cantorlab.errors import MissingLevel, TailEscapes, Unbounded
from cantorlab.serialize import to_doc
from cantorlab.series import b_set
from cantorlab.space import (
    PeriodicPoint,
    PrefixFreeSet,
    condition,
    measure,
    member,
    reduce,
    tails,
)

from util import enum_schnorr_merge, time_limit


def toward(x: PeriodicPoint, n_max: int) -> TestFamily:
    """The canonical Schnorr test shrinking onto x: level n is {x restricted n}."""
    return TestFamily("Schnorr", {n: PrefixFreeSet([x.prefix(n)]) for n in range(n_max + 1)})


def long_period_cover(m: int) -> tuple[PrefixFreeSet, PeriodicPoint]:
    """U = {0^k 1 : k <= m}, its trie built, and X = (0^m 1)^omega, every
    tail of which lies in [U]."""
    u = PrefixFreeSet("0" * k + "1" for k in range(m + 1))
    u.trie()
    return u, PeriodicPoint("", "0" * m + "1")


class TestTestFamily:
    def test_ml_bound_enforced(self):
        with pytest.raises(ValueError):
            TestFamily("ML", {1: PrefixFreeSet(["0", "10"])})
        TestFamily("ML", {1: PrefixFreeSet(["00"])})

    def test_schnorr_exactness_enforced(self):
        with pytest.raises(ValueError):
            TestFamily("Schnorr", {2: PrefixFreeSet(["000"])})
        TestFamily("Schnorr", {2: PrefixFreeSet(["00"])})

    def test_generalized_schedule(self):
        with pytest.raises(ValueError):
            TestFamily("generalized", {0: PrefixFreeSet(["0"])})
        t = TestFamily("generalized", {0: PrefixFreeSet(["0"])},
                       bounds={0: Fraction(1, 2)})
        assert t.bounds[0] == Fraction(1, 2)

    def test_missing_level(self):
        t = toward(PeriodicPoint("", "0"), 3)
        with pytest.raises(MissingLevel):
            t.level(9)


class TestPowerTest:
    def test_spec_measures(self):
        t = power_test(PrefixFreeSet(["00", "01", "10"]), 2)
        assert measure(t.levels[1]) == Fraction(3, 4)
        assert measure(t.levels[2]) == Fraction(9, 16)
        assert check_nested(t)

    def test_singleton_chain(self):
        t = power_test(PrefixFreeSet(["0"]), 3)
        assert [t.levels[n] for n in (1, 2, 3)] == [
            PrefixFreeSet(["0"]), PrefixFreeSet(["00"]), PrefixFreeSet(["000"])]

    def test_empty_base(self):
        t = power_test(PrefixFreeSet(), 2)
        assert all(measure(t.levels[n]) == 0 for n in (1, 2))

    def test_unbounded_rejected(self):
        with pytest.raises(Unbounded):
            power_test(PrefixFreeSet(["0", "1"]), 2)

    def test_members_across_levels(self):
        # A point all of whose tails stay in [U] lies in every power level.
        u = PrefixFreeSet(["00", "01", "10"])
        x = PeriodicPoint("", "00")
        for n in (1, 2, 3):
            assert member(power_test(u, 3).levels[n], x)

    def test_each_level_builds_on_the_last(self):
        """Level n is U^(n-1) with U's leaves replaced, not U^n rebuilt from
        U: 3,000 levels of {"00"} took 13 s when each was rebuilt."""
        with time_limit(1, "power_test of {'00'} to N = 3,000"):
            t = power_test(PrefixFreeSet(["00"]), 3000)
        assert t.levels[3000].elements == ("00" * 3000,)


class TestTailsToPower:
    def test_constant_point(self):
        cert = tails_to_power(PrefixFreeSet(["0"]), PeriodicPoint("", "0"), 4)
        assert cert.factors == ("0",) * 4

    def test_greedy_parse_two_bit_block(self):
        # X = 101010...; the only generator prefixing it is 10, three times.
        cert = tails_to_power(PrefixFreeSet(["0", "10"]), PeriodicPoint("", "10"), 3)
        assert cert.factors == ("10", "10", "10")
        assert cert.prefix == "101010"

    def test_tail_escape_reported(self):
        u = PrefixFreeSet(["00"])
        x = PeriodicPoint("0", "1")
        with pytest.raises(TailEscapes) as err:
            tails_to_power(u, x, 2)
        escaped = err.value.tail
        assert escaped in tails(x)
        assert not member(u, escaped)

    @given(st.lists(st.text(alphabet="01", min_size=1, max_size=5), max_size=8).map(reduce),
           st.text(alphabet="01", max_size=4), st.text(alphabet="01", min_size=1, max_size=4),
           st.integers(0, 4))
    def test_matches_generator_scan(self, u, head, period, n):
        x = PeriodicPoint(head, period)
        if not all(member(u, t) for t in tails(x)):
            return
        rest, want = x, []
        for _ in range(n):
            want.append(next(s for s in u.elements if rest.prefix(len(s)) == s))
            rest = rest.shift(len(want[-1]))
        assert tails_to_power(u, x, n).factors == tuple(want)

    def test_cover_too_large_to_list(self):
        u = b_set(0, Fraction(255, 256))
        # Listing the 270,566,475 generators fails here, within a second.
        with time_limit(1.0, "tails-to-power on b_set(0, 255/256)"):
            cert = tails_to_power(u, PeriodicPoint("", "0"), 3)
        assert cert.factors == ("0", "0", "0")
        assert u._elements is None

    def test_long_period(self):
        """U = {0^k 1 : k <= 2000} and X = (0^2000 1)^omega: each block is
        found in one walk of U's trie, not one membership test per length."""
        u, x = long_period_cover(2000)
        with time_limit(0.5, "tails-to-power at m = 2000"):
            cert = tails_to_power(u, x, 2)
        assert cert.factors == (x.period, x.period)

    def test_tails_of_a_long_period(self):
        """One canonical form, then 2,001 shifts: about 0.04 s, where a
        canonical form per shift took 0.35 s (Python 3.11)."""
        _, x = long_period_cover(2000)
        with time_limit(0.25, "tails at m = 2000"):
            got = tails(x)
        assert got == [x.shift(k) for k in range(2001)]

    def test_certificate_validates_prefix(self):
        with pytest.raises(ValueError):
            FactorizationCertificate(PeriodicPoint("", "0"), ["1"])


class TestSchnorrMerge:
    def test_truncation_zero(self):
        merged, rep = schnorr_merge(toward(PeriodicPoint("", "0"), 2), 0)
        assert merged == PrefixFreeSet(["00"])
        assert measure(merged) == Fraction(1, 4)
        assert rep.passed
        assert rep.data["residual_bound_beyond_K"] == Fraction(1, 4)

    def test_truncation_one_absorbs_deeper_layer(self):
        merged, rep = schnorr_merge(toward(PeriodicPoint("", "0"), 5), 1)
        assert merged == PrefixFreeSet(["00"])
        assert measure(merged) == Fraction(1, 4)
        assert rep.passed

    def test_missing_level_raises(self):
        with pytest.raises(MissingLevel):
            schnorr_merge(toward(PeriodicPoint("", "0"), 3), 1)

    def test_kind_checked(self):
        t = TestFamily("ML", {2: PrefixFreeSet(["00"])})
        with pytest.raises(ValueError):
            schnorr_merge(t, 0)

    def test_point_tails_covered(self):
        x = PeriodicPoint("", "0")
        merged, rep = schnorr_merge(toward(x, 5), 1, point=x)
        assert rep.data["point_in_all_levels"]
        assert rep.passed
        for t in tails(x):
            assert member(merged, t)

    def test_two_point_fixture(self):
        # Levels hold prefixes of both x and a decoy y, still exactly 2^-n.
        x = PeriodicPoint("", "01")
        y = PeriodicPoint("", "10")
        levels = {
            n: PrefixFreeSet([x.prefix(n + 1), y.prefix(n + 1)])
            for n in range(9)
        }
        fam = TestFamily("Schnorr", levels)
        merged, rep = schnorr_merge(fam, 2, point=x)
        assert rep.passed
        assert measure(merged) <= Fraction(1, 2)
        for t in tails(x):
            assert member(merged, t)

    def test_layer_bound_is_conditioned_union(self):
        # Independent recomputation of the k=1 layer for the canonical fixture.
        x = PeriodicPoint("", "0")
        fam = toward(x, 5)
        level5 = fam.levels[5]
        layer = [condition(level5, "0"), condition(level5, "1")]
        assert layer[0] == PrefixFreeSet(["0000"])
        assert layer[1] == PrefixFreeSet()


    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    def test_matches_full_enumeration(self, rng, k_max):
        levels = {}
        for k in range(k_max + 1):
            n = 3 * k + 2
            j = rng.randint(0, 2)
            stem = "".join(rng.choice("01") for _ in range(rng.randint(0, n)))
            words = set()
            while len(words) < 2 ** j:
                words.add(stem + "".join(rng.choice("01") for _ in range(n + j - len(stem))))
            levels[n] = PrefixFreeSet(words)
        fam = TestFamily("Schnorr", levels)
        merged, rep = schnorr_merge(fam, k_max)
        want, layers = enum_schnorr_merge(fam, k_max)
        assert merged.elements == want.elements
        assert [layer["measure"] for layer in rep.data["layers"]] == layers

    def test_many_layers_of_one_generator(self):
        levels = {str(3 * k + 2): {"elements": ["1" * (3 * k + 2)]} for k in range(141)}
        doc = {"test": {"kind": "Schnorr", "levels": levels}, "K": 140}
        # Conditioning on all 2^k strings per layer fails here, within a second.
        with time_limit(1.0, "schnorr-merge at K = 140"):
            rep, status = dispatch("schnorr-merge", doc)
            rep = to_doc(rep)
        assert status == 0 and rep["result"] == "PASS"
        assert rep["output"]["set"] == {"elements": ["11"]}
        assert rep["data"]["measure"] == "1/4"


class TestRemarkBundle:
    def test_mixed_points(self):
        u = PrefixFreeSet(["0"])
        rep = remark24_bundle(u, [PeriodicPoint("", "0")], n=3)
        assert rep.passed
        rep2 = remark24_bundle(u, [PeriodicPoint("", "1")], n=2)
        assert not rep2.passed

    def test_two_block_factorizations(self):
        u = PrefixFreeSet(["00", "01", "10"])
        rep = remark24_bundle(
            u, [PeriodicPoint("", "00"), PeriodicPoint("", "01")], n=2)
        assert rep.passed
        factors = [e["factors"] for e in rep.data["points"]]
        assert factors == [["00", "00"], ["01", "01"]]

    def test_unbounded_rejected(self):
        with pytest.raises(Unbounded):
            remark24_bundle(PrefixFreeSet([""]), [], n=1)
