"""Martingale engine: fairness, winning sets, the capital inequality, and
the four transforms, checked against closed forms and leaf enumerations."""

from fractions import Fraction
from random import Random

import pytest

from cantorlab.errors import DeadCapital, InvalidThreshold, NotWinningSet, ZeroPrefix
from cantorlab.martingales import (
    AverageStrategy,
    BlendStrategy,
    ConstantStrategy,
    MartingaleTable,
    TableStrategy,
    average_truncated,
    check_fairness,
    mixture,
    positive_shift,
    reset,
    success_capital,
    table_of,
    translate,
    verify_ville_kolmogorov,
    winning_set,
)
from cantorlab.serialize import to_doc
from cantorlab.space import PeriodicPoint, PrefixFreeSet, measure

from util import (
    all_strings,
    doubler,
    random_fair_strategy,
    random_fair_table,
    reference_value,
    time_limit,
)


def small_table(depth, values):
    """Table from partial values, extended by constancy."""
    return table_of(TableStrategy(MartingaleTable(
        1, {"": values[""], "0": values["0"], "1": values["1"]})), depth)


class TestFairness:
    def test_constant_table(self):
        t = table_of(ConstantStrategy(1), 3)
        assert check_fairness(t)

    def test_fair_split_extended_by_constancy(self):
        t = small_table(3, {"": Fraction(1), "0": Fraction(2), "1": Fraction(0)})
        assert check_fairness(t)

    def test_unfair(self):
        t = MartingaleTable(1, {"": Fraction(1), "0": Fraction(2), "1": Fraction(1)})
        assert not check_fairness(t)

    def test_every_strategy_kind_is_fair(self):
        d = doubler()
        shifted = positive_shift(d)
        kinds = [
            ConstantStrategy(Fraction(3, 2)),
            d,
            shifted,
            translate(d, "0"),
            average_truncated(shifted, 1),
            mixture(ConstantStrategy(1), d, 2),
            reset(shifted, Fraction(3, 2), PrefixFreeSet(["0"])),
        ]
        for strat in kinds:
            assert check_fairness(table_of(strat, 4)), strat


class TestWinningSet:
    def test_doubler_thresholds(self):
        w = winning_set(doubler(), Fraction(2), 4)
        assert w.generators == PrefixFreeSet(["0"])
        assert not w.truncated
        assert winning_set(doubler(), Fraction(4), 4).generators == PrefixFreeSet(["00"])

    def test_constant_never_wins(self):
        w = winning_set(ConstantStrategy(1), Fraction(3, 2), 6)
        assert w.generators == PrefixFreeSet()
        assert not w.truncated

    def test_truncation_flagged(self):
        w = winning_set(doubler(), Fraction(100), 4)
        assert w.generators == PrefixFreeSet()
        assert w.truncated

    def test_threshold_validation(self):
        with pytest.raises(InvalidThreshold):
            winning_set(doubler(), Fraction(1), 3)

    def test_negative_depth_rejected(self):
        # The search would never meet a leaf at depth -1.
        with pytest.raises(ValueError, match="negative depth"):
            winning_set(doubler(), Fraction(2), -1)

    def test_set_level_capital_inequality(self):
        rng = Random(7)
        for _ in range(40):
            d = random_fair_strategy(rng, 5)
            q = Fraction(rng.randint(5, 16), 4)
            w = winning_set(d, q, 5)
            assert measure(w.generators) <= d.value("") / q


def bf_hit_measure(table, sigma, threshold):
    """Leaf-level oracle: fraction of [sigma] whose path hits the threshold."""
    suffix_depth = table.depth - len(sigma)
    hits = 0
    for m in range(2 ** suffix_depth):
        tau = format(m, f"0{suffix_depth}b") if suffix_depth else ""
        if any(table[sigma + tau[:i]] >= threshold for i in range(1, suffix_depth + 1)):
            hits += 1
    return Fraction(hits, 2 ** suffix_depth)


class TestVilleKolmogorov:
    def test_doubler_tight(self):
        t = table_of(doubler(), 4)
        rep = verify_ville_kolmogorov(t, "", Fraction(2))
        assert rep.passed
        measured = rep.checks[0].lhs
        assert measured == Fraction(1, 2) == bf_hit_measure(t, "", Fraction(2))

    def test_constant_no_hits(self):
        t = table_of(ConstantStrategy(1), 4)
        rep = verify_ville_kolmogorov(t, "0", Fraction(2))
        assert rep.passed and rep.checks[0].lhs == 0

    def test_one_sided_split(self):
        t = small_table(2, {"": Fraction(1), "0": Fraction(3, 2), "1": Fraction(1, 2)})
        rep = verify_ville_kolmogorov(t, "", Fraction(3, 2))
        assert rep.passed
        assert rep.checks[0].lhs == Fraction(1, 2) <= Fraction(2, 3)

    def test_random_tables_against_leaf_oracle(self):
        rng = Random(11)
        for _ in range(30):
            t = random_fair_table(rng, 6, positive=True)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            q = Fraction(rng.randint(9, 40), 8)
            rep = verify_ville_kolmogorov(t, sigma, q)
            assert rep.passed
            assert rep.checks[0].lhs == bf_hit_measure(t, sigma, q * t[sigma])

    def test_degenerate_zero_capital_reported(self):
        t = table_of(doubler(), 3)
        rep = verify_ville_kolmogorov(t, "1", Fraction(2))
        assert rep.data["degenerate_zero_capital"]
        assert not rep.passed


class TestTranslate:
    def test_doubler_shift(self):
        d = translate(doubler(), "0")
        assert d.value("") == 2 and d.value("0") == 4

    def test_identity_on_epsilon(self):
        d = doubler()
        assert translate(d, "") is d

    def test_dead_branch(self):
        d = translate(doubler(), "1")
        assert d.value("") == 0 and d.value("0") == 0


class TestAverage:
    def test_level_zero_closed_form(self):
        base = positive_shift(doubler())
        avg = average_truncated(base, 0)
        for s in all_strings(4):
            assert avg.value(s) == Fraction(1, 2) * base.value(s) + Fraction(1, 2)

    def test_constant_stays_constant(self):
        avg = average_truncated(ConstantStrategy(1), 2)
        assert all(avg.value(s) == 1 for s in all_strings(4))

    def test_always_normed(self):
        rng = Random(3)
        for level in range(3):
            d = random_fair_strategy(rng, 4, positive=True)
            assert average_truncated(d, level).value("") == 1

    def test_zero_prefix_raises_without_shift(self):
        with pytest.raises(ZeroPrefix):
            average_truncated(doubler(), 1, shift=False)

    def test_shift_applied_when_needed(self):
        avg = average_truncated(doubler(), 1)
        assert isinstance(avg, AverageStrategy)
        assert avg.value("") == 1


class TestReset:
    def test_two_blocks_squared(self):
        base = positive_shift(doubler())
        d = reset(base, Fraction(3, 2), PrefixFreeSet(["0"]))
        assert d.value("00") == Fraction(9, 4)

    def test_normed_at_root(self):
        base = positive_shift(doubler())
        d = reset(base, Fraction(3, 2), PrefixFreeSet(["0"]))
        assert d.value("") == 1

    def test_block_powers_closed_form(self):
        base = positive_shift(doubler())
        d = reset(base, Fraction(3, 2), PrefixFreeSet(["0"]))
        for k in range(6):
            assert d.value("0" * k) == Fraction(3, 2) ** k

    def test_rejects_non_winning_blocks(self):
        base = positive_shift(doubler())
        with pytest.raises(NotWinningSet):
            reset(base, Fraction(3, 2), PrefixFreeSet(["1"]))
        with pytest.raises(NotWinningSet):
            reset(base, Fraction(3, 2), PrefixFreeSet(["00"]))

    def test_random_block_words(self):
        rng = Random(23)
        done = 0
        while done < 25:
            d = positive_shift(random_fair_strategy(rng, 4, positive=True))
            q = Fraction(rng.randint(9, 12), 8)
            blocks = winning_set(d, q, 4).generators
            if not blocks or len(blocks) > 3:
                continue
            done += 1
            strat = reset(d, q, blocks)
            words = [""]
            for k in range(1, 4):
                words = [w + b for w in words for b in blocks]
                for w in words:
                    assert strat.value(w) >= q ** k


class TestMixture:
    def test_weight_edge_cases(self):
        d = ConstantStrategy(1)
        d_e = positive_shift(doubler())
        m1 = mixture(d, d_e, 1)
        m2 = mixture(d, d_e, 2)
        for s in all_strings(3):
            assert m1.value(s) == d_e.value(s)
            assert m2.value(s) == (d.value(s) + d_e.value(s)) / 2

    def test_spec_sample_value(self):
        m = mixture(ConstantStrategy(1), doubler(), 3)
        assert m.value("0") == Fraction(5, 4)

    def test_exact_decomposition(self):
        rng = Random(5)
        for _ in range(10):
            d = random_fair_strategy(rng, 4, positive=True)
            d_e = positive_shift(random_fair_strategy(rng, 4))
            n_e = rng.randint(1, 5)
            m = mixture(d, d_e, n_e)
            w = Fraction(1, 2 ** (n_e - 1))
            for s in all_strings(4):
                assert m.value(s) - (1 - w) * d.value(s) - w * d_e.value(s) == 0


def dying_reset():
    """A normed reset strategy whose base dies inside a block past "01"."""
    return reset(doubler(), Fraction(2), PrefixFreeSet(["0"]))


class TestZeroWeightTerms:
    def test_mixture_at_n_e_1_still_evaluates_d(self):
        """At n_e = 1, d has weight 0 but is evaluated and asked for
        flatness, so a dying d raises and keeps the mixture unflat."""
        d = dying_reset()
        with pytest.raises(DeadCapital) as want:
            d.value("0101")
        m = mixture(d, ConstantStrategy(1), 1)
        with pytest.raises(DeadCapital) as got:
            m.value("0101")
        assert str(got.value) == str(want.value)
        assert m.value("01") == 1 and not m.flat_beyond("")

    def test_blend_skips_zero_weight_terms(self):
        """A zero-weight blend term is never evaluated nor asked, but stays
        on the wire."""
        b = BlendStrategy([(0, dying_reset()), (1, ConstantStrategy(1))])
        assert b.value("0101") == 1 and b.flat_beyond("")
        assert [w for w, _ in to_doc(b)["terms"]] == ["0", "1"]


class TestSuccessCapital:
    def test_doubler_traces(self):
        assert success_capital(doubler(), PeriodicPoint("", "0"), 3) == [1, 2, 4, 8]
        assert success_capital(doubler(), PeriodicPoint("", "1"), 2) == [1, 0, 0]
        assert success_capital(ConstantStrategy(1), PeriodicPoint("01", "1"), 4) == [1] * 5

    @pytest.mark.parametrize("make", [doubler, lambda: positive_shift(doubler())],
                             ids=["doubler", "shifted"])
    def test_deep_trace_reads_one_path(self, make):
        """The trace slices one prefix of X and evaluates through the memo;
        building and checking each prefix anew took 0.25-0.3 s (2-core VM,
        Python 3.11.7)."""
        x, depth = PeriodicPoint("", "0"), 8000
        with time_limit(0.2, "a depth-8,000 capital trace"):
            trace = success_capital(make(), x, depth)
        path, d = x.prefix(depth), make()
        assert trace == [reference_value(d, path[:n]) for n in range(depth + 1)]
        assert all(type(v) is Fraction for v in trace)
