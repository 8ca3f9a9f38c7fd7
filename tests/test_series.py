"""Coordinate sets, block encodings, extraction, and the tree embedding.

The heavyweight oracle here enumerates every string of a given length and
tests membership straight off the pin lists, independently of the
pruned tree walk that produces generator sets.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.cli import dispatch
from cantorlab.coding import DyadicFunction
from cantorlab.covers import TestFamily
from cantorlab.errors import (
    MissingStage,
    NonDyadicAlpha,
    SearchExhausted,
    WeightTooLarge,
)
from cantorlab.martingales import (
    ConstantStrategy,
    MartingaleTable,
    MixtureStrategy,
    PointDoubler,
    TableStrategy,
    check_fairness,
    positive_shift,
    table_of,
)
from cantorlab.pairing import cantor_pair, cantor_unpair
from cantorlab.series import (
    PARTITION,
    BlockDoubler,
    b_set,
    b_terms,
    encode_series,
    extract_series,
    f_from_test,
    open_to_series_approx,
    open_to_series_sup,
    series_to_open,
    tree_embed,
    vn_from_g,
)
from cantorlab.serialize import to_doc
from cantorlab.space import (
    PeriodicPoint,
    PrefixFreeSet,
    StagedOpenSet,
    condition,
    covers,
    covers_pinned,
    measure,
    member,
    pinned_union,
    reduce,
    union,
)

from util import (
    all_pairs_incomparable,
    antidiagonal_pairs,
    bfs_tree_embed,
    block_owner,
    doubler,
    loop_unpair,
    pin_depth,
    random_fair_table,
    random_prefix_free,
    scan_open_to_series_approx,
    time_limit,
    top_down_open_to_series_sup,
    union_measure,
)


def bf_terms_measure(terms, depth):
    """Fully flat oracle: fraction of length-`depth` strings in the union."""
    hits = 0
    for m in range(2 ** depth):
        s = format(m, f"0{depth}b") if depth else ""
        if any(all(s[p] == b for p, b in pins) for pins in terms):
            hits += 1
    return Fraction(hits, 2 ** depth)


class TestPairingAndPartition:
    def test_pairing_layout(self):
        assert [cantor_pair(n, j) for n, j in
                [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]] == [0, 1, 2, 3, 4, 5]

    def test_pairing_injective(self):
        seen = {cantor_pair(n, j) for n in range(6) for j in range(6)}
        assert len(seen) == 36

    @pytest.mark.parametrize("a,b", [(0, 0), (3, 0), (0, 7), (5, 9), (10**40, 0),
                                     (10**40, 3), (2, 10**40), (10**40, 10**40 + 1)])
    def test_unpair_inverts_pair(self, a, b):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)

    def test_unpair_matches_the_walk(self):
        assert all(cantor_unpair(n) == loop_unpair(n) for n in range(20_000))
        with pytest.raises(ValueError):
            cantor_unpair(-1)

    def test_partition_blocks_tile(self):
        got = [PARTITION.block(i, l) for i, l in
               [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)]]
        assert got == [range(0, 1), range(1, 3), range(3, 4),
                       range(4, 7), range(7, 9), range(9, 10)]

    def test_closed_form_matches_antidiagonal_layout(self):
        start = 0
        for i, l in antidiagonal_pairs(0, 1):
            if i + l > 60:
                break
            assert PARTITION.block(i, l) == range(start, start + l)
            start += l

    def test_owner_inverts_block(self):
        for i, l in [(0, 1), (1, 2), (2, 3), (3, 1)]:
            blk = PARTITION.block(i, l)
            assert all(block_owner(PARTITION, p) == (i, l) for p in blk)


class TestConstraintSets:
    def test_measure_and_depth(self):
        pins = [(3, "0"), (1, "1")]
        assert measure(pinned_union([pins])) == Fraction(1, 4)
        assert pinned_union([pins]).maxlen == pin_depth(pins) == 4

    def test_conditional_measure(self):
        z = pinned_union([[(0, "0"), (2, "0")]])
        assert measure(condition(z, "0")) == Fraction(1, 2)
        assert measure(condition(z, "1")) == 0
        assert measure(condition(z, "000")) == 1

    def test_independence_of_disjoint_positions(self):
        rng = Random(31)
        for _ in range(25):
            pos = rng.sample(range(8), 6)
            a = [(p, rng.choice("01")) for p in pos[:3]]
            b = [(p, rng.choice("01")) for p in pos[3:]]
            depth = max(pin_depth(a), pin_depth(b))
            assert bf_terms_measure([a + b], depth) == (
                measure(pinned_union([a])) * measure(pinned_union([b])))

    def test_covered_by(self):
        pins = [(1, "0")]
        assert covers_pinned(PrefixFreeSet(["00", "10"]), pins)
        assert not covers_pinned(PrefixFreeSet(["00"]), pins)

    def test_member(self):
        z = pinned_union([[(0, "0"), (2, "1")]])
        assert member(z, PeriodicPoint("00", "1"))
        assert not member(z, PeriodicPoint("", "0"))


class TestUnionGenerators:
    def test_matches_flat_oracle(self):
        rng = Random(47)
        for _ in range(25):
            terms = []
            for _ in range(rng.randint(1, 4)):
                pos = rng.sample(range(7), rng.randint(1, 3))
                terms.append([(p, rng.choice("01")) for p in pos])
            u = pinned_union(terms)
            depth = max(pin_depth(pins) for pins in terms)
            assert measure(u) == bf_terms_measure(terms, depth)
            assert measure(u) == union_measure(terms)

    def test_full_space_short_circuits(self):
        assert pinned_union([[]]) == PrefixFreeSet([""])

    def test_empty(self):
        assert pinned_union([]) == PrefixFreeSet()


class TestBSet:
    def test_half_on_coordinate_zero(self):
        assert b_set(0, Fraction(1, 2)) == PrefixFreeSet(["0"])

    def test_alpha_zero_and_one(self):
        assert b_set(2, Fraction(0)) == PrefixFreeSet()
        assert b_set(2, Fraction(1)) == PrefixFreeSet([""])

    def test_three_quarters_on_coordinate_one(self):
        # Constrains positions 1 and 4 (the first two digits of coordinate 1).
        terms = b_terms(1, Fraction(3, 4))
        assert terms == [[(1, "0")], [(1, "1"), (4, "0")]]
        u = b_set(1, Fraction(3, 4))
        assert measure(u) == Fraction(3, 4)
        assert bf_terms_measure(terms, 5) == Fraction(3, 4)

    def test_non_dyadic_rejected(self):
        with pytest.raises(NonDyadicAlpha):
            b_set(0, Fraction(1, 3))

    def test_measure_equals_alpha_battery(self):
        for num in range(0, 17):
            alpha = Fraction(num, 16)
            assert measure(b_set(0, alpha)) == alpha


class TestSeriesToOpen:
    def test_examples(self):
        u, prod, rep = series_to_open(DyadicFunction({0: Fraction(1, 2)}))
        assert prod == Fraction(1, 2) and rep.passed
        u2, prod2, rep2 = series_to_open(
            DyadicFunction({0: Fraction(1, 2), 1: Fraction(1, 2)}))
        assert prod2 == Fraction(3, 4) and rep2.passed
        assert measure(u2) == Fraction(3, 4)
        u3, prod3, rep3 = series_to_open(DyadicFunction({}))
        assert prod3 == 0 and measure(u3) == 0 and rep3.passed

    def test_product_law_random(self):
        rng = Random(53)
        for _ in range(15):
            entries = {}
            for n in range(rng.randint(1, 3)):
                t = rng.randint(1, 3)
                entries[n] = Fraction(rng.randint(0, 2 ** t), 2 ** t)
            f = DyadicFunction(entries)
            u, prod, rep = series_to_open(f)
            assert rep.passed
            terms = [t for n, v in f.entries for t in b_terms(n, v)]
            if terms:
                depth = max(pin_depth(pins) for pins in terms)
                assert bf_terms_measure(terms, depth) == prod


class TestOpenToSeries:
    def test_sup_recovers_half(self):
        v = b_set(0, Fraction(1, 2))
        assert open_to_series_sup(v, 0) == Fraction(1, 2)

    @given(st.lists(st.text(alphabet="01", max_size=7), max_size=6).map(reduce),
           st.integers(0, 2), st.integers(0, 8))
    def test_sup_matches_top_down_walk(self, w, n, num):
        for v in (w, union(w, b_set(n, Fraction(num, 8)))):
            assert open_to_series_sup(v, n) == top_down_open_to_series_sup(v, n)

    def test_sup_on_a_long_generator(self):
        elements = list(b_set(0, Fraction(1, 4)).elements) + ["1" * 1000]
        # Walking the 2^45 grid points from the top fails here, within a second.
        with time_limit(1.0, "open-to-series (sup) at L = 1000"):
            rep, status = dispatch("open-to-series", {"n": 0, "set": {"elements": elements}})
            rep = to_doc(rep)
        assert status == 0
        assert rep["output"]["alpha"] == "1/4"

    def test_sup_edges(self):
        assert open_to_series_sup(PrefixFreeSet(), 3) == 0
        assert open_to_series_sup(PrefixFreeSet([""]), 3) == 1

    def test_sup_dominates_input(self):
        f = DyadicFunction({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(3, 4)})
        u, _, _ = series_to_open(f)
        for n, v in f.entries:
            assert open_to_series_sup(u, n) >= v

    def test_approx_full_stage(self):
        st = StagedOpenSet((PrefixFreeSet([""]),))
        assert open_to_series_approx(st, 0, 2) == 1

    def test_approx_empty_stage_leak_allowance(self):
        st = StagedOpenSet((PrefixFreeSet(),))
        assert open_to_series_approx(st, 0, 3) == Fraction(1, 8)

    def test_approx_grid_max_beyond_half(self):
        st = StagedOpenSet((b_set(0, Fraction(1, 2)),))
        assert open_to_series_approx(st, 0, 2) == Fraction(3, 4)

    def test_approx_matches_generator_scan(self):
        rng = Random(59)
        for _ in range(250):
            stages = [random_prefix_free(rng, maxlen=6, count=rng.randint(0, 4))]
            for _ in range(2):
                stages.append(union(stages[-1], random_prefix_free(rng, maxlen=6,
                                                                   count=rng.randint(0, 3))))
            st = StagedOpenSet(stages)
            for n in range(3):
                for c in range(1, 4):
                    assert open_to_series_approx(st, n, c) == \
                        scan_open_to_series_approx(st, n, c), (stages, n, c)

    def test_missing_stage(self):
        st = StagedOpenSet((PrefixFreeSet(),))
        with pytest.raises(MissingStage):
            open_to_series_approx(st, 1, 2)

    def test_negative_stage_refused(self):
        """A negative n names no stage: a ValueError, not the stage counted
        from the end or an IndexError."""
        with pytest.raises(ValueError, match="negative n"):
            open_to_series_approx(StagedOpenSet((PrefixFreeSet([""]),)), -5, 2)


class TestVnFromG:
    def test_threshold_arithmetic(self):
        g = DyadicFunction({"0": Fraction(1, 2)})
        v, rep = vn_from_g(g, 1)
        assert v == PrefixFreeSet(["0"])
        assert measure(v) <= 2 * g.sum
        assert rep.passed

    def test_zero_and_large_n(self):
        assert vn_from_g(DyadicFunction({}), 1)[0] == PrefixFreeSet()
        g = DyadicFunction({"00": Fraction(1, 16)})
        assert vn_from_g(g, 8)[0] == PrefixFreeSet()

    def test_covers_levels_built_from_test(self):
        levels = {1: PrefixFreeSet(["01"]), 2: PrefixFreeSet(["0000", "0001"])}
        fam = TestFamily("ML", levels)
        f, rep = f_from_test(fam)
        assert rep.passed
        for n in (1, 2):
            v, vrep = vn_from_g(f, n)
            assert vrep.passed
            assert covers(v, levels[n])


class TestFFromTest:
    def test_single_level(self):
        fam = TestFamily("ML", {1: PrefixFreeSet(["0"])})
        f, rep = f_from_test(fam)
        assert f("0") == Fraction(1, 2) and rep.passed

    def test_max_level_rule(self):
        fam = TestFamily("ML", {1: PrefixFreeSet(["00"]), 2: PrefixFreeSet(["00"])})
        f, _ = f_from_test(fam)
        assert f("00") == Fraction(2, 4)

    def test_empty(self):
        f, _ = f_from_test(TestFamily("ML", {}))
        assert len(f) == 0


class TestEncodeSeries:
    def test_two_blocks_exact_measure(self):
        u, d, rep = encode_series([2, 3], Fraction(2))
        assert rep.passed
        assert measure(u) == Fraction(11, 32)
        z0 = [(p, "0") for p in PARTITION.block(0, 2)]
        z1 = [(p, "0") for p in PARTITION.block(1, 3)]
        assert bf_terms_measure([z0, z1], 17) == Fraction(11, 32)

    def test_single_block_capital(self):
        u, d, rep = encode_series([1], Fraction(3, 2))
        assert rep.passed
        assert measure(u) == Fraction(1, 2)
        zeros = PeriodicPoint("", "0")
        end = PARTITION.block(0, 1).stop
        assert d.value(zeros.prefix(end)) >= Fraction(3, 2)

    def test_empty_exponents(self):
        u, d, rep = encode_series([], Fraction(2))
        assert measure(u) == 0 and d.value("0101") == 1 and rep.passed

    def test_weight_guard(self):
        with pytest.raises(WeightTooLarge):
            encode_series([1], Fraction(2))

    def test_negative_exponent_is_refused(self):
        for call in (lambda: BlockDoubler([-1], Fraction(1)),
                     lambda: encode_series([-1], Fraction(2)),
                     lambda: encode_series([2, -3], Fraction(2))):
            with pytest.raises(ValueError, match="^negative exponent$"):
                call()

    def test_block_doubler_is_fair(self):
        d = BlockDoubler([2, 1], Fraction(5, 4))
        assert check_fairness(table_of(d, 6))

    def test_block_doubler_rejects_oversized_reserves(self):
        with pytest.raises(WeightTooLarge):
            BlockDoubler([2, 1], Fraction(3, 2))

    def test_block_doubler_refuses_negative_q(self):
        """A negative q would reserve negative amounts and report negative
        capital; it is refused as a negative constant is.  q = 0 is the
        constant 1."""
        for q in (Fraction(-4), Fraction(-1, 8)):
            with pytest.raises(ValueError, match="^negative q$"):
                BlockDoubler([1, 2], q)
        d = BlockDoubler([1, 2], Fraction(0))
        assert {d.value(format(m, "06b")) for m in range(2 ** 6)} == {1}

    def test_block_doubler_stays_nonnegative(self):
        d = BlockDoubler([2, 1], Fraction(5, 4))
        for m in range(2 ** 6):
            assert d.value(format(m, "06b")) >= 0

    def test_adversarial_paths_reach_q(self):
        q = Fraction(2)
        exps = [2, 3]
        _, d, rep = encode_series(exps, q)
        assert rep.passed
        for i, a in enumerate(exps):
            end = PARTITION.block(i, a).stop
            block = set(PARTITION.block(i, a))
            # zeros on block i, ones everywhere else: the worst path
            head = "".join("0" if p in block else "1" for p in range(end))
            assert d.value(head) >= q

    def test_capital_trace_matches_reserve_model(self):
        # a = (1,): reserve 3/4 doubles once at position 0.
        _, d, _ = encode_series([1], Fraction(3, 2))
        assert d.value("0") == 1 + Fraction(3, 4)
        assert d.value("1") == 1 - Fraction(3, 4)


class TestExtractSeries:
    def test_exact_block(self):
        z = pinned_union([[(p, "0") for p in PARTITION.block(0, 1)]])
        res = extract_series(z, 2, 3)
        assert res.block_lengths[0] == 1
        assert res.series(0) == Fraction(1, 2)
        assert res.report.passed

    def test_empty_cover(self):
        res = extract_series(PrefixFreeSet(), 3, 2)
        assert res.block_lengths == (None, None, None)
        assert len(res.series) == 0

    def test_roundtrip_bounds(self):
        exps = [2, 3]
        u, _, _ = encode_series(exps, Fraction(2))
        res = extract_series(u, len(exps), max(exps))
        assert res.report.passed
        for i, a in enumerate(exps):
            assert res.block_lengths[i] is not None
            assert res.block_lengths[i] <= a
            assert res.series(i) >= Fraction(1, 2 ** a)


points = st.builds(PeriodicPoint, st.text(alphabet="01", max_size=3),
                   st.text(alphabet="01", min_size=1, max_size=3))
normed = st.one_of(
    st.just(ConstantStrategy(1)),
    st.builds(PointDoubler, points),
    points.map(lambda x: positive_shift(PointDoubler(x))),
    st.integers(0, 2 ** 16).map(lambda seed: TableStrategy(random_fair_table(Random(seed), 4))),
    st.builds(BlockDoubler, st.lists(st.integers(1, 3), max_size=3),
              st.sampled_from([Fraction(1, 3), Fraction(2, 3)])),
)
embeddable = st.one_of(normed, st.builds(MixtureStrategy, normed, normed, st.integers(1, 4)))


def embedded(embed, d, depth, budget):
    """(map, report document), or the SearchExhausted message and frontier."""
    try:
        mapping, rep = embed(d, depth, budget)
    except SearchExhausted as err:
        return str(err), err.frontier
    return mapping, rep.to_doc()


class TestTreeEmbed:
    @settings(max_examples=300, deadline=None)
    @given(embeddable, st.integers(-1, 6), st.integers(0, 3))
    def test_matches_breadth_first_search(self, d, budget, depth):
        """The search along one path gives the map, report and error of the
        breadth-first search over every kept string."""
        assert embedded(tree_embed, d, depth, budget) == embedded(bfs_tree_embed, d, depth, budget)

    @pytest.mark.parametrize("depth", range(8))
    def test_sibling_check_matches_all_pairs(self, depth):
        """The sibling check records what the check over all pairs of
        nodes recorded."""
        for d in (ConstantStrategy(1), doubler(), PointDoubler(PeriodicPoint("1", "01")),
                  TableStrategy(random_fair_table(Random(depth), 4, positive=True))):
            mapping, rep = tree_embed(d, depth)
            recorded = [c["lhs"] for c in rep.to_doc()["checks"]
                        if c["check"] == "incomparability preserved"]
            assert recorded == [all_pairs_incomparable(mapping)]

    def test_deep_embedding_in_linear_time(self):
        with time_limit(1.0, "tree_embed(ConstantStrategy(1), 12)"):
            mapping, rep = tree_embed(ConstantStrategy(1), 12)
        assert len(mapping) == 2 ** 13 - 1 and rep.passed

    def test_negative_depth_refused(self):
        with pytest.raises(ValueError, match="negative depth"):
            tree_embed(ConstantStrategy(1), -1)

    def test_constant_gives_identity(self):
        mapping, rep = tree_embed(ConstantStrategy(1), 3)
        assert rep.passed
        assert all(mapping[s] == s for s in mapping)

    def test_depth_zero(self):
        mapping, rep = tree_embed(doubler(), 0)
        assert mapping == {"": ""} and rep.passed

    def test_doubler_avoided(self):
        mapping, rep = tree_embed(doubler(), 4)
        assert rep.passed
        for s, tau in mapping.items():
            for i in range(len(tau) + 1):
                assert doubler().value(tau[:i]) <= 2 - Fraction(1, 2 ** len(s))

    def test_budget_exhaustion(self):
        t = MartingaleTable(1, {"": Fraction(1), "0": Fraction(1, 4), "1": Fraction(7, 4)})
        with pytest.raises(SearchExhausted):
            tree_embed(TableStrategy(t), 1, budget=1)
