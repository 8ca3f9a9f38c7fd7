"""The nine closure constructions, with their exact bound certificates."""

import dataclasses
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cantorlab.cli import dispatch
from cantorlab.closure import (
    PROVIDERS,
    CRProvider,
    MLRProvider,
    ProviderState,
    SRProvider,
    _least_slack,
    p1_cr,
    p1_mlr,
    p1_sr,
    p2_cr_check,
    p2_mlr,
    p2_sr,
    p3_cr,
    p3_mlr,
    p3_sr,
)
from cantorlab.covers import TestFamily, power_test
from cantorlab.errors import (
    AlreadyWon,
    BadThreshold,
    DeadCapital,
    FullConditional,
    MissingLevel,
    SearchExhausted,
    SlackViolated,
)
from cantorlab.martingales import (
    ConstantStrategy,
    MartingaleTable,
    PointDoubler,
    TableStrategy,
    winning_set,
)
from cantorlab.serialize import to_doc
from cantorlab.space import (
    PeriodicPoint,
    PrefixFreeSet,
    StagedOpenSet,
    condition,
    covers,
    measure,
    reduce,
    union,
)

from util import (
    all_strings,
    doubler,
    enum_cr_p2,
    enum_p2_mlr,
    enum_p2_sr,
    random_fair_strategy,
    random_prefix_free,
    reference_value,
    time_limit,
)

bits = st.text(alphabet="01", max_size=7)
prefix_free = st.lists(bits, max_size=8).map(reduce)


def full_verdict(rep):
    return next(c.passed for c in rep.checks
                if c.name == "full cylinders within depth covered")


def test_least_slack_matches_the_loop():
    rng = Random(5)
    ms = [Fraction(a, b) for b in range(1, 40) for a in range(b)]
    ms += [1 - Fraction(1, 2 ** k) + Fraction(e, 2 ** (k + 9)) for k in range(1, 40)
           for e in (-1, 0, 1)]
    ms += [Fraction(rng.randrange(2 ** 70), 2 ** 70) for _ in range(500)]
    for m in ms:
        k = 1
        while m >= 1 - Fraction(1, 2 ** k):
            k += 1
        assert _least_slack(m) == k, m
    with pytest.raises(FullConditional):
        _least_slack(Fraction(1))


class TestP1MLR:
    def test_examples(self):
        assert p1_mlr(PrefixFreeSet(["00"]), "0") == PrefixFreeSet(["0"])
        assert p1_mlr(PrefixFreeSet(["00", "01"]), "1") == PrefixFreeSet()
        got = p1_mlr(PrefixFreeSet(["000", "001", "011"]), "0")
        assert got == PrefixFreeSet(["00", "01", "11"])
        assert measure(got) == Fraction(3, 4)

    def test_full_conditional_rejected(self):
        with pytest.raises(FullConditional):
            p1_mlr(PrefixFreeSet(["00", "01"]), "0")


class TestP2MLR:
    def test_deep_singleton(self):
        v, rep = p2_mlr(PrefixFreeSet(["00"]), Fraction(3, 4))
        assert v == PrefixFreeSet(["00"])
        assert measure(v) <= Fraction(1, 4) / Fraction(3, 4)
        assert rep.passed

    def test_empty_set(self):
        v, rep = p2_mlr(PrefixFreeSet(), Fraction(1, 2))
        assert v == PrefixFreeSet() and rep.passed

    def test_shallow_singleton(self):
        v, rep = p2_mlr(PrefixFreeSet(["0"]), Fraction(3, 4))
        assert v == PrefixFreeSet(["0"])
        assert rep.passed

    def test_bad_threshold(self):
        with pytest.raises(BadThreshold):
            p2_mlr(PrefixFreeSet(["0"]), Fraction(1, 2))
        with pytest.raises(BadThreshold):
            p2_mlr(PrefixFreeSet(["0"]), Fraction(3, 2))

    def test_random_battery(self):
        rng = Random(41)
        done = 0
        while done < 60:
            u = random_prefix_free(rng, maxlen=5, count=5)
            mu = measure(u)
            if mu >= 1:
                continue
            q = (mu + 1) / 2 if mu > 0 else Fraction(1, 2)
            v, rep = p2_mlr(u, q)
            assert rep.passed
            assert measure(v) <= mu / q if mu else measure(v) == 0
            # full-cylinder coverage, recomputed independently
            for s in all_strings(u.maxlen):
                if measure(condition(u, s)) == 1:
                    assert covers(v, PrefixFreeSet([s]))
            done += 1


def ml_test_toward_ones(n_max: int) -> TestFamily:
    return TestFamily("ML", {n: PrefixFreeSet(["1" * n]) if n else PrefixFreeSet([""])
                             for n in range(n_max + 1)})


class TestP3MLR:
    def test_index_formula(self):
        t = ml_test_toward_ones(6)
        n_e, v, rep = p3_mlr(PrefixFreeSet(["00"]), "01", 1, t)
        assert n_e == 3
        assert rep.passed

    def test_union_with_level(self):
        t = TestFamily("ML", {1: PrefixFreeSet(["11"])})
        n_e, v, rep = p3_mlr(PrefixFreeSet(), "", 1, t)
        assert n_e == 1
        assert v == PrefixFreeSet(["11"])
        assert measure(condition(v, "")) <= Fraction(1, 2)
        assert rep.passed

    def test_sigma_zero_k_two(self):
        # n_e = |sigma| + k = 3.
        t = ml_test_toward_ones(6)
        n_e, v, rep = p3_mlr(PrefixFreeSet(["011"]), "0", 2, t)
        assert n_e == 3
        assert rep.passed
        assert covers(v, t.levels[3])

    def test_slack_violated(self):
        with pytest.raises(SlackViolated):
            p3_mlr(PrefixFreeSet(["00", "01"]), "0", 1, ml_test_toward_ones(4))

    def test_generalized_level_by_bound_schedule(self):
        """A generalized test gives the least level whose bound is at most
        2^-(|sigma| + k), not level |sigma| + k, whose bound 3/4 here would
        fail both certified bounds."""
        t = TestFamily("generalized", {1: PrefixFreeSet(["0", "11"]), 2: PrefixFreeSet(["00"])},
                       bounds={1: Fraction(3, 4), 2: Fraction(1, 4)})
        n_e, v, rep = p3_mlr(PrefixFreeSet(["10"]), "", 1, t)
        assert n_e == 2 and v == PrefixFreeSet(["00", "10"])
        assert rep.passed
        assert MLRProvider(k=1).p3(ProviderState(PrefixFreeSet(["10"])), "", t)[0] == 2
        with pytest.raises(MissingLevel, match="bound <= 1/8"):
            p3_mlr(PrefixFreeSet(["10"]), "", 3, t)

    @given(prefix_free, prefix_free, bits, st.integers(1, 3))
    def test_power_test_levels_keep_the_slack(self, u, w, sigma, k):
        """Against the generalized test power_test builds, the MLR and SR
        providers absorb the same level, and its mass at sigma is at most
        2^-k, so p3_mlr's certificate passes."""
        assume(0 < measure(u) < 1 and "" not in u)
        t = power_test(u, 6)
        try:
            n_e, v, rep = p3_mlr(w, sigma, k, t)
        except (SlackViolated, MissingLevel):
            return
        assert rep.passed
        assert measure(condition(t.level(n_e), sigma)) <= Fraction(1, 2 ** k)
        staged = ProviderState(w, payload=StagedOpenSet((w,)))
        assert SRProvider(k=k).p3(staged, sigma, t)[0] == n_e


class TestP1CR:
    def test_doubler_rescaled(self):
        d2, q2 = p1_cr(doubler(), Fraction(4), "0")
        assert q2 == 2
        assert d2.value("") == 1 and d2.value("0") == 2 and d2.value("1") == 0

    def test_epsilon_identity(self):
        d = doubler()
        d2, q2 = p1_cr(d, Fraction(4), "")
        assert d2 is d and q2 == 4

    def test_dead_capital(self):
        with pytest.raises(DeadCapital):
            p1_cr(doubler(), Fraction(4), "1")
        d2, q2 = p1_cr(doubler(), Fraction(4), "1", empty_marker=True)
        assert winning_set(d2, q2, 5).generators == PrefixFreeSet()

    def test_already_won(self):
        with pytest.raises(AlreadyWon):
            p1_cr(doubler(), Fraction(2), "00")

    def test_prefixes_compared_without_value(self):
        """value is read once, at sigma; the prefixes are compared with q
        on the memo's pairs, and the error names the shortest winning one."""
        rng = Random(29)
        outcomes = set()
        for _ in range(60):
            d = random_fair_strategy(rng, 6, positive=True)
            q = Fraction(rng.randint(5, 12), 4)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            read = []
            d.value = lambda s, value=d.value: read.append(s) or value(s)
            won = next((sigma[:i] for i in range(len(sigma) + 1)
                        if reference_value(d, sigma[:i]) >= q), None)
            if won is None:
                p1_cr(d, q, sigma)
            else:
                with pytest.raises(AlreadyWon) as err:
                    p1_cr(d, q, sigma)
                assert str(err.value) == f"capital reaches {q} at prefix {won!r}"
            assert read == [sigma]
            outcomes.add(won is None)
        assert outcomes == {True, False}

    def test_conditioned_winning_set_identity(self):
        rng = Random(13)
        for _ in range(20):
            d = random_fair_strategy(rng, 6, positive=True)
            q = Fraction(rng.randint(5, 9), 4)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
            if any(d.value(sigma[:i]) >= q for i in range(len(sigma) + 1)):
                continue
            d2, q2 = p1_cr(d, q, sigma)
            lhs = winning_set(d2, q2, 6 - len(sigma)).generators
            rhs = condition(winning_set(d, q, 6).generators, sigma)
            assert lhs == reduce(rhs.elements)


class TestP2CR:
    def test_full_conditional_forces_capital(self):
        rep = p2_cr_check(doubler(), Fraction(2), "0", 3)
        assert rep.passed
        assert rep.data["mu_winning_given_sigma"] == 1

    def test_vacuous_cases(self):
        for sigma, d in [("1", doubler()), ("0", ConstantStrategy(1))]:
            rep = p2_cr_check(d, Fraction(2), sigma, 3)
            assert rep.passed
            assert rep.data["mu_winning_given_sigma"] < 1


class TestP3CR:
    def test_constant_against_doubler(self):
        n_e, v, rep = p3_cr(ConstantStrategy(1), Fraction(3, 2), "", doubler(), 6)
        assert n_e == 3
        assert v.threshold == Fraction(9, 8)
        assert rep.passed

    def test_capital_near_threshold_needs_larger_n(self):
        t = MartingaleTable(1, {"": Fraction(1), "0": Fraction(11, 8), "1": Fraction(5, 8)})
        d = TableStrategy(t)
        n_e, v, rep = p3_cr(d, Fraction(3, 2), "0", doubler(), 6)
        assert rep.passed
        base_n = p3_cr(ConstantStrategy(1), Fraction(3, 2), "", doubler(), 6)[0]
        assert n_e >= base_n

    def test_constant_test_martingale(self):
        n_e, v, rep = p3_cr(ConstantStrategy(1), Fraction(3, 2), "", ConstantStrategy(1), 6)
        assert rep.passed
        assert v.generators == PrefixFreeSet()

    def test_coverage_certificates(self):
        rng = Random(19)
        for _ in range(10):
            d = random_fair_strategy(rng, 5, positive=True)
            d_e = random_fair_strategy(rng, 5, positive=True)
            q = Fraction(rng.randint(9, 14), 8)
            if d.value("") >= q:
                continue
            n_e, v, rep = p3_cr(d, q, "", d_e, 5)
            assert rep.passed
            assert covers(v.generators, winning_set(d, q, 5).generators)

    def test_search_exhausted_diagnostic(self):
        # Capital 5/2 sits between 2 and q=3 along sigma, blocking every n_e.
        t = MartingaleTable(1, {"": Fraction(1), "0": Fraction(5, 2), "1": Fraction(-1) + Fraction(3, 2)})
        d = TableStrategy(t)
        with pytest.raises(SearchExhausted):
            p3_cr(d, Fraction(3), "0", ConstantStrategy(1), 5, cap=10)


def staged(*stage_sets) -> StagedOpenSet:
    return StagedOpenSet(tuple(PrefixFreeSet(s) for s in stage_sets))


class TestP2SR:
    def test_single_stage_singleton(self):
        v, rep = p2_sr(staged(["00"]), 2, 2)
        assert covers(v, PrefixFreeSet(["00"]))
        assert rep.passed

    def test_empty(self):
        v, rep = p2_sr(staged([]), 1, 2)
        assert v == PrefixFreeSet()
        assert rep.passed

    def test_full_conditional_cylinder_enters(self):
        u = staged(["00"], ["00", "01"])
        v, rep = p2_sr(u, 2, 2)
        assert covers(v, PrefixFreeSet(["0"]))
        assert rep.passed

    def test_slack_violated(self):
        with pytest.raises(SlackViolated):
            p2_sr(staged(["0"]), 1, 2)

    def test_random_battery(self):
        rng = Random(59)
        done = 0
        while done < 40:
            final = random_prefix_free(rng, maxlen=4, count=4)
            k = rng.randint(1, 3)
            if measure(final) >= 1 - Fraction(1, 2 ** k):
                continue
            # random staging: enumerate generators in shuffled order
            elems = list(final.elements)
            rng.shuffle(elems)
            stages = [PrefixFreeSet(elems[: i + 1]) for i in range(len(elems))] or [final]
            u = StagedOpenSet(tuple(stages))
            depth = max(2, final.maxlen)
            v, rep = p2_sr(u, k, depth)
            assert rep.passed
            assert measure(union(v, final)) - measure(final) < Fraction(1, 2 ** k)
            for s in all_strings(depth):
                if measure(condition(final, s)) == 1:
                    assert covers(v, PrefixFreeSet([s]))
            done += 1


class TestP1P3SR:
    def test_stagewise_condition(self):
        out = p1_sr(staged(["00"]), "0")
        assert out.stages == (PrefixFreeSet(["0"]),)

    def test_disjoint_condition_empty(self):
        out = p1_sr(staged(["00"]), "1")
        assert out.final == PrefixFreeSet()

    def test_stagewise_union(self):
        out = p3_sr(staged(["00"]), staged(["11"]))
        assert out.final == PrefixFreeSet(["00", "11"])


class TestProviders:
    def test_factory(self):
        assert PROVIDERS == {"mlr": MLRProvider, "cr": CRProvider, "sr": SRProvider}

    def test_providers_share_one_face(self):
        for key, cls in PROVIDERS.items():
            assert dataclasses.is_dataclass(cls) and cls.case == key
            provider = cls()
            for name in ("initial", "p1", "p2", "p3"):
                assert callable(getattr(provider, name)), (key, name)

    def test_unknown_case_refused(self):
        rep, status = dispatch("main-lemma", {"case": "zfc", "w": {"elements": ["1"]},
                                              "stages": 1})
        assert status == 2
        assert rep["error"] == {"type": "ParseError", "message":
                                "bad parameter 'case': must be one of mlr, cr, sr"}

    def test_initial_states_are_empty(self):
        for cls in PROVIDERS.values():
            st = cls().initial()
            assert measure(st.generators) == 0

    def test_mlr_p3_p1_p2_chain(self):
        prov = MLRProvider()
        st = prov.initial()
        t = ml_test_toward_ones(5)
        n_e, st2 = prov.p3(st, "", t)
        assert n_e == 1
        st3 = prov.p1(st2, "0")
        st4, rep2 = prov.p2(st3)
        assert rep2.passed

    def test_cr_provider_threads_strategy(self):
        prov = CRProvider(depth=6)
        st = prov.initial()
        t = TestFamily("ML", {n: winning_set(doubler(), Fraction(2 ** n), 6).generators
                              for n in range(1, 7)}, martingale=doubler())
        n_e, st2 = prov.p3(st, "", t)
        d, thr = st2.payload
        assert winning_set(d, thr, 6).generators == st2.generators


class TestProviderP3IsTheCertifiedConstruction:
    """Each provider's p3 builds the set its case's certified P3 step builds,
    with the same n_e, and no certificate."""

    @pytest.mark.parametrize("k", [None, 1, 2])
    def test_mlr(self, k):
        rng = Random(23)
        t = ml_test_toward_ones(8)
        done = 0
        while done < 15:
            u = random_prefix_free(rng, maxlen=4, count=3)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            m = measure(condition(u, sigma))
            if m >= 1 - Fraction(1, 2 ** (k or 1)):
                continue
            n_e, state = MLRProvider(k=k).p3(ProviderState(u), sigma, t)
            kk = k or next(j for j in range(1, 9) if m < 1 - Fraction(1, 2 ** j))
            assert (n_e, state.generators) == p3_mlr(u, sigma, kk, t)[:2]
            assert state.payload is None
            done += 1

    def test_cr(self):
        rng = Random(29)
        done = 0
        while done < 10:
            d = random_fair_strategy(rng, 5, positive=True)
            d_e = random_fair_strategy(rng, 5, positive=True)
            q = Fraction(rng.randint(9, 14), 8)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
            try:
                want_n, want, rep = p3_cr(d, q, sigma, d_e, 5, cap=8)
            except (AlreadyWon, SearchExhausted):
                continue
            test = TestFamily("ML", {}, martingale=d_e)
            state = ProviderState(winning_set(d, q, 5).generators, payload=(d, q))
            n_e, got = CRProvider(depth=5, cap=8).p3(state, sigma, test)
            assert n_e == want_n and got.generators == want.generators
            big, threshold = got.payload
            assert threshold == want.threshold
            assert winning_set(big, threshold, 5).generators == want.generators
            done += 1

    @pytest.mark.parametrize("k", [None, 1, 2])
    def test_sr(self, k):
        t = ml_test_toward_ones(8)
        for final, sigma in [(["00"], ""), (["011", "10"], "0"), ([], "11"), (["0"], "1")]:
            u = staged(final)
            n_e, state = SRProvider(k=k).p3(ProviderState(u.final, payload=u), sigma, t)
            m = measure(condition(u.final, sigma))
            kk = k or next(j for j in range(1, 9) if m < 1 - Fraction(1, 2 ** j))
            assert n_e == len(sigma) + kk
            want = p3_sr(u, StagedOpenSet((t.level(n_e),)))
            assert state.payload == want and state.generators == want.final


class TestWalkedSearches:
    """The searches that walk U's trie against the old searches over every
    string to the depth, kept as oracles in tests/util.py."""

    @given(prefix_free, st.integers(1, 7))
    def test_p2_mlr_matches_enumeration(self, u, i):
        mu = measure(u)
        assume(mu < 1)
        q = mu + (1 - mu) * Fraction(i, 8)
        v, rep = p2_mlr(u, q)
        want, full_ok = enum_p2_mlr(u, q)
        assert v.elements == want.elements
        assert full_verdict(rep) == full_ok

    @given(prefix_free, st.randoms(use_true_random=False), st.integers(1, 3),
           st.integers(0, 8))
    def test_p2_sr_matches_enumeration(self, final, rng, k, depth):
        assume(measure(final) < 1 - Fraction(1, 2 ** k))
        elems = list(final.elements)
        rng.shuffle(elems)
        cuts = sorted(rng.sample(range(len(elems) + 1), min(3, len(elems) + 1)))
        u = StagedOpenSet([reduce(elems[:c]) for c in cuts] + [final])
        v, rep = p2_sr(u, k, depth)
        want, full_ok = enum_p2_sr(u, k, depth)
        assert v.elements == want.elements
        assert full_verdict(rep) == full_ok

    @given(prefix_free, st.text(alphabet="01", max_size=3),
           st.text(alphabet="01", min_size=1, max_size=3),
           st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)]),
           st.integers(-1, 8))
    def test_cr_p2_matches_enumeration(self, u, head, period, q, depth):
        prov = CRProvider(depth=depth)
        state = ProviderState(u, payload=(PointDoubler(PeriodicPoint(head, period)), q))
        got, rep = prov.p2(state)
        assert got is state
        assert rep.to_doc() == enum_cr_p2(prov, state).to_doc()

    @pytest.mark.parametrize("job", [
        {"case": "mlr", "set": {"elements": ["0" * 160]}, "q": "1/2"},
        {"case": "sr", "staged": {"stages": [{"elements": ["0" * 160]}]},
         "k": 1, "depth": 160},
    ])
    def test_p2_on_a_long_generator(self, job):
        # A search over all 2^161 strings to the depth fails here, within a second.
        with time_limit(1.0, f"p2 --case {job['case']} on a generator of length 160"):
            rep, status = dispatch("p2", job)
            rep = to_doc(rep)
        assert status == 0 and rep["result"] == "PASS"
        assert rep["output"]["set"] == {"elements": ["0" * 160]}
        assert {c["check"]: c["result"] for c in rep["checks"]}[
            "full cylinders within depth covered"] == "PASS"
