"""Finite-extension construction: golden traces, escape dichotomy, tampering."""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cantorlab import closure
from cantorlab.cli import dispatch
from cantorlab.closure import CRProvider, MLRProvider, SRProvider
from cantorlab.covers import TestFamily, power_test
from cantorlab.diagonal import DiagonalTrace, TraceStage, run, verify_trace
from cantorlab.errors import MissingLevel, NoEscape
from cantorlab.martingales import winning_set
from cantorlab.reports import Report, dumps
from cantorlab.serialize import to_doc
from cantorlab.space import PrefixFreeSet, condition, covers, measure, reduce

from util import doubler, random_prefix_free


def ml_toward_zeros(n_max: int) -> TestFamily:
    return TestFamily("ML", {n: PrefixFreeSet(["0" * n]) for n in range(n_max + 1)})


def schnorr_toward_zeros(n_max: int) -> TestFamily:
    return TestFamily("Schnorr", {n: PrefixFreeSet(["0" * n]) for n in range(n_max + 1)})


def cr_induced_from_doubler(n_max: int, depth: int) -> TestFamily:
    levels = {n: winning_set(doubler(), Fraction(2 ** n), depth).generators
              for n in range(1, n_max + 1)}
    return TestFamily("ML", levels, martingale=doubler())


class TestGoldenRuns:
    def test_mlr_two_stages(self):
        w = PrefixFreeSet(["1"])
        trace, rep = run(w, MLRProvider(q=Fraction(3, 4), k=1),
                         [ml_toward_zeros(6), ml_toward_zeros(6)], 2)
        assert trace.final_sigma == "11"
        assert rep.passed
        assert [s.n_e for s in trace.stages[:-1]] == [1, 2]

    def test_sr_two_stages(self):
        w = PrefixFreeSet(["1"])
        trace, rep = run(w, SRProvider(k=1),
                         [schnorr_toward_zeros(8), schnorr_toward_zeros(8)], 2)
        assert trace.final_sigma == "11"
        assert rep.passed

    def test_cr_two_stages(self):
        w = PrefixFreeSet(["1"])
        tests = [cr_induced_from_doubler(8, 8), cr_induced_from_doubler(8, 8)]
        trace, rep = run(w, CRProvider(depth=8), tests, 2)
        assert trace.final_sigma == "11"
        assert rep.passed

    def test_full_w_always_escapes(self):
        w = PrefixFreeSet(["0", "1"])
        trace, rep = run(w, MLRProvider(), [ml_toward_zeros(8)], 1)
        assert rep.passed
        assert len(trace.final_sigma) == 1

    def test_deterministic_byte_identical(self):
        w = PrefixFreeSet(["1"])
        docs = []
        for _ in range(2):
            trace, rep = run(w, MLRProvider(q=Fraction(3, 4), k=1),
                             [ml_toward_zeros(6)], 3)
            docs.append(dumps({"trace": to_doc(trace), "report": rep.to_doc()}))
        assert docs[0] == docs[1]


def test_cr_stage_runs_one_search_and_no_certificate(monkeypatch):
    """A CR stage searches one winning set, that of the mixture it keeps, and
    builds no P3 certificate: verify_trace certifies the finished trace."""
    searches, titles = [], []
    search = closure.winning_set
    monkeypatch.setattr(closure, "winning_set",
                        lambda *args: searches.append(args) or search(*args))
    init = Report.__init__
    monkeypatch.setattr(Report, "__init__",
                        lambda self, title: titles.append(title) or init(self, title))
    tests = [cr_induced_from_doubler(8, 8)] * 3
    trace, rep = run(PrefixFreeSet(["1"]), CRProvider(depth=8), tests, 3)
    assert rep.passed and trace.final_sigma == "111"
    assert len(searches) == 3
    assert not [t for t in titles if t.startswith("p3-")]


def covering_zeros() -> TestFamily:
    return TestFamily("ML", {1: PrefixFreeSet(["0"])})


class TestNoEscape:
    @pytest.mark.parametrize("provider,test,stages,stage", [
        (MLRProvider(k=1), covering_zeros, 1, 0),
        (SRProvider(), covering_zeros, 1, 0),
        # Stage 0 escapes by tau = 0; at stage 1 the doubler mixed in at
        # stage 0 wins on all of [00], so no word of W escapes after sigma = 0.
        (CRProvider(depth=8), lambda: cr_induced_from_doubler(6, 6), 2, 1),
    ], ids=["mlr", "sr", "cr"])
    def test_covered_w_yields_certificate(self, provider, test, stages, stage):
        """W = {0} inside the first test's level: the run ends in the
        contradiction branch, whose certificate covers W by a member of the
        provider's class."""
        w = PrefixFreeSet(["0"])
        with pytest.raises(NoEscape) as err:
            run(w, provider, [test()], stages)
        assert err.value.stage == stage
        cert = err.value.certificate
        assert cert.passed
        assert covers(cert.data["covering_generators"], w)

    def test_escape_dichotomy(self):
        # With W = {0,1}, mu(V|sigma) < 1 forces an escaping child exactly
        # because the conditional measure averages over the two children.
        rng = Random(71)
        for _ in range(50):
            v = random_prefix_free(rng, maxlen=5, count=6)
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            m = measure(condition(v, sigma))
            m0 = measure(condition(v, sigma + "0"))
            m1 = measure(condition(v, sigma + "1"))
            assert m == (m0 + m1) / 2
            if m < 1:
                assert m0 < 1 or m1 < 1


words = st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=1, max_size=4)


class TestAgainstPowerTests:
    """The construction against generalized tests, as power_test builds them
    from a single cover U with 0 < mu(U) < 1.  A run ends in one of three
    ways: a trace verify_trace passes, a NoEscape whose certificate covers
    W, or a MissingLevel naming the bound no level of a test meets."""

    @staticmethod
    def outcome(w, provider, tests, stages):
        try:
            trace, rep = run(w, provider, tests, stages)
        except NoEscape as err:
            assert err.certificate.passed
            assert covers(err.certificate.data["covering_generators"], w)
            return "no-escape"
        except MissingLevel as err:
            bound = Fraction(re.fullmatch(r"test has no level with bound <= (\S+)",
                                          str(err))[1])
            assert any(min(t.bounds.values()) > bound for t in tests)
            return "missing-level"
        assert rep.passed and verify_trace(trace, w, tests).passed
        return "trace"

    @pytest.mark.parametrize("provider", [MLRProvider(), SRProvider()], ids=["mlr", "sr"])
    @given(words, words, st.lists(st.integers(1, 5), min_size=1, max_size=3),
           st.integers(1, 4))
    @example(["0"], ["1"], [3], 2)
    @example(["11"], ["1"], [4], 4)
    @example(["0"], ["1"], [2, 2, 2], 3)
    def test_every_run_ends_certified(self, provider, u, w, levels, stages):
        u, w = reduce(u), reduce(w)
        assume(measure(u) < 1)
        self.outcome(w, provider, [power_test(u, n) for n in levels], stages)

    @pytest.mark.parametrize("case", ["mlr", "sr"])
    @pytest.mark.parametrize("u,levels,stages,want,status", [
        (["0"], [3], 2, "trace", 0),
        (["11"], [4], 4, "no-escape", 0),
        (["0"], [2, 2, 2], 3, "missing-level", 2),
    ])
    def test_main_lemma(self, case, u, levels, stages, want, status):
        """The three outcomes as main-lemma reports them: a passing trace or
        certificate exits 0, and MissingLevel exits 2 with its bound."""
        w, tests = PrefixFreeSet(["1"]), [power_test(PrefixFreeSet(u), n) for n in levels]
        provider = closure.PROVIDERS[case]()
        assert self.outcome(w, provider, tests, stages) == want
        rep, got = dispatch("main-lemma", {"case": case, "w": to_doc(w), "stages": stages,
                                           "tests": [to_doc(t) for t in tests]})
        assert got == status
        if want == "missing-level":
            assert rep["error"] == {"type": "MissingLevel",
                                    "message": "test has no level with bound <= 1/8"}
        else:
            assert rep["result"] == "PASS" and rep["output"]["outcome"] == want


class TestVerifyTrace:
    def fixture(self):
        w = PrefixFreeSet(["1"])
        trace, _ = run(w, MLRProvider(q=Fraction(3, 4), k=1),
                       [ml_toward_zeros(6), ml_toward_zeros(6)], 2)
        return w, trace

    def test_rerun_passes(self):
        w, trace = self.fixture()
        assert verify_trace(trace, w, [ml_toward_zeros(6), ml_toward_zeros(6)]).passed

    def test_foreign_tau_flagged(self):
        w, trace = self.fixture()
        bad = list(trace.stages)
        s0 = bad[0]
        bad[0] = TraceStage(s0.index, s0.sigma, s0.set, s0.n_e, "0")
        tampered = DiagonalTrace(trace.case, tuple(bad))
        rep = verify_trace(tampered, w, [ml_toward_zeros(6)])
        assert not rep.passed

    def test_monotonicity_violation_flagged(self):
        w, trace = self.fixture()
        bad = list(trace.stages)
        last = bad[-1]
        bad[-1] = TraceStage(last.index, last.sigma, PrefixFreeSet(["0101"]),
                             last.n_e, last.tau)
        tampered = DiagonalTrace(trace.case, tuple(bad))
        rep = verify_trace(tampered, w, [ml_toward_zeros(6)])
        assert not rep.passed

    def test_stage_index_is_its_position(self):
        """Stage e is recorded as stage e: another index is refused, and so
        is a run of a negative number of stages."""
        w, trace = self.fixture()
        for e, rec in enumerate(trace.stages):
            moved = TraceStage(e + 1, rec.sigma, rec.set, rec.n_e, rec.tau)
            stages = (*trace.stages[:e], moved, *trace.stages[e + 1:])
            with pytest.raises(ValueError, match=f"stage {e} is recorded as stage {e + 1}"):
                DiagonalTrace(trace.case, stages)
        with pytest.raises(ValueError, match="negative stage count"):
            run(w, MLRProvider(q=Fraction(3, 4), k=1), [], -1)

    def test_forged_indices_do_not_dodge_the_tests(self):
        """Recorded as stages 7 and 8, a trace's first stage would be checked
        against no test and pass; it is a ParseError.  Recorded as 0 and 1,
        the same trace fails the capture of the test's level."""
        stages = [{"index": 7, "sigma": "", "set": {"elements": []}, "n_e": 1, "tau": "0"},
                  {"index": 8, "sigma": "0", "set": {"elements": []}, "n_e": None,
                   "tau": None}]
        job = {"trace": {"case": "mlr", "stages": stages}, "w": {"elements": ["0", "1"]},
               "tests": [{"kind": "ML", "levels": {"1": {"elements": ["1"]}}}]}
        rep, status = dispatch("verify-trace", job)
        assert status == 2 and rep["error"] == {
            "type": "ParseError", "message": "stage 0 is recorded as stage 7"}
        stages[0]["index"], stages[1]["index"] = 0, 1
        rep, status = dispatch("verify-trace", job)
        failed = [c.name for c in rep["checks"] if not c.passed]
        assert status == 1 and failed == ["stage 0: U_1 captures test level n_e=1"]
