"""Allocator, machines, complexity, and the dyadic series plumbing."""

from fractions import Fraction
from random import Random

import pytest

from cantorlab.cli import dispatch
from cantorlab.coding import (
    DyadicFunction,
    KCRequestList,
    Machine,
    aggregate_pairs,
    ceil_log2,
    complexity,
    flatten_staged,
    g_to_machine,
    kc_build,
    machine_to_f,
    normalize_sum,
)
from cantorlab.errors import (
    AllocationFailed,
    NonMonotone,
    NTooSmall,
    SumMismatch,
    WeightOverflow,
)
from cantorlab.pairing import cantor_pair
from cantorlab.serialize import to_doc

from util import time_limit


class TestKCBuild:
    def test_leftmost_allocation(self):
        m = kc_build([(1, "0"), (2, "00"), (2, "01")])
        assert list(m.table) == ["0", "10", "11"]

    def test_empty(self):
        assert len(kc_build([])) == 0

    def test_overflow(self):
        with pytest.raises(WeightOverflow):
            KCRequestList([(1, "0"), (1, "1"), (1, "00")])

    @pytest.mark.parametrize("k", [1.5, "2", True, None])
    def test_code_lengths_are_integers(self, k):
        """A length that is not an int is refused, not coerced: 1.5 once
        built Machine({'0': '0'}) and "2" was read as 2."""
        with pytest.raises(ValueError, match="is not an integer"):
            kc_build([(k, "0")])

    def test_failed_fit_is_a_named_error(self):
        # A request list whose weight check was bypassed: the allocator
        # itself must still refuse, with or without python -O.
        reqs = KCRequestList([])
        reqs.requests = ((0, "0"), (1, "1"))
        with pytest.raises(AllocationFailed):
            kc_build(reqs)

    def test_out_of_order_sizes(self):
        m = kc_build([(2, "0"), (1, "1"), (2, "00")])
        assert m.domain_measure == Fraction(1)
        # 00 allocated first; the length-1 request skips fragment 01 for 1;
        # the last request takes the skipped fragment.
        assert m.table == {"1": "1", "00": "0", "01": "00"}

    def test_random_admissible_battery(self):
        rng = Random(101)
        for _ in range(80):
            lengths = []
            budget = Fraction(1)
            for _ in range(rng.randint(0, 20)):
                k = rng.randint(1, 10)
                if Fraction(1, 2 ** k) <= budget:
                    lengths.append(k)
                    budget -= Fraction(1, 2 ** k)
            reqs = KCRequestList([(k, format(i, "b").replace("1", "1"))
                                  for i, k in enumerate(lengths)])
            m = kc_build(reqs)
            # Machine() validated prefix-freeness; weights and lengths exact:
            assert m.domain_measure == reqs.weight
            assert sorted(len(p) for p in m.table) == sorted(lengths)


class TestComplexity:
    def test_lookup(self):
        m = kc_build([(1, "0"), (2, "00"), (2, "01")])
        assert complexity(m, "0") == 1
        assert complexity(m, "00") == 2
        assert complexity(m, "111") is None

    def test_min_of_duplicates(self):
        m = Machine({"000": "1", "00100": "1"})
        assert complexity(m, "1") == 3


class TestMachineToF:
    def test_single_program(self):
        f, rep = machine_to_f(Machine({"0": "1"}))
        assert f("1") == Fraction(1, 2) and f.sum == Fraction(1, 2)
        assert rep.passed

    def test_duplicate_target_counts_once(self):
        f, rep = machine_to_f(Machine({"0": "1", "10": "1"}))
        assert f("1") == Fraction(1, 2)
        assert f.sum == Fraction(1, 2)
        assert rep.data["domain_measure"] == Fraction(3, 4)
        assert rep.passed

    def test_empty(self):
        f, _ = machine_to_f(Machine({}))
        assert len(f) == 0

    def test_roundtrip_with_allocator(self):
        reqs = [(3, "0"), (5, "0"), (2, "11")]
        f, _ = machine_to_f(kc_build(reqs))
        assert f("0") == Fraction(1, 8)
        assert f("11") == Fraction(1, 4)


class TestCeilLog2:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(1), 0),
        (Fraction(2), 1),
        (Fraction(3), 2),
        (Fraction(4), 2),
        (Fraction(1, 2), -1),
        (Fraction(3, 8), -1),
        (Fraction(5, 8), 0),
    ])
    def test_values(self, value, expected):
        assert ceil_log2(value) == expected
        if expected is not None:
            assert Fraction(2) ** expected >= value
            assert Fraction(2) ** (expected - 1) < value


class TestGToMachine:
    def test_half_at_zero_constant(self):
        g = DyadicFunction({"0": Fraction(1, 2)})
        m, rep = g_to_machine(g, 0)
        assert complexity(m, "0") == 2
        assert rep.passed

    def test_zero_function(self):
        m, rep = g_to_machine(DyadicFunction({}), 0)
        assert len(m) == 0 and rep.passed

    def test_two_quarters(self):
        g = DyadicFunction({"0": Fraction(1, 4), "1": Fraction(1, 4)})
        m, rep = g_to_machine(g, 0)
        assert complexity(m, "0") == 3 and complexity(m, "1") == 3
        assert rep.data["request_weight"] == Fraction(1, 4)
        assert rep.passed

    def test_overflow_suggests_bigger_constant(self):
        g = DyadicFunction({"0": 1, "1": 1, "00": 1})
        with pytest.raises(WeightOverflow):
            g_to_machine(g, 0)
        m, rep = g_to_machine(g, 2)
        assert rep.passed

    def test_bound_on_random_dyadics(self):
        rng = Random(77)
        for _ in range(30):
            entries = {}
            for i in range(rng.randint(1, 8)):
                t = rng.randint(0, 6)
                entries[format(i, "03b")] = Fraction(rng.randint(1, 2 ** t), 2 ** t)
            g = DyadicFunction(entries)
            c = max(0, ceil_log2(g.sum))
            m, rep = g_to_machine(g, c)
            assert rep.passed
            for sigma, v in g.entries:
                assert complexity(m, sigma) <= ceil_log2(1 / v) + c + 1


class TestDyadicFunction:
    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            DyadicFunction({0: Fraction(1, 3)})

    def test_rejects_mixed_keys(self):
        with pytest.raises(ValueError):
            DyadicFunction({0: Fraction(1, 2), "0": Fraction(1, 2)})

    def test_zero_entries_dropped(self):
        f = DyadicFunction({0: Fraction(0), 1: Fraction(1, 2)})
        assert f.support() == [1]

    def test_declared_sum_is_checked(self):
        """A sum given with the values must be theirs; its wire key is
        checked the same way, and the error names both sums."""
        values = {"0": Fraction(1, 2), "10": Fraction(1, 4)}
        assert DyadicFunction(values, sum=Fraction(3, 4)).sum == Fraction(3, 4)
        with pytest.raises(ValueError, match="declared sum 3 != sum of the values 3/4"):
            DyadicFunction(values, sum=Fraction(3))
        rep, status = dispatch("g-to-machine", {"g": {"values": [["0", "1/2"]], "sum": "3"},
                                                "c": 0})
        assert status == 2 and rep["error"] == {
            "type": "ParseError", "message": "declared sum 3 != sum of the values 1/2"}
        rep, status = dispatch("g-to-machine", {"g": {"values": [["0", "1/2"]],
                                                      "sum": "1/2"}, "c": 0})
        assert status == 0


class TestFlatten:
    def test_increase_sequence(self):
        stages = [DyadicFunction({}), DyadicFunction({5: Fraction(1, 4)}),
                  DyadicFunction({5: Fraction(1, 2)})]
        flat = flatten_staged(stages)
        assert sorted(v for _, v in flat.entries) == [Fraction(1, 4), Fraction(1, 4)]
        assert flat.sum == Fraction(1, 2)

    def test_constant_stages_single_entry(self):
        stages = [DyadicFunction({0: Fraction(1, 8), 3: Fraction(1, 2)})] * 3
        flat = flatten_staged(stages)
        assert len(flat) == 2

    def test_empty(self):
        assert len(flatten_staged([])) == 0

    def test_non_monotone(self):
        with pytest.raises(NonMonotone):
            flatten_staged([DyadicFunction({0: Fraction(1, 2)}),
                            DyadicFunction({0: Fraction(1, 4)})])

    def test_sum_mismatch_is_a_named_error(self):
        # A last stage whose declared sum was altered after validation.
        last = DyadicFunction({0: Fraction(1, 2)})
        last.sum = Fraction(3, 4)
        with pytest.raises(SumMismatch):
            flatten_staged([DyadicFunction({0: Fraction(1, 4)}), last])

    def test_repeated_key_reads_its_first_entry(self):
        # As st(0) does: 1/4, not 1/2, so the stages do not decrease.
        stages = [DyadicFunction([(0, Fraction(1, 4)), (0, Fraction(1, 2))]),
                  DyadicFunction({0: Fraction(1, 4)})]
        assert flatten_staged(stages).sum == Fraction(1, 4)

    def test_stages_are_read_once(self):
        """8,000 keys over 5 stages: one lookup per key and stage, not a
        scan of the stage's entries (about 4 s that way)."""
        stages = [DyadicFunction({i: Fraction(t + 1, 64) for i in range(8000)})
                  for t in range(5)]
        with time_limit(2.0, "flatten of 8,000 keys over 5 stages"):
            flat = flatten_staged(stages)
        assert len(flat) == 40000 and flat.sum == stages[-1].sum

    def test_aggregate_inverts(self):
        rng = Random(9)
        for _ in range(20):
            final = {i: Fraction(rng.randint(0, 8), 8) for i in range(rng.randint(1, 5))}
            cuts = sorted(rng.random() for _ in range(2))
            stages = [
                DyadicFunction({i: v * Fraction(j, 4) for i, v in final.items()})
                for j in (1, 2, 4)
            ]
            del cuts
            flat = flatten_staged(stages)
            back = aggregate_pairs(flat)
            assert back == stages[-1]
            assert flat.sum == stages[-1].sum

    def test_aggregate_of_a_huge_key(self):
        # Walking up the antidiagonals to this key would take about 10^20 steps.
        job = {"aggregate": {"values": [[cantor_pair(10**40, 3), "1/2"]]}}
        with time_limit(1.0, "flatten of an aggregate key near 10^80"):
            rep, status = dispatch("flatten", job)
        assert status == 0
        assert to_doc(rep)["output"]["g"]["values"] == [[10**40, "1/2"]]


class TestNormalize:
    def test_bump_first(self):
        f = DyadicFunction({0: Fraction(1, 4), 1: Fraction(1, 8)})
        out = normalize_sum(f, 1)
        assert out(0) == Fraction(7, 8) and out(1) == Fraction(1, 8)
        assert out.sum == 1

    def test_already_exact(self):
        f = DyadicFunction({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert normalize_sum(f, 1) == f

    def test_zero_function(self):
        out = normalize_sum(DyadicFunction({}), 1)
        assert out(0) == 1

    def test_too_small(self):
        with pytest.raises(NTooSmall):
            normalize_sum(DyadicFunction({0: Fraction(3, 2)}), 1)

    def test_domination_transfers(self):
        f = DyadicFunction({0: Fraction(1, 4), 2: Fraction(1, 4)})
        out = normalize_sum(f, 2)
        assert all(out(k) >= f(k) for k in f.support())
