"""The trie set kernel against the scan oracles of tests/util.py.

Every kernel operation must give the same generators, in the same
length-lex order, as the list scans it replaced; the pinned-set
operations likewise against the generator walk and the integer-unit scan,
and the trie walk against the enumeration of every string.
"""

import ast
import gc
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlab.series import b_set, encode_series
from cantorlab.space import (
    EMPTY_SET,
    PeriodicPoint,
    PrefixFreeSet,
    StagedOpenSet,
    _same,
    condition,
    covers,
    covers_pinned,
    factor,
    lenlex_key,
    measure,
    member,
    pinned_union,
    power,
    powers,
    reduce,
    tails,
    union,
    walk,
)

from util import (
    all_strings,
    flagged_construction,
    flagged_reduce,
    list_power,
    list_union,
    scan_condition,
    scan_covered_by,
    scan_covers,
    scan_factor,
    scan_measure,
    scan_member,
    scan_tails,
    tail_lists,
    time_limit,
    walk_union_generators,
)

bits = st.text(alphabet="01", min_size=0, max_size=7)
prefix_free = st.lists(bits, max_size=10).map(reduce)
points = st.builds(PeriodicPoint, bits, st.text(alphabet="01", min_size=1, max_size=4))
# Membership probes beyond bits: strings longer than any generator, so
# often running past one, and strings with characters other than 0 and 1.
probes = st.text(alphabet="01", min_size=8, max_size=12) | st.text(alphabet="01a2 \n", max_size=8)
terms = st.lists(
    st.dictionaries(st.integers(0, 9), st.sampled_from("01"), max_size=4)
    .map(lambda pins: list(pins.items())),
    max_size=4)


def rebuilt(u):
    """The same set built from its strings, so its trie is built afresh."""
    return PrefixFreeSet(list(u.elements)[::-1])


def chain_terms(m, *more):
    """Pinned terms whose generators share the m-bit prefix (01)^(m/2):
    their trie is a run of m one-child nodes above a node with two
    children.  Each pin list of `more` is one more term, its positions
    counted from the end of the prefix."""
    stem = [(i, "01"[i % 2]) for i in range(m)]
    words = [list(enumerate(w)) for w in ("0", "10", "111")]
    return [stem + [(m + i, b) for i, b in pins] for pins in (*words, *more)]


# A term after the chain with 512 generators of its own.
WIDE = [(0, "1"), (1, "1"), (2, "0"), (12, "1")]


def many_terms(d):
    """d + 2 pinned terms whose union has 2^(d + 1) generators."""
    return [[(i, "1"), (d, "0")] for i in range(d)] + [[(d, "1")], [(0, "0"), (d + 1, "1")]]


# Sets on both sides of the whole-text threshold of the listing (256
# generators): powers of a four-generator set, a union of 512 words and
# many-term pinned unions; the examples add the trie ends EMPTY, LEAF and a
# lone tail.
FOUR = PrefixFreeSet(["00", "01", "10", "110"])
NINE_BITS = PrefixFreeSet(format(i, "09b") for i in range(512))


def same_set(got, want):
    assert got.lines() == "\n".join(want.elements)
    assert got.elements == want.elements
    assert len(got) == len(want)
    assert got.maxlen == max((len(s) for s in want.elements), default=0)
    assert measure(got) == scan_measure(want)
    assert got == want and hash(got) == hash(want)


class TestAgainstScans:
    @given(prefix_free)
    def test_elements_len_maxlen_measure(self, u):
        assert list(u.elements) == sorted(u.elements, key=lenlex_key)
        same_set(PrefixFreeSet.from_trie(u.trie()), u)

    @given(prefix_free, bits)
    def test_condition(self, u, sigma):
        same_set(condition(u, sigma), scan_condition(u, sigma))

    @given(prefix_free, prefix_free)
    def test_covers(self, v, u):
        assert covers(v, u) == scan_covers(v, u)

    @given(prefix_free, points)
    def test_member(self, u, x):
        assert member(u, x) == scan_member(u, x)

    @given(prefix_free, points)
    @example(EMPTY_SET, PeriodicPoint("", "0"))
    @example(PrefixFreeSet([""]), PeriodicPoint("1", "0"))
    @example(PrefixFreeSet(["0110", "01111"]), PeriodicPoint("011", "1"))
    def test_factor(self, u, x):
        assert factor(u, x) == scan_factor(u, x)

    @given(bits, st.text(alphabet="01", min_size=1, max_size=3), st.integers(1, 3),
           st.integers(0, 9))
    @example("", "0", 1, 0)
    @example("1", "10", 2, 3)
    @example("0110", "0110", 3, 9)
    def test_tails(self, head, period, reps, absorbable):
        """Periods repeated `reps` times are not primitive, and a head ending
        in the last `absorbable` bits of the period can be shortened."""
        period *= reps
        x = PeriodicPoint(head + period[len(period) - min(absorbable, len(period)):], period)
        assert tails(x) == scan_tails(x)

    @given(prefix_free, prefix_free)
    @example(EMPTY_SET, PrefixFreeSet())
    @example(PrefixFreeSet([""]), PrefixFreeSet(["0110"]))
    @example(PrefixFreeSet(["0110"]), EMPTY_SET)
    @example(NINE_BITS, PrefixFreeSet(["00000", "111111111"]))
    @example(power(FOUR, 4), PrefixFreeSet(["1111"]))
    @example(pinned_union(chain_terms(300)), PrefixFreeSet(["1"]))
    def test_union(self, u, v):
        same_set(union(u, v), list_union(u, v))
        same_set(union(rebuilt(u), v), list_union(u, v))

    @given(prefix_free, st.integers(0, 4))
    @settings(max_examples=60)
    @example(FOUR, 4)
    @example(FOUR, 5)
    @example(PrefixFreeSet(["0110"]), 3)
    def test_power(self, u, n):
        if "" in u and n >= 2:
            return
        if len(u) ** n > 4096:
            n = 1
        same_set(power(u, n), list_power(u, n))
        for k, level in enumerate(powers(u, n), start=1):
            same_set(level, list_power(u, k))

    @given(prefix_free, prefix_free, bits)
    def test_count(self, u, v, sigma):
        """count is the generator count of a set built from strings and of
        one a kernel operation built, and reading it lists nothing."""
        for w in (u, PrefixFreeSet.from_trie(u.trie()), union(u, v), condition(u, sigma)):
            listed = w._elements is not None
            count = w.count
            assert (w._elements is not None) == listed
            assert count == len(w) == len(w.elements)

    @given(prefix_free, bits | probes)
    def test_contains(self, u, s):
        assert (s in u) == (s in set(u.elements))

    @given(terms, prefix_free)
    def test_covered_by(self, ts, w):
        for pins in ts:
            assert covers_pinned(w, pins) == scan_covered_by(pins, w)

    @given(terms)
    @example([])
    @example([[]])
    @example([list(enumerate("0110"))])
    @example(many_terms(6))
    @example(many_terms(9))
    @example(chain_terms(300, WIDE))
    def test_union_generators(self, ts):
        got = pinned_union(ts)
        want = PrefixFreeSet(walk_union_generators(ts))
        same_set(got, want)
        for pins in ts:
            assert covers_pinned(got, pins) == scan_covered_by(pins, want)

    @given(prefix_free, st.integers(-1, 9))
    def test_walk(self, u, depth):
        want = [(s, measure(condition(u, s))) for s in all_strings(max(depth, 0))]
        assert list(walk(u, depth)) == [(s, m) for s, m in want if m > 0]

    @given(prefix_free, st.integers(0, 9), st.sampled_from(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    def test_walk_stops(self, u, depth, q):
        """Stopped where mu >= q, the walk yields the strings [U] meets with
        no proper prefix at or over q."""
        want = [(s, m) for s, m in walk(u, depth)
                if not any(measure(condition(u, s[:i])) >= q for i in range(len(s)))]
        assert list(walk(u, depth, lambda s, m: m >= q)) == want


short = st.text(alphabet="01", max_size=4)
odd = st.sampled_from([2, None, b"01", "2", "01x", "0 1", "\u00e9", "1\n0"])


@st.composite
def raw_strings(draw, with_odd=False):
    """String lists with duplicates, repeated extensions and "" in any
    order, and with with_odd, maybe one item that is not a bit string."""
    items = draw(st.lists(short, max_size=10))
    for i, tail in draw(st.lists(st.tuples(st.integers(0, 99), short), max_size=8)):
        if items:
            items.append(items[i % len(items)] + tail)
    if with_odd and draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(odd))
    return draw(st.permutations(items))


def outcome(build, strings):
    """The elements tuple, or the error's type and message."""
    try:
        got = build(strings)
    except Exception as err:
        return type(err), str(err)
    return got if type(got) is tuple else got.elements


def kernel_sets():
    """Sets kernel walks built, with shared subtries among them."""
    u = PrefixFreeSet(["00", "010", "1"])
    v = PrefixFreeSet(["0", "11"])
    pins = [[(0, "1"), (3, "0")], [(2, "1"), (5, "1")], [(4, "0")]]
    return [
        EMPTY_SET, PrefixFreeSet([""]), PrefixFreeSet(["0110"]),
        union(u, v), union(u, PrefixFreeSet(["0111"])), power(u, 3), power(v, 4),
        pinned_union(pins), pinned_union(pins[:1]), condition(power(u, 3), "0"),
        condition(u, "01"), condition(u, "1"), condition(u, "11"),
        b_set(0, Fraction(63, 64)), b_set(2, Fraction(5, 8)),
        power(FOUR, 4), power(FOUR, 5), pinned_union(many_terms(9)),
        pinned_union(chain_terms(300, WIDE)),
    ]


class TestStringSide:
    """Construction and listing give what the flag-list construction and
    the per-node tail lists gave, tuples, errors and messages alike."""

    @settings(max_examples=300)
    @given(raw_strings(with_odd=True))
    def test_construction(self, strings):
        assert outcome(PrefixFreeSet, strings) == outcome(flagged_construction, strings)

    @settings(max_examples=300)
    @given(raw_strings(with_odd=True))
    def test_reduce(self, strings):
        assert outcome(reduce, strings) == outcome(flagged_reduce, strings)

    def test_messages(self):
        assert outcome(PrefixFreeSet, ["1", "0", "01", "0"]) == (
            ValueError, "not prefix-free: '0' is a prefix of '01'")
        assert outcome(PrefixFreeSet, ["1", "1"]) == ("1",)
        assert outcome(PrefixFreeSet, ["0", 2, "x"]) == (ValueError, "not a bit string: 2")
        assert outcome(reduce, ["01", "", "0", ""]) == ("",)

    @pytest.mark.parametrize("u", kernel_sets())
    def test_listing(self, u):
        assert PrefixFreeSet.from_trie(u.trie()).elements == tail_lists(u.trie())

    @pytest.mark.parametrize("u", kernel_sets())
    def test_listing_joined_by_any_separator(self, u):
        """lines(sep) is sep.join(elements), from the strings a set was
        read from and from the trie walk alike."""
        t = PrefixFreeSet.from_trie(u.trie())
        for sep in ("\n", '",\n      "', "", "|"):
            assert t.lines(sep) == sep.join(u.elements) == u.lines(sep)
        assert t._elements is None

    @given(prefix_free, prefix_free, bits, st.integers(0, 3))
    def test_listing_of_walks(self, u, v, sigma, n):
        for w in (union(u, v), condition(union(u, v), sigma), power(u, n) if "" not in u else u):
            assert w.elements == tail_lists(w.trie())


class TestOneBuilder:
    """A set read from strings gets its trie from NodeTable.build by one
    bisect per position; pinned_union, one fully pinned term per word,
    builds the same trie by walking bit positions."""

    @settings(max_examples=300)
    @given(st.lists(bits, max_size=10).map(lambda ws: list(reduce(ws).elements)))
    @example([])
    @example([""])
    @example(["0110"])
    def test_same_trie_as_the_pinned_terms(self, words):
        got = PrefixFreeSet.from_trie(PrefixFreeSet(words[::-1]).trie())
        want = pinned_union([list(enumerate(w)) for w in words])
        assert _same(got.trie(), want.trie())
        assert (got.count, got.maxlen, measure(got)) == (want.count, want.maxlen, measure(want))

    def test_two_long_words_sharing_all_but_their_last_bit(self):
        u = PrefixFreeSet(["0" * 20000 + "1", "0" * 20000 + "0"])
        with time_limit(2, "trie of two 20,001-bit words"):
            u = PrefixFreeSet.from_trie(u.trie())
        assert (u.count, u.maxlen, measure(u)) == (2, 20001, Fraction(1, 2 ** 20000))


def random_words(count, seed=1):
    """count random bit strings of 30 to 45 bits, a few of them maybe
    extending others, in no order."""
    rng = Random(seed)
    return [format(rng.getrandbits(n), f"0{n}b") for n in
            (rng.randint(30, 45) for _ in range(count))]


@pytest.fixture(scope="module")
def big_words():
    return random_words(100_000)


class TestOneOrder:
    """A set built from strings keeps the lexicographic tuple it validated;
    its length-lex tuple is derived when read, and its measure, count and
    longest generator are read from the strings without a trie."""

    @settings(max_examples=300)
    @given(raw_strings())
    def test_listed_reads_agree_with_the_trie(self, strings):
        for build, flagged in ((PrefixFreeSet, flagged_construction), (reduce, flagged_reduce)):
            want = outcome(flagged, strings)
            if want and type(want[0]) is type:  # the error, which the set raises too
                continue
            u = build(strings)
            got = (u.count, u.maxlen, measure(u), hash(u))
            assert u._root is None and u._elements is None
            t = PrefixFreeSet.from_trie(u.trie())
            assert got == (t.count, t.maxlen, measure(t), hash(t))
            assert u.lines() == "\n".join(want) and u.elements == want == t.elements

    def test_length_lex_tuple_made_when_read(self):
        u, v = PrefixFreeSet(["010", "1", "00"]), PrefixFreeSet(["1", "00", "010"])
        assert u == v and hash(u) == hash(v) and measure(u) == Fraction(7, 8)
        assert u in {v} and covers(u, v) and "00" in u and u.maxlen == 3
        assert u._elements is v._elements is None
        assert u.lines() == "1\n00\n010" and u._elements == ("1", "00", "010")
        assert v.elements == ("1", "00", "010") and reduce(["1", "10"])._elements is None

    def test_first_measure_of_a_large_listed_set(self, big_words):
        u = reduce(big_words)
        gc.collect()
        with time_limit(0.02, "first measure of a 100k-generator listed set"):
            mu = measure(u)
        assert u._root is None
        assert mu == measure(PrefixFreeSet.from_trie(u.trie()))

    def test_hash_maxlen_count_of_a_large_listed_set(self, big_words):
        u = reduce(big_words)
        got = (hash(u), u.maxlen, u.count)
        assert u._root is None
        t = PrefixFreeSet.from_trie(u.trie())
        assert got == (hash(t), t.maxlen, t.count)

    def test_equality_with_a_listed_kernel_result(self):
        words = random_words(2000, seed=2)
        half = len(words) // 2
        kernel = union(reduce(words[:half]), reduce(words[half:]))
        listed = kernel.elements
        strings = reduce(words[::-1])
        other = PrefixFreeSet(listed[1:] + ("1" * 50,))
        assert strings == kernel and kernel == strings and kernel != other
        assert strings._root is other._root is strings._elements is None


class TestSparseSets:
    def test_large_b_sets_without_listing(self):
        for n in range(4):
            u = b_set(n, Fraction(255, 256))
            assert measure(u) == Fraction(255, 256)
            assert len(u) > 10 ** 8
            assert u._elements is None

    def test_count_past_the_len_cap(self):
        """len() stops at 2^63 - 1; count is exact beyond it, unlisted."""
        with time_limit(1, "b_set(60, 3/4).count"):
            u = b_set(60, Fraction(3, 4))
            assert u.count > 2 ** 63 - 1
            assert u == b_set(60, Fraction(3, 4))
        assert u._elements is None
        with pytest.raises(OverflowError):
            len(u)

    def test_hash_without_listing(self):
        """The hash reads (count, maxlen), so a set too large to list hashes
        at once, and so does a staged set holding it."""
        u = b_set(0, Fraction(255, 256))
        with time_limit(1, "hash(b_set(0, 255/256))"):
            assert hash(u) == hash(b_set(0, Fraction(255, 256)))
            hash(StagedOpenSet([u]))
        assert u._elements is None

    def test_covers_follows_a_long_tail_in_one_step(self):
        """A 10,000-bit tail on either side of covers is not sliced bit by
        bit into a memo of every suffix (about 100 MB)."""
        p = "01" * 5000
        tail, pair = PrefixFreeSet([p]), PrefixFreeSet([p + "0", p + "1"])
        split = PrefixFreeSet([p + "0", "1"])
        cases = [(tail, tail, True), (tail, pair, True), (pair, tail, True),
                 (split, tail, False), (tail, split, False)]
        for v, u, want in cases:
            v.trie(), u.trie()  # built before the measured call
            tracemalloc.start()
            try:
                got = covers(v, u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 1 << 20, f"covers peaked at {peak} bytes"

    def test_equality_lists_neither_side(self):
        pair = union(PrefixFreeSet(["0"]), PrefixFreeSet(["1"]))
        assert pair == PrefixFreeSet(["0", "1"])
        assert pair._elements is None

    def test_equality_of_long_shared_prefixes(self):
        """Sets built apart that share a 20,000-bit prefix compare through
        one rebuild of both tries."""
        p = "01" * 10000

        def built(words):
            return PrefixFreeSet.from_trie(PrefixFreeSet(words).trie())

        u = built([p + "0", p + "11"])
        same, other = built([p + "11", p + "0"]), built([p + "0", p + "10"])
        with time_limit(1, "equality of sets sharing a 20,000-bit prefix"):
            assert u == same and u != other and same != other
        assert u._elements is same._elements is other._elements is None

    def test_listing_follows_a_long_chain_once(self):
        """Three generators behind a 10,000-bit shared prefix are listed
        with the prefix's bits joined once; a copy of the text at each of
        its 10,000 nodes takes over 80 ms."""
        u = pinned_union(chain_terms(10000))
        p = "01" * 5000
        with time_limit(0.025, "listing three generators behind a 10,000-bit prefix"):
            got = u.elements
        assert got == (p + "0", p + "10", p + "111")
        assert pinned_union(chain_terms(10000)).lines() == "\n".join(got)

    def test_sibling_pair_stays_two_generators(self):
        pair = union(PrefixFreeSet(["0"]), PrefixFreeSet(["1"]))
        assert pair.elements == ("0", "1") and measure(pair) == 1
        assert covers(pair, PrefixFreeSet([""]))

    def test_long_generators_need_no_deep_stack(self):
        deep = "0" * 3000
        u = PrefixFreeSet([deep + "0", deep + "1", "1"])
        assert union(u, PrefixFreeSet([deep])).elements == ("1", deep)
        assert len(power(u, 2)) == 9 and measure(power(u, 2)) == measure(u) ** 2
        assert condition(u, "0" * 10).elements == (deep[10:] + "0", deep[10:] + "1")
        assert covers(PrefixFreeSet(["0", "1"]), u) and not covers(u, PrefixFreeSet(["0"]))
        pins = [(3000, "0")]
        w = pinned_union([pins])
        assert measure(w) == Fraction(1, 2) and covers_pinned(w, pins)

    def test_union_meets_two_tails_in_one_step(self):
        """Two one-generator sets sharing an 8,000-bit prefix are joined by
        one common-prefix scan and one run of nodes; sliced bit by bit, the
        union took over 60 ms.  Collecting first keeps an earlier test's
        garbage out of the timed union."""
        p = "0" * 8000
        u, v = PrefixFreeSet([p + "0"]), PrefixFreeSet([p + "1"])
        u.trie(), v.trie()
        gc.collect()
        with time_limit(0.005, "union of two tails sharing 8,000 bits"):
            w = union(u, v)
        assert w.elements == (p + "0", p + "1") and measure(w) == Fraction(1, 2 ** 8000)
        assert union(u, PrefixFreeSet([p])).elements == (p,)
        assert union(PrefixFreeSet([p + "01"]), u).elements == (p + "0",)

    def test_construction_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            u = b_set(0, Fraction(63, 64))
            v, d, rep = encode_series([4, 3], 2)
            assert rep.passed and len(u) > 0 and len(v) > 0
            del u, v, d, rep
            assert gc.collect() == 0
        finally:
            gc.enable()


# Names of space.py that expose the trie behind a PrefixFreeSet.
TRIE_INTERNALS = {"NodeTable", "TrieNode", "Trie", "LEAF", "EMPTY", "kids", "is_full"}
# The enumeration of every string to a depth: only martingale tables, which
# need every string, use it; set searches go through the kernel's walk.
ENUMERATIONS = {"strings_to_depth"}
SRC = Path(__file__).resolve().parent.parent / "src" / "cantorlab"


def test_trie_code_stays_in_space():
    """Outside space.py no module imports or reads a trie internal, and
    none calls .trie() or from_trie: every clopen operation goes through
    the kernel's functions.  No module but martingales.py names
    strings_to_depth."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "space.py":
            continue
        hidden = TRIE_INTERNALS | (set() if path.name == "martingales.py" else ENUMERATIONS)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("space"):
                found += [f"{where} imports {a.name}" for a in node.names
                          if a.name in hidden or a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in hidden:
                found.append(f"{where} reads .{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("trie", "from_trie"):
                found.append(f"{where} calls .{node.func.attr}()")
    assert not found, found


def _calls_by_scope(tree):
    """(scope, call) for every call in a module: scope is the dotted name of
    the innermost def or class around the call, or at the top level the
    names an assignment binds."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Assign) and not scope:
                inner = ",".join(t.id for t in child.targets if isinstance(t, ast.Name))
            elif isinstance(child, ast.Call):
                yield scope, child
            stack.append((inner, child))


def test_equality_and_membership_reuse_the_kernel():
    """_same rebuilds through NodeTable.build and PrefixFreeSet.__contains__
    walks with _down: neither holds a loop of its own."""
    tree = ast.parse((SRC / "space.py").read_text())
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    contains = next(n for n in top["PrefixFreeSet"].body
                    if isinstance(n, ast.FunctionDef) and n.name == "__contains__")
    found = []
    for name, fn, needs in (("_same", top["_same"], "build"),
                            ("PrefixFreeSet.__contains__", contains, "_down")):
        inside = list(ast.walk(fn))
        found += [f"{name}:{n.lineno} loops" for n in inside
                  if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        called = {getattr(n.func, "attr", getattr(n.func, "id", None))
                  for n in inside if isinstance(n, ast.Call)}
        if needs not in called:
            found.append(f"{name} does not call {needs}")
    assert not found, found


def test_points_meet_sets_in_one_walk():
    """PrefixFreeSet.__contains__ calls _down exactly once; tails_to_power
    finds each block with space.factor and makes no `in` test; tails calls
    canonical outside any loop."""
    space = ast.parse((SRC / "space.py").read_text())
    top = {n.name: n for n in space.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    contains = next(n for n in top["PrefixFreeSet"].body
                    if isinstance(n, ast.FunctionDef) and n.name == "__contains__")
    covers = ast.parse((SRC / "covers.py").read_text())
    to_power = next(n for n in covers.body
                    if isinstance(n, ast.FunctionDef) and n.name == "tails_to_power")

    def calls(fn, name):
        return [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                and getattr(n.func, "attr", getattr(n.func, "id", None)) == name]

    found = []
    if len(calls(contains, "_down")) != 1:
        found.append("PrefixFreeSet.__contains__ does not call _down exactly once")
    if not any(isinstance(c.func, ast.Attribute) and getattr(c.func.value, "id", None) == "space"
               for c in calls(to_power, "factor")):
        found.append("tails_to_power does not call space.factor")
    found += [f"tails_to_power:{n.lineno} tests membership with in"
              for n in ast.walk(to_power) if isinstance(n, ast.Compare)
              and any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = {id(c) for n in ast.walk(top["tails"]) if isinstance(n, loops)
              for c in calls(n, "canonical")}
    canonical = calls(top["tails"], "canonical")
    if not canonical:
        found.append("tails does not call canonical")
    found += [f"tails:{c.lineno} calls canonical in a loop" for c in canonical if id(c) in looped]
    assert not found, found


def test_one_listing_walk():
    """space.py has no _listing; PrefixFreeSet.elements and lines both call
    _lines; serialize._write never reads .elements, so a report writes a
    set from its lines."""
    space = ast.parse((SRC / "space.py").read_text())
    top = {n.name: n for n in space.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    found = ["space.py defines _listing"] if "_listing" in top else []
    methods = {n.name: n for n in top["PrefixFreeSet"].body if isinstance(n, ast.FunctionDef)}
    for name in ("elements", "lines"):
        if not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_lines"
                   for n in ast.walk(methods[name])):
            found.append(f"PrefixFreeSet.{name} does not call _lines")
    serialize = ast.parse((SRC / "serialize.py").read_text())
    write = next(n for n in serialize.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_write")
    found += [f"serialize._write:{n.lineno} reads .elements" for n in ast.walk(write)
              if isinstance(n, ast.Attribute) and n.attr == "elements"]
    assert not found, found


def test_one_trie_builder():
    """In space.py only NodeTable.build calls NodeTable.node, and a TrieNode
    is made only by NodeTable.node and for LEAF and EMPTY: every trie, a
    string-built set's included, comes out of the one builder."""
    tree = ast.parse((SRC / "space.py").read_text())
    found = []
    for scope, call in _calls_by_scope(tree):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "node" and scope != "NodeTable.build":
            found.append(f"{scope}:{call.lineno} calls .node()")
        if isinstance(f, ast.Name) and f.id == "TrieNode" \
                and scope not in ("NodeTable.node", "LEAF", "EMPTY"):
            found.append(f"{scope}:{call.lineno} makes a TrieNode")
    assert not found, found


def test_one_order_kept():
    """PrefixFreeSet.__init__, _listed, reduce and trie make no sort by
    length, and trie no sort at all: only PrefixFreeSet.elements derives
    the length-lex order, from the lexicographic tuple a set validated."""
    tree = ast.parse((SRC / "space.py").read_text())
    found, derived = [], False
    for scope, call in _calls_by_scope(tree):
        if getattr(call.func, "attr", getattr(call.func, "id", None)) not in ("sort", "sorted"):
            continue
        by_length = any(k.arg == "key" and getattr(k.value, "id", None) in ("len", "lenlex_key")
                        for k in call.keywords)
        if scope == "PrefixFreeSet.trie":
            found.append(f"{scope}:{call.lineno} sorts")
        elif by_length and scope != "PrefixFreeSet.elements":
            found.append(f"{scope}:{call.lineno} sorts by length")
        derived |= by_length and scope == "PrefixFreeSet.elements"
    if not derived:
        found.append("PrefixFreeSet.elements does not sort by length")
    assert not found, found


# The functions that take the largest capital along a string by peak.
PEAK_USERS = {("closure.py", "_mix_cr"), ("series.py", "tree_embed")}


def _called(fn):
    """The calls under fn, each with the name or attribute it calls."""
    return [(n, getattr(n.func, "id", None) or getattr(n.func, "attr", None))
            for n in ast.walk(fn) if isinstance(n, ast.Call)]


def test_martingale_fast_path_stays_on_public_api():
    """No strategy's _compute or flat_beyond calls .value() or makes a
    Fraction: evaluation inside the library goes through the unchecked
    memo _at of integer pairs, and value checks its string and makes the
    Fraction at the public entry only.  closure._mix_cr and
    series.tree_embed take the largest capital along a string by peak, not
    by a max over .value().  No module reads a Fraction's _numerator or
    _denominator or passes _normalize, whose meaning differs between
    Python 3.10 and 3.13."""
    found = []
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in ("_compute", "flat_beyond"):
                found += [f"{path.name}:{n.lineno} {fn.name} calls {name}()"
                          for n, name in _called(fn) if name in ("value", "Fraction")]
            if (path.name, fn.name) in PEAK_USERS:
                seen.add((path.name, fn.name))
                calls = _called(fn)
                if all(name != "peak" for _, name in calls):
                    found.append(f"{path.name} {fn.name} does not call peak")
                found += [f"{path.name}:{n.lineno} {fn.name} takes a max over .value()"
                          for n, name in calls if name == "max"
                          and any(inner == "value" for _, inner in _called(n))]
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
                found.append(f"{where} reads .{node.attr}")
            elif isinstance(node, ast.keyword) and node.arg == "_normalize":
                found.append(f"{where} passes _normalize")
    assert seen == PEAK_USERS, seen
    assert not found, found
