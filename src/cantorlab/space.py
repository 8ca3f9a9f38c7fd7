"""Exact rational measure theory on finite cylinder algebras.

Points of Cantor space are infinite binary sequences; the only ones handled
here are eventually periodic (PeriodicPoint), which keeps every membership
and tail question finite.  Open sets are handled through finite prefix-free
generator sets (PrefixFreeSet); all measures are Fractions, never floats.

Bit strings are plain Python str over the alphabet {'0', '1'}; the empty
string is the root cylinder (the whole space).

Set kernel.  A PrefixFreeSet is backed by the binary trie of its
generators: a generator is a path from the root to a leaf.  Every trie,
a string-built set's included, is made by NodeTable.build.  Structurally
identical subtries built by one construction or operation are stored once
(hash-consed, union's run above two tails aside), so a bit position no
generator is pinned at costs one node, not a doubling of the generator
list.  The trie encodes the generator set, not the open set: {"0", "1"}
stays two generators, as the reports list it.
Each node caches its generator count, its height (the longest generator)
and its measure as an integer numerator over 2^height; the kernel
operations are walks over nodes, memoized on the nodes they visit.  A set
built from strings keeps the lexicographic tuple it validated; a kernel
result is listed as one text, a generator per line, by a walk down from
the root.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat
from operator import attrgetter, contains, itemgetter, rshift
from os.path import commonprefix
from typing import Iterable, Iterator, Sequence

from .errors import PowerOfEpsilon

ZERO = Fraction(0)
ONE = Fraction(1)


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01") != "":
        raise ValueError(f"not a bit string: {s!r}")
    return s


class Natural:
    """The wire type of a count: a field declares it, a JSON integer >= 0
    fills it, and it is read as an int."""


def record(**options):
    """Class decorator for a wire record, whose keys its `fields` declares
    once: each key, in order and with a trailing "?" stripped, becomes a
    dataclass field annotated with its wire type, an optional one defaulting
    to None.  options go to dataclass as they are."""
    def build(cls: type) -> type:
        cls.__annotations__ = {key.rstrip("?"): wire for key, wire in cls.fields.items()}
        for key in cls.fields:
            if key.endswith("?"):
                setattr(cls, key[:-1], None)
        return dataclass(cls, **options)
    return build


def _sorted_bits(strings: Iterable[str]) -> list[str]:
    """The strings in lexicographic order, checked to be bit strings.

    The check is one scan over the joined strings; only when it fails are
    the strings checked one by one, so the error names the first bad
    string in input order.
    """
    items = list(strings)
    try:
        bad = "".join(items).encode("ascii").translate(None, b"01")
    except (TypeError, UnicodeEncodeError):
        bad = True
    if bad:
        for s in items:
            check_bits(s)
    items.sort()
    return items


def _neighbours(lex: list[str]) -> Iterator[bool]:
    """Lazily, for each i, whether lex[i] occurs in lex[i + 1], as it does
    where lex[i + 1] starts with lex[i]; only a flagged pair needs the
    dearer prefix test.  In lexicographic order, if any string starts with
    another (a duplicate included), some string starts with its left
    neighbour, so one scan finds duplicates and violations together."""
    return map(contains, islice(lex, 1, None), lex)


def lenlex_key(s: str) -> tuple[int, str]:
    """Canonical (length, lexicographic) ordering used for all serialization."""
    return (len(s), s)


def cylinder_measure(s: str) -> Fraction:
    return Fraction(1, 2 ** len(s))


def strings_to_depth(depth: int) -> Iterator[str]:
    """Every bit string of length <= depth, in length-lex order."""
    yield ""
    frontier = [""]
    for _ in range(depth):
        frontier = [s + b for s in frontier for b in "01"]
        yield from frontier


# ---------------------------------------------------------------------------
# Trie nodes.  A subtrie is EMPTY (no generator), LEAF (the generator
# epsilon), a nonempty str (exactly one generator, that string: the tail of
# a trie is kept as its bits rather than as a chain of one-child nodes), or
# a TrieNode holding two or more generators.

@dataclass(slots=True, eq=False, repr=False)
class TrieNode:
    """The generators below one trie position, as a 0-subtrie and a 1-subtrie.

    count is the number of generators, height the length of the longest
    one, and the measure of the generated set is num / 2^height.  Nodes
    compare by identity, as NodeTable keys on them, and keep object's repr:
    a hash-consed trie written out as a tree can be exponentially long.
    """

    zero: Trie | None
    one: Trie | None
    count: int
    height: int
    num: int


# Neither has children: a walk stops at `node.zero is None`.
LEAF = TrieNode(None, None, 1, 0, 1)
EMPTY = TrieNode(None, None, 0, 0, 0)

Trie = TrieNode | str


def _stats(node: Trie) -> tuple[int, int, int]:
    """(count, height, num) of a subtrie."""
    if type(node) is str:
        return 1, len(node), 1
    return node.count, node.height, node.num


def is_full(node: Trie) -> bool:
    """The subtrie generates its whole cylinder (measure 1)."""
    return type(node) is not str and node.num == 1 << node.height


def kids(node: Trie) -> tuple[Trie, Trie]:
    """The 0- and 1-subtries of a node other than LEAF and EMPTY."""
    if type(node) is str:
        tail = node[1:] or LEAF
        return (tail, EMPTY) if node[0] == "0" else (EMPTY, tail)
    return node.zero, node.one


class NodeTable:
    """Hash-consing table of one construction or one operation.

    Nodes with the same two children are made once; the table is dropped
    with the construction, so nothing grows across a run.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: dict[tuple[Trie, Trie], TrieNode] = {}

    def node(self, zero: Trie, one: Trie, run: str = "") -> Trie:
        """The subtrie with these children; one generator comes back as a str.
        A run, the bits of a prefix above two children that are not EMPTY,
        puts the node under one one-child node per bit, made at once and not
        entered in the table: build meets the run's key once."""
        if zero is EMPTY or one is EMPTY:
            if zero is one:
                return EMPTY
            bit, only = ("1", one) if zero is EMPTY else ("0", zero)
            if only is LEAF:
                return bit
            if type(only) is str:
                return bit + only
        key = (zero, one)
        got = self.nodes.get(key)
        if got is None:
            zc, zh, zn = _stats(zero)
            oc, oh, on = _stats(one)
            h = max(zh, oh)
            got = self.nodes[key] = TrieNode(zero, one, zc + oc, h + 1,
                                             (zn << (h - zh)) + (on << (h - oh)))
        if run:
            gens, height, num = got.count, got.height, got.num
            for height, bit in enumerate(reversed(run), height + 1):
                got = (TrieNode(got, EMPTY, gens, height, num) if bit == "0"
                       else TrieNode(EMPTY, got, gens, height, num))
        return got

    def build(self, top, expand, done: dict) -> Trie:
        """The subtrie of subproblem `top`, built bottom-up without recursion.

        expand(key) returns either a finished subtrie, the pair of keys of
        the 0- and 1-subproblems, or two finished subtries and the run of
        bits above them, made at once by node.  `done` maps solved keys to
        their subtries and may be seeded with base cases; each key is
        expanded once, so a subproblem met again is shared, and deep tries
        need no deep stack.
        """
        split = {}
        stack = [top]
        while stack:
            key = stack.pop()
            if key in done:
                continue
            step = split.get(key)
            if step is not None:
                # Second visit: the keys pushed above this one are solved.
                done[key] = self.node(done[step[0]], done[step[1]])
                continue
            step = expand(key)
            if type(step) is not tuple:
                done[key] = step
            elif len(step) == 3:
                done[key] = self.node(*step)
            else:
                split[key] = step
                stack += (key, step[1], step[0])
        return done[top]


def _trie_of(lex: list[str]) -> Trie:
    """Trie of lexicographically sorted, prefix-free bit strings.

    Subproblem (lo, hi, d) is the subtrie of lex[lo:hi], whose strings share
    their first d bits.  Two or more of them are all longer than d, as the
    set is prefix-free, and one bisect on bit d splits them in two.
    """
    def split(key):
        lo, hi, d = key
        if hi - lo < 2:
            return (lex[lo][d:] or LEAF) if hi > lo else EMPTY
        mid = bisect_left(lex, "1", lo, hi, key=itemgetter(d))
        return (lo, mid, d + 1), (mid, hi, d + 1)

    top = (0, len(lex), 0)
    return split(top) if len(lex) < 2 else NodeTable().build(top, split, {})


# A subtrie of at most this many generators is listed whole, bottom-up, and
# memoized; above it the listing walks down, so no text is copied per level.
_WHOLE = 256


def _edge(node: Trie) -> tuple[str, Trie]:
    """The bits down a run of one-child nodes from node, a tail's included,
    joined once, and where the run ends: LEAF, EMPTY or a node with two
    children."""
    bits = []
    while type(node) is not str:
        if node.zero is EMPTY:
            bits.append("1")
            node = node.one
        elif node.one is EMPTY:
            bits.append("0")
            node = node.zero
        else:
            return "".join(bits), node
    bits.append(node)
    return "".join(bits), LEAF


def _texts(top: TrieNode) -> dict[int, str]:
    """The generators of a subtrie as one text per length, each generator
    led by a newline, in lexicographic order.  Nodes go by ascending
    height, children first; a node puts each edge's bits in front of the
    text below it with one replace."""
    done: dict[TrieNode, dict[int, str]] = {LEAF: {0: "\n"}, EMPTY: {}}
    edges = {}
    stack = [top]
    while stack:
        node = stack.pop()
        if node not in done and node not in edges:
            edges[node] = pair = (_edge(node.zero), _edge(node.one))
            stack += (pair[0][1], pair[1][1])
    for node in sorted(edges, key=attrgetter("height")):
        texts: dict[int, str] = {}
        for bit, (bits, below) in zip("01", edges[node]):
            lead = "\n" + bit + bits
            for size, text in done[below].items():
                size += len(lead) - 1
                texts[size] = texts.get(size, "") + text.replace("\n", lead)
        done[node] = texts
    return done[top]


def _lines(root: Trie, sep: str) -> str:
    """The generators of a trie in length-lex order, joined by sep.

    The walk goes down from the root carrying the prefix, and follows a run
    of one-child nodes once.  A subtrie of at most _WHOLE generators gets
    its texts from _texts, once per node, and sep and the prefix with one
    replace.  The texts are joined by ascending length; the empty set and
    {""} both give "", told apart by their count.
    """
    if type(root) is str:
        return root
    memo: dict[TrieNode, dict[int, str]] = {}
    out: dict[int, list[str]] = {}
    stack = [_edge(root)]
    while stack:
        prefix, node = stack.pop()
        if node.count > _WHOLE:
            (zero, below0), (one, below1) = _edge(node.zero), _edge(node.one)
            stack += ((prefix + "1" + one, below1), (prefix + "0" + zero, below0))
            continue
        texts = memo.get(node)
        if texts is None:
            texts = memo[node] = _texts(node)
        lead = sep + prefix
        for size, text in texts.items():
            out.setdefault(size + len(prefix), []).append(text.replace("\n", lead))
    pieces = [piece for size in sorted(out) for piece in out[size]]
    if pieces:
        pieces[0] = pieces[0][len(sep):]
    return "".join(pieces)


def _down(node: Trie, sigma: str) -> tuple[int, Trie]:
    """Sigma's path down a trie, in one walk: (i, LEAF) when it meets a
    generator after i bits, (i, EMPTY) when it leaves the trie, and
    otherwise (len(sigma), the subtrie at sigma)."""
    for i, bit in enumerate(sigma):
        if type(node) is str:
            rest = sigma[i:]
            if rest.startswith(node):
                return i + len(node), LEAF
            return (len(sigma), node[len(rest):]) if node.startswith(rest) else (i, EMPTY)
        if node.zero is None:
            return i, node
        node = node.zero if bit == "0" else node.one
    return len(sigma), node


def _same(a: Trie, b: Trie) -> bool:
    """The two tries hold the same generators: rebuilt through one
    NodeTable, equal generator sets come out as one node, or as equal
    tails, since a position with one generator is LEAF or a str tail."""
    def expand(node: Trie):
        return node if type(node) is str else (node.zero, node.one)
    table, done = NodeTable(), {LEAF: LEAF, EMPTY: EMPTY}
    return table.build(a, expand, done) == table.build(b, expand, done)


class PrefixFreeSet:
    """Finite antichain of bit strings; stands in for a c.e. open set.

    Elements are deduplicated, validated pairwise prefix-free and listed in
    length-lex order.  A set built from strings keeps the lexicographic
    tuple it validated, derives the length-lex tuple when `elements` or
    lines() first reads it, and builds its trie on the first kernel
    operation that walks one; a set a kernel operation returns holds only
    its trie, and lines() lists it as one text that `elements` splits once.
    Instances are immutable and hashable.
    """

    __slots__ = ("_lex", "_elements", "_root", "_measure", "_maxlen")
    # Any list: the set checks its bit strings in one scan as it is made.
    fields = {"elements": list}

    def __init__(self, elements: Iterable[str] = ()):
        lex = _sorted_bits(elements)
        if any(_neighbours(lex)):
            lex = list(dict.fromkeys(lex))
            for i in compress(count(), _neighbours(lex)):
                if lex[i + 1].startswith(lex[i]):
                    raise ValueError(
                        f"not prefix-free: {lex[i]!r} is a prefix of {lex[i + 1]!r}")
        self._set(tuple(lex), None)

    def _set(self, lex, root) -> None:
        set_ = object.__setattr__
        set_(self, "_lex", lex)
        set_(self, "_root", root)
        set_(self, "_elements", None)
        set_(self, "_measure", None)
        set_(self, "_maxlen", None)

    @classmethod
    def _listed(cls, lex: list[str]) -> "PrefixFreeSet":
        """Set of checked, lexicographically sorted, prefix-free strings."""
        out = object.__new__(cls)
        out._set(tuple(lex), None)
        return out

    @classmethod
    def from_trie(cls, root: Trie) -> "PrefixFreeSet":
        """The set of a trie a kernel walk built; it is listed on demand."""
        out = object.__new__(cls)
        out._set(None, root)
        return out

    def trie(self) -> Trie:
        """The generator trie, built from the lexicographic tuple on first use."""
        root = self._root
        if root is None:
            root = _trie_of(self._lex)
            object.__setattr__(self, "_root", root)
        return root

    @property
    def elements(self) -> tuple[str, ...]:
        elems = self._elements
        if elems is None:
            if self._lex is not None:
                elems = tuple(sorted(self._lex, key=len))  # stable, so length-lex
            else:
                elems = tuple(_lines(self._root, "\n").split("\n")) if self.count else ()
            object.__setattr__(self, "_elements", elems)
        return elems

    def lines(self, sep: str = "\n") -> str:
        """The generators in length-lex order, joined by sep (see _lines)."""
        if self._elements is None and self._lex is None:
            return _lines(self._root, sep)
        return sep.join(self.elements)

    def __setattr__(self, name, value):
        raise AttributeError("PrefixFreeSet is immutable")

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    @property
    def count(self) -> int:
        """The exact number of generators, read without listing them; unlike
        len(), which Python caps at 2^63 - 1, it holds for any size."""
        elems = self._elements if self._lex is None else self._lex
        return len(elems) if elems is not None else _stats(self._root)[0]

    def __len__(self) -> int:
        return self.count

    def __contains__(self, s: str) -> bool:
        """s is a generator: its path meets one after exactly len(s) bits."""
        if not isinstance(s, str) or s.strip("01"):
            return False
        return _down(self.trie(), s) == (len(s), LEAF)

    def _lexed(self) -> tuple[str, ...] | None:
        """The lexicographic tuple, sorted once from the length-lex one
        where only that exists; None for a set that is a trie alone."""
        if self._lex is None and self._elements is not None:
            object.__setattr__(self, "_lex", tuple(sorted(self._elements)))
        return self._lex

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PrefixFreeSet) or self.count != other.count:
            return False
        if self._elements is not None and other._elements is not None:
            return self._elements == other._elements
        mine, theirs = self._lexed(), other._lexed()
        if mine is not None and theirs is not None:
            return mine == theirs
        return _same(self.trie(), other.trie())

    def __hash__(self) -> int:
        return hash(("PrefixFreeSet", self.count, self.maxlen))

    def __repr__(self) -> str:
        return f"PrefixFreeSet({list(self.elements)!r})"

    @property
    def maxlen(self) -> int:
        if self._root is not None:
            return _stats(self._root)[1]
        if self._maxlen is None:
            object.__setattr__(self, "_maxlen", max(map(len, self._lex), default=0))
        return self._maxlen


EMPTY_SET = PrefixFreeSet.from_trie(EMPTY)
FULL_SET = PrefixFreeSet.from_trie(LEAF)


def reduce(strings: Iterable[str]) -> PrefixFreeSet:
    """Prefix-minimal elements of an arbitrary finite string set.

    The generated open set is unchanged: dropping a string that extends a
    kept one removes nothing from the union of cylinders.  In lexicographic
    order the extensions of a kept string k, its repeats included, form one
    run right after it, ending before k + "2"; a run starts where a string
    extends its left neighbour, and flags inside a run are passed over.
    """
    lex = _sorted_bits(strings)
    kept: list[str] = []
    pos = 0
    for i in compress(count(), _neighbours(lex)):
        if i >= pos and lex[i + 1].startswith(lex[i]):
            kept += lex[pos:i + 1]
            pos = bisect_left(lex, lex[i] + "2", i + 1)
    if not pos:
        return PrefixFreeSet._listed(lex)
    kept += lex[pos:]
    return PrefixFreeSet._listed(kept)


def measure(u: PrefixFreeSet) -> Fraction:
    """mu([U]) = sum over generators of 2^-|sigma|, exactly."""
    mu = u._measure
    if mu is None:
        if u._root is None:  # 2^-|sigma| is 2^h >> |sigma| over 2^h
            lengths = list(map(len, u._lex))
            height = max(lengths, default=0)
            num = sum(map(rshift, repeat(1 << height), lengths))
        else:
            _, height, num = _stats(u._root)
        mu = Fraction(num, 1 << height)
        object.__setattr__(u, "_measure", mu)
    return mu


def condition(u: PrefixFreeSet, sigma: str) -> PrefixFreeSet:
    """The set (U | sigma) = {tau : sigma tau in U}, as tails at the root.

    Full conditionals are canonicalized to {epsilon}: when a prefix of sigma
    lies in U, and likewise when the suffixes alone exhaust the space, the
    cylinder [sigma] is swallowed whole.  Either way the identity
    mu(condition(U, sigma)) * 2^-|sigma| = mu([U] cap [sigma]) stays exact.
    The subtrie at sigma is the answer, reached in |sigma| steps.
    """
    check_bits(sigma)
    node = _down(u.trie(), sigma)[1]
    if is_full(node):
        return FULL_SET
    if node is EMPTY:
        return EMPTY_SET
    return PrefixFreeSet.from_trie(node)


def powers(u: PrefixFreeSet, n: int) -> Iterator[PrefixFreeSet]:
    """U^1, ..., U^n, built through one NodeTable: each level replaces every
    leaf of U's trie by the level before, so a level costs one walk of U."""
    root, table, out = u.trie(), NodeTable(), LEAF
    for _ in range(n):
        out = table.build(root, kids, {LEAF: out, EMPTY: EMPTY})
        yield PrefixFreeSet.from_trie(out)


def power(u: PrefixFreeSet, n: int) -> PrefixFreeSet:
    """n-fold concatenation set U^n; mu(U^n) = mu(U)^n for prefix-free U."""
    if n < 0:
        raise ValueError("negative power")
    if n >= 2 and "" in u:
        raise PowerOfEpsilon("epsilon in U makes U^n degenerate for n >= 2")
    return next(islice(powers(u, n), n - 1, None)) if n else FULL_SET


def _or(pair: tuple[Trie, Trie]):
    """One step of the OR of two tries, where a leaf absorbs what is below
    it.  Two tails meet in one step: the shorter where it starts the other,
    else their common prefix as a run above the two parts past it."""
    a, b = pair
    if a is LEAF or b is LEAF:
        return LEAF
    if a is EMPTY or a == b:
        return b
    if b is EMPTY:
        return a
    if type(a) is str and type(b) is str:
        k = len(commonprefix(pair))
        if k == min(len(a), len(b)):
            return min(a, b, key=len)
        zero, one = (a, b) if a[k] == "0" else (b, a)
        return zero[k + 1:] or LEAF, one[k + 1:] or LEAF, a[:k]
    az, ao = kids(a)
    bz, bo = kids(b)
    return (az, bz), (ao, bo)


def union(u: PrefixFreeSet, v: PrefixFreeSet) -> PrefixFreeSet:
    """Prefix-minimal generators of [U] cup [V], the same set reduce gives."""
    return PrefixFreeSet.from_trie(NodeTable().build((u.trie(), v.trie()), _or, {}))


def _covers(a: Trie, b: Trie) -> bool:
    """Every cylinder of trie b lies inside the open set of trie a.

    A tail on either side is followed in one _down, not bit by bit: a tail
    b is covered where a is full below it, and a tail a covers b where its
    path through b keeps all of b's generators below it.
    """
    # Kept over measure(union(v, u)) == measure(v), same answers: union
    # then sliced tails bit by bit, so a 10,000-bit tail peaked at 103 MB,
    # and closure_diag ran 3,285 jobs/s against 3,455 (Python 3.11, 2 cores).
    seen = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if b is EMPTY or is_full(a) or (a, b) in seen:
            continue
        if a is EMPTY or b is LEAF:
            return False
        if type(b) is str:
            if not is_full(_down(a, b)[1]):
                return False
            continue
        if type(a) is str:
            if _stats(_down(b, a)[1])[0] != b.count:
                return False
            continue
        seen.add((a, b))
        az, ao = kids(a)
        bz, bo = kids(b)
        stack += [(ao, bo), (az, bz)]
    return True


def covers(v: PrefixFreeSet, u: PrefixFreeSet) -> bool:
    """Decidable containment [U] subseteq [V] for finite generator sets.

    Walks both tries together: where U has a leaf, V's subtrie must have
    measure 1, which is exact rational arithmetic here.
    """
    return _covers(v.trie(), u.trie())


def walk(u: PrefixFreeSet, depth: int, stop=None) -> Iterator[tuple[str, Fraction]]:
    """(sigma, mu(U | sigma)) for every sigma of length <= depth that [U]
    meets, in length-lex order, not going below a sigma where stop(sigma, mu)
    holds.

    Off U's trie the conditional measure is 0 and below a full node it is 1,
    so the walk is breadth-first over U's trie positions, a full node's
    children being LEAF and LEAF; it costs one step per position yielded,
    not one per string of length <= depth.
    """
    root = u.trie()
    level = [] if root is EMPTY else [("", root)]
    while level:
        below = []
        for sigma, node in level:
            _, height, num = _stats(node)
            mu = ONE if num == 1 << height else Fraction(num, 1 << height)
            yield sigma, mu
            if len(sigma) >= depth or (stop is not None and stop(sigma, mu)):
                continue
            zero, one = (LEAF, LEAF) if mu is ONE else kids(node)
            if zero is not EMPTY:
                below.append((sigma + "0", zero))
            if one is not EMPTY:
                below.append((sigma + "1", one))
        level = below


# ---------------------------------------------------------------------------
# Pinned sets.  A pin list is a sequence of (position, bit) pairs at distinct
# positions; it stands for the sequences that carry each pinned bit at its
# position, and an empty pin list for the whole space.

Pins = Sequence[tuple[int, str]]


def pinned_union(terms: Sequence[Pins]) -> PrefixFreeSet:
    """Minimal prefix-free generators of a union of pinned sets.

    Walks the binary tree, pruning a subtree as soon as every term is
    violated and ending a generator as soon as some term is fully pinned.
    The walk's state at a node is its bit position and the set of terms
    still alive (each alive term's remaining count follows from the two),
    and the walk is memoized on that state: a free position yields one
    shared subtrie instead of two copies, so the work follows the number of
    states, not the number of generators.
    """
    if any(not pins for pins in terms):
        return FULL_SET
    if not terms:
        return EMPTY_SET
    depth = max(p for pins in terms for p, _ in pins) + 1
    by_pos: list[list[tuple[int, str, bool]]] = [[] for _ in range(depth)]
    for ti, pins in enumerate(terms):
        last = max(p for p, _ in pins)
        for p, b in pins:
            by_pos[p].append((1 << ti, b, p == last))

    def step(state: tuple[int, int]):
        """Children of the subtrie at bit position pos with the terms in
        `alive` unviolated: a leaf where a term is completed, nothing where
        every term is violated, else the state one position further."""
        pos, alive = state
        halves = []
        for bit in "01":
            mask = alive
            done = False
            for flag, need, last in by_pos[pos]:
                if mask & flag:
                    if bit != need:
                        mask &= ~flag
                    elif last:
                        done = True
            halves.append(LEAF if done else (pos + 1, mask) if mask else EMPTY)
        return tuple(halves)

    root = NodeTable().build((0, (1 << len(terms)) - 1), step, {LEAF: LEAF, EMPTY: EMPTY})
    return PrefixFreeSet.from_trie(root)


def covers_pinned(v: PrefixFreeSet, pins: Pins) -> bool:
    """Containment of the pinned set in [V].

    Walks V's trie from the root along the pinned bits, both ways at a free
    position; each (node, bit position) pair is visited once.
    """
    # Kept over covers(v, pinned_union([pins])), which builds the pinned
    # trie first: extract_series of the (4,3,2) encoding took 2.7 ms, not
    # 0.44, and sparse_blocks job_tail_ms read 0.85, not 0.47 (Python 3.11).
    pinned = dict(pins)
    depth = max(pinned, default=-1) + 1
    seen = set()
    stack = [(v.trie(), 0)]
    while stack:
        node, pos = stack.pop()
        if is_full(node) or (node, pos) in seen:
            continue
        if pos >= depth or node is EMPTY:
            return False
        seen.add((node, pos))
        zero, one = kids(node)
        bit = pinned.get(pos)
        if bit != "1":
            stack.append((zero, pos + 1))
        if bit != "0":
            stack.append((one, pos + 1))
    return True


@record(frozen=True, slots=True)
class PeriodicPoint:
    """Eventually periodic point head . period^omega of Cantor space.

    These are the only infinite sequences the laboratory manipulates: the
    set of tails of such a point is finite, so 'all tails of X' questions
    are decidable.
    """

    fields = {"head": str, "period": str}

    def __post_init__(self):
        check_bits(self.head)
        if not check_bits(self.period):
            raise ValueError("period must be nonempty")

    def __repr__(self) -> str:
        return f"PeriodicPoint({self.head!r}, {self.period!r})"

    def prefix(self, n: int) -> str:
        if n <= len(self.head):
            return self.head[:n]
        need = n - len(self.head)
        reps = -(-need // len(self.period))
        return (self.head + self.period * reps)[:n]

    def shift(self, k: int) -> "PeriodicPoint":
        """Drop the first k bits."""
        if k <= len(self.head):
            return PeriodicPoint(self.head[k:], self.period)
        r = (k - len(self.head)) % len(self.period)
        return PeriodicPoint("", self.period[r:] + self.period[:r])

    def canonical(self) -> "PeriodicPoint":
        """Unique representative: primitive period, head not absorbable.

        Two PeriodicPoints denote the same sequence iff their canonical
        forms are equal.
        """
        period = self.period
        for d in range(1, len(period)):
            if len(period) % d == 0 and period == period[:d] * (len(period) // d):
                period = period[:d]
                break
        head = self.head
        while head and head[-1] == period[-1]:
            head = head[:-1]
            period = period[-1] + period[:-1]
        return PeriodicPoint(head, period)


def tails(x: PeriodicPoint) -> list[PeriodicPoint]:
    """All distinct tails, as the shifts of X by k < |head| + |period| of
    X's canonical form: with a primitive period and no absorbable head
    these are pairwise distinct, and every later shift repeats one."""
    c = x.canonical()
    return [x.shift(k) for k in range(len(c.head) + len(c.period))]


def factor(u: PrefixFreeSet, x: PeriodicPoint) -> str | None:
    """The generator of U that X starts with, met on X's path from the root
    within maxlen(U) bits; None when X is not in [U]."""
    path = x.prefix(u.maxlen)
    i, node = _down(u.trie(), path)
    return path[:i] if node is LEAF else None


def member(u: PrefixFreeSet, x: PeriodicPoint) -> bool:
    """X in [U]: X starts with a generator of U."""
    return factor(u, x) is not None


@record(frozen=True, slots=True)
class StagedOpenSet:
    """Monotone finite enumeration of a prefix-free set with exact measures.

    The desk-scale stand-in for a Schnorr (computable-measure) set: stage s
    is the part enumerated so far, and the declared final measure equals the
    measure of the last stage exactly.
    """

    fields = {"stages": [PrefixFreeSet], "final_measure?": Fraction}

    def __post_init__(self):
        st = tuple(self.stages)
        if not st:
            raise ValueError("need at least one stage")
        for a, b in zip(st, st[1:]):
            if not covers(b, a):
                raise ValueError("stages must be nondecreasing as open sets")
        final = measure(st[-1])
        if self.final_measure is not None and self.final_measure != final:
            raise ValueError(
                f"declared final measure {self.final_measure} != measure of last stage {final}"
            )
        object.__setattr__(self, "stages", st)
        object.__setattr__(self, "final_measure", final)

    def __repr__(self) -> str:
        return f"StagedOpenSet({list(self.stages)!r})"

    @property
    def final(self) -> PrefixFreeSet:
        return self.stages[-1]

    def stage(self, s: int) -> PrefixFreeSet:
        """Stage s, clamped to the last one for s past the enumeration."""
        if s < 0:
            raise ValueError("negative stage")
        return self.stages[min(s, len(self.stages) - 1)]
