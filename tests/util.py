"""Shared fixture builders and brute-force oracles for the test suite."""

import signal
import sys
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import cantorlab.cli  # noqa: F401  (every module, for wire_records)
from cantorlab.errors import DeadCapital, SearchExhausted
from cantorlab.martingales import BettingStrategy, MartingaleTable, PointDoubler, TableStrategy
from cantorlab.pairing import cantor_pair
from cantorlab.series import b_terms
from cantorlab.reports import Report
from cantorlab.space import (
    LEAF,
    ONE,
    ZERO,
    PeriodicPoint,
    PrefixFreeSet,
    check_bits,
    condition,
    lenlex_key,
    measure,
    reduce,
    union,
)


def wire_records() -> set:
    """The classes of cantorlab, strategies aside, that declare the fields
    of their wire document."""
    return {cls for name, module in list(sys.modules.items()) if name.startswith("cantorlab.")
            for cls in vars(module).values()
            if isinstance(cls, type) and isinstance(vars(cls).get("fields"), dict)
            and not issubclass(cls, BettingStrategy)}


def all_strings(depth):
    out = [""]
    frontier = [""]
    for _ in range(depth):
        frontier = [s + b for s in frontier for b in "01"]
        out.extend(frontier)
    return out


@contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError inside the block once it has run for `seconds` of
    wall clock, so a runaway computation fails fast instead of eating memory."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def bf_expand(strings, depth):
    out = set()
    for m in range(2 ** depth):
        s = format(m, f"0{depth}b") if depth else ""
        if any(s.startswith(g) for g in strings):
            out.add(s)
    return out


def doubler():
    """All-on-zeros doubler: capital 2^k along 0^k, dead after any 1."""
    return PointDoubler(PeriodicPoint("", "0"))


def random_fair_table(rng: Random, depth: int, positive: bool = False,
                      start: Fraction = Fraction(1)) -> MartingaleTable:
    """Random fair table: each node splits its doubled capital at random.

    With positive=True every node keeps at least 1/8 of the parent's doubled
    capital, so no zero values appear anywhere.
    """
    values = {"": Fraction(start)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            total = 2 * values[s]
            lo, hi = (1, 7) if positive else (0, 8)
            left = total * Fraction(rng.randint(lo, hi), 8)
            values[s + "0"] = left
            values[s + "1"] = total - left
            nxt.extend([s + "0", s + "1"])
        frontier = nxt
    return MartingaleTable(depth, values)


def random_fair_strategy(rng: Random, depth: int, positive: bool = False):
    return TableStrategy(random_fair_table(rng, depth, positive=positive))


def random_prefix_free(rng: Random, maxlen: int = 5, count: int = 6) -> PrefixFreeSet:
    words = []
    for _ in range(count):
        n = rng.randint(1, maxlen)
        words.append("".join(rng.choice("01") for _ in range(n)))
    return reduce(words)


# ---------------------------------------------------------------------------
# Scan oracles: the set kernel as it was before the trie, one pass over the
# generator lists per call.  The property tests compare the trie kernel
# with these on random inputs.

def scan_measure(u):
    if not u.elements:
        return Fraction(0)
    top = max(len(s) for s in u.elements)
    return Fraction(sum(2 ** (top - len(s)) for s in u.elements), 2 ** top)


def scan_condition(u, sigma):
    suffixes = []
    for s in u.elements:
        if sigma.startswith(s):
            return PrefixFreeSet([""])
        if s.startswith(sigma):
            suffixes.append(s[len(sigma):])
    out = PrefixFreeSet(suffixes)
    return PrefixFreeSet([""]) if scan_measure(out) == 1 else out


def scan_covers(v, u):
    return all(scan_measure(scan_condition(v, s)) == 1 for s in u.elements)


def scan_member(u, x):
    return any(x.prefix(len(s)) == s for s in u.elements)


def scan_factor(u, x):
    """The generator of u that x starts with, or None, by a generator scan."""
    return next((s for s in u.elements if x.prefix(len(s)) == s), None)


def scan_tails(x):
    """All distinct tails of x by the first-occurrence scan: each shift
    through the head and the period, kept unless its canonical form was met
    at a smaller shift."""
    seen = set()
    out = []
    for k in range(len(x.head) + len(x.period)):
        t = x.shift(k)
        key = t.canonical()
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def list_power(u, n):
    words = [""]
    for _ in range(n):
        words = [w + s for w in words for s in u.elements]
    return PrefixFreeSet(words)


def list_union(u, v):
    return reduce(list(u.elements) + list(v.elements))


def pin_depth(pins):
    """One past the deepest pinned position; 0 for the whole space."""
    return max((p for p, _ in pins), default=-1) + 1


def consistent(pins, sigma):
    """The cylinder [sigma] meets the pinned set."""
    return all(sigma[p] == b for p, b in pins if p < len(sigma))


def scan_covered_by(pins, w):
    """The pinned set lies inside [W], by mu([W] cap Z) = mu(Z) in integer
    units."""
    depth = max((len(s) for s in w.elements), default=0)
    top = max(depth, pin_depth(pins))
    total = 0
    for s in w.elements:
        if consistent(pins, s):
            beyond = sum(1 for p, _ in pins if p >= len(s))
            total += 2 ** (top - len(s) - beyond)
    return total == 2 ** (top - len(pins))


def walk_union_generators(terms):
    """Generator list of a union of pinned sets, by the pruned tree walk
    that emits one string per generator."""
    terms = list(terms)
    if any(not pins for pins in terms):
        return [""]
    if not terms:
        return []
    depth = max(pin_depth(pins) for pins in terms)
    by_pos = [[] for _ in range(depth)]
    for ti, pins in enumerate(terms):
        for p, b in pins:
            by_pos[p].append((ti, b))
    out = []
    stack = [("", [len(pins) for pins in terms], (1 << len(terms)) - 1)]
    while stack:
        sigma, remaining, alive = stack.pop()
        pos = len(sigma)
        for bit in "10":
            rem, mask, done = remaining[:], alive, False
            for ti, need in by_pos[pos]:
                if not mask & (1 << ti):
                    continue
                if bit == need:
                    rem[ti] -= 1
                    done = done or rem[ti] == 0
                else:
                    mask &= ~(1 << ti)
            if done:
                out.append(sigma + bit)
            elif mask:
                stack.append((sigma + bit, rem, mask))
    return out


# ---------------------------------------------------------------------------
# Series oracles.

def antidiagonal_pairs(first_min=0, second_min=0):
    """Yield pairs (a, b), a >= first_min, b >= second_min, shell by shell."""
    s = first_min + second_min
    while True:
        for a in range(first_min, s - second_min + 1):
            yield a, s - a
        s += 1


def union_measure(terms):
    """Measure of a union of pinned sets by enumerating only the pinned
    positions."""
    positions = sorted({p for pins in terms for p, _ in pins})
    index = {p: i for i, p in enumerate(positions)}
    hits = 0
    for m in range(2 ** len(positions)):
        bits = format(m, f"0{len(positions)}b") if positions else ""
        for pins in terms:
            if all(bits[index[p]] == b for p, b in pins):
                hits += 1
                break
    return Fraction(hits, 2 ** len(positions))


def block_owner(partition, position):
    """The pair (i, l) whose interval block holds the bit position, found by
    laying the blocks out in the partition's own order."""
    for i, l in antidiagonal_pairs(0, 1):
        if position in partition.block(i, l):
            return (i, l)


def loop_unpair(n):
    """cantor_unpair by the walk up the antidiagonals it replaced."""
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    b = n - s * (s + 1) // 2
    return s - b, b


def scan_open_to_series_approx(v, n, c):
    """open_to_series_approx by the scan it replaced: mu(B cap [W]) summed
    over the terms of B = B_(n, alpha) and the generators of the stage W,
    each term's share of a cylinder read off its pins."""
    w = v.stages[n]
    allowance = Fraction(1, 2 ** (n + c))
    t = n + c
    while cantor_pair(n, t) < w.maxlen:
        t += 1
    for m in range(2 ** t, -1, -1):
        alpha = Fraction(m, 2 ** t)
        covered = Fraction(0)
        for pins in b_terms(n, alpha):
            for s in w.elements:
                if consistent(pins, s):
                    beyond = sum(1 for p, _ in pins if p >= len(s))
                    covered += Fraction(1, 2 ** (len(s) + beyond))
        if alpha - covered <= allowance:
            return alpha
    return Fraction(0)


def top_down_open_to_series_sup(v, n):
    """open_to_series_sup by the walk down its grid from the top, with the
    integer-unit scan as the containment test."""
    if measure(v) == 1:
        return ONE
    t = 0
    while cantor_pair(n, t) < v.maxlen:
        t += 1
    for m in range(2 ** t, 0, -1):
        alpha = Fraction(m, 2 ** t)
        if all(scan_covered_by(pins, v) for pins in b_terms(n, alpha)):
            return alpha
    return Fraction(0)


# ---------------------------------------------------------------------------
# Search oracles: the closure and cover searches as they were before the
# kernel's trie walk, one step per string up to the search depth.

def enum_full_covered(u, v, depth):
    """Every string to depth with mu(U | s) = 1 has mu(V | s) = 1."""
    return all(measure(condition(v, s)) == 1
               for s in all_strings(depth) if measure(condition(u, s)) == 1)


def enum_p2_mlr(u, q):
    """(V, full-cylinder verdict) of p2_mlr, searching every string to depth
    maxlen(U) that no chosen string precedes."""
    depth = u.maxlen
    chosen = []
    stack = [""]
    while stack:
        s = stack.pop()
        if measure(condition(u, s)) > q:
            chosen.append(s)
            continue
        if len(s) < depth:
            stack.append(s + "1")
            stack.append(s + "0")
    v = union(PrefixFreeSet(chosen), u)
    return v, enum_full_covered(u, v, depth)


def enum_p2_sr(u, k, depth):
    """(V, full-cylinder verdict) of p2_sr, testing every string to depth
    against its stage."""
    mu_final = u.final_measure
    admitted = []
    for s in all_strings(depth):
        gap = Fraction(1, 2 ** (2 * len(s) + k + 1))
        stage = next(st for st in u.stages if mu_final - measure(st) < gap)
        if measure(condition(stage, s)) > 1 - Fraction(1, 2 ** (len(s) + k + 1)):
            admitted.append(s)
    v = reduce(admitted)
    return v, enum_full_covered(u.final, v, depth)


def enum_cr_p2(provider, state):
    """Report of CRProvider.p2, checking every string to its depth."""
    d, q = state.payload
    rep = Report("p2-cr-closure")
    for s in all_strings(min(provider.depth, state.generators.maxlen)):
        if measure(condition(state.generators, s)) == 1:
            rep.check(f"d({s!r}) >= q", d.value(s), ">=", q)
    rep.record("P2 realized by the set itself", True)
    return rep


def enum_schnorr_merge(v, k_max):
    """(merged set, layer measures) of schnorr_merge, conditioning each level
    3k+2 on all 2^k strings of length k."""
    merged = PrefixFreeSet()
    layers = []
    for k in range(k_max + 1):
        level = v.level(3 * k + 2)
        layer = PrefixFreeSet()
        for m in range(2 ** k):
            layer = union(layer, condition(level, format(m, f"0{k}b") if k else ""))
        layers.append(measure(layer))
        merged = union(merged, layer)
    return merged, layers


# ---------------------------------------------------------------------------
# Martingale oracles: the searches and walks as they were before the
# martingale layer skipped flat subtrees and resumed from known prefixes.

def exhaustive_winning_set(d, q, depth):
    """(generators, truncated) of the winning-set search that visits every
    string of length <= depth not below a generator."""
    gens, truncated = [], False
    stack = [""]
    while stack:
        s = stack.pop()
        if d.value(s) >= q:
            gens.append(s)
            continue
        if len(s) == depth:
            if d.value(s) > 0 and not d.flat_beyond(s):
                truncated = True
            continue
        stack.append(s + "1")
        stack.append(s + "0")
    return gens, truncated


def replay_reset(r, sigma, at=lambda base, s: base.value(s)):
    """ResetStrategy r at sigma, replaying its base bit by bit from the root.

    The base is evaluated by at(base, string), its own value by default."""
    blocks = set(r.blocks.elements)
    cap = ONE
    tau = ""
    for bit in sigma:
        den = at(r.base, tau)
        if den == 0:
            raise DeadCapital(f"base martingale dies at {tau!r} inside a block")
        tau += bit
        cap = cap * at(r.base, tau) / den
        if tau in blocks:
            tau = ""
    return cap


def closed_form(d, tau, at=lambda base, s: base.value(s)):
    """A derived strategy's value at tau by its kind's own formula, read off
    the attributes its wire document carries, term by term in Fraction
    arithmetic.  Each sub-strategy is evaluated by at(base, string), its own
    value by default."""
    if d.kind == "constant":
        return d.c
    if d.kind == "translated":
        return at(d.base, d.sigma + tau)
    if d.kind == "scaled":
        return d.factor * at(d.base, tau)
    if d.kind == "blend":
        return sum((w * at(s, tau) for w, s in d.terms if w != 0), start=ZERO)
    if d.kind == "mixture":
        weight = Fraction(1, 2 ** (d.n_e - 1))
        return (1 - weight) * at(d.d, tau) + weight * at(d.d_e, tau)
    if d.kind == "averaged":
        total = Fraction(1, 2 ** (d.level + 1))
        for s in all_strings(d.level):
            total += Fraction(1, 2 ** (2 * len(s) + 1)) * at(d.base, s + tau) / at(d.base, s)
        return total
    raise ValueError(f"no closed form for {d.kind!r}")


def reference_value(d, tau):
    """d at tau recomputed from the leaves with no memo: a derived kind by
    its closed form, a reset by replaying its base from the root, a point
    doubler or a table by its definition, a block doubler by its value."""
    if d.kind == "reset":
        return replay_reset(d, tau, reference_value)
    if d.kind == "point-doubler":
        return Fraction(2 ** len(tau)) if d.point.prefix(len(tau)) == tau else ZERO
    if d.kind == "tabulated":
        return d.table[tau[:d.table.depth]]
    if d.kind == "block-doubler":
        return d.value(tau)
    return closed_form(d, tau, reference_value)


# ---------------------------------------------------------------------------
# Tree-embedding oracle: tree_embed as it was before its search followed a
# single path, breadth-first over every kept string.

def bfs_tree_embed(d, depth, budget=10):
    if d.value("") != 1:
        raise ValueError("tree embedding needs a normed strategy")
    mapping = {"": ""}
    for k in range(depth):
        bound = 2 - Fraction(1, 2 ** (k + 1))
        for node in sorted((s for s in mapping if len(s) == k), key=lenlex_key):
            tau = mapping[node]
            frontier = [tau]
            kept = []
            pair = None
            while frontier and pair is None:
                nxt = []
                for parent in frontier:
                    for bit in "01":
                        cand = parent + bit
                        if d.value(cand) > bound:
                            continue
                        for other in kept:
                            if not cand.startswith(other) and not other.startswith(cand):
                                pair = (other, cand)
                                break
                        if pair:
                            break
                        kept.append(cand)
                        nxt.append(cand)
                    if pair:
                        break
                if nxt and len(nxt[0]) - len(tau) >= budget:
                    break
                frontier = nxt
            if pair is None:
                raise SearchExhausted(
                    f"no incomparable pair below {bound} within {budget} bits of {tau!r}",
                    frontier=kept,
                )
            mapping[node + "0"] = pair[0]
            mapping[node + "1"] = pair[1]
    rep = Report("tree-embed")
    names = sorted(mapping, key=lenlex_key)
    rep.record("monotone strict extensions", all(
        mapping[s + b].startswith(mapping[s]) and len(mapping[s + b]) > len(mapping[s])
        for s in names for b in "01" if s + b in mapping
    ))
    rep.record("incomparability preserved", all_pairs_incomparable(mapping))
    worst_overall = ZERO
    for s in names:
        tau = mapping[s]
        worst = max(d.value(tau[:i]) for i in range(len(tau) + 1))
        worst_overall = max(worst_overall, worst)
        rep.check(f"capital along image of {s!r} <= 2 - 2^-|{s}|",
                  worst, "<=", 2 - Fraction(1, 2 ** len(s)))
    rep.check("capital on all images <= 2", worst_overall, "<=", Fraction(2))
    return mapping, rep


def all_pairs_incomparable(mapping):
    """tree_embed's "incomparability preserved" by its old check: every two
    incomparable nodes have incomparable images."""
    names = sorted(mapping, key=lenlex_key)
    return not any(
        mapping[a].startswith(mapping[b]) or mapping[b].startswith(mapping[a])
        for a in names for b in names
        if a < b and not a.startswith(b) and not b.startswith(a)
    )


# ---------------------------------------------------------------------------
# Construction and listing oracles: the set kernel's string side as it was
# before its neighbour scan and its per-length texts, a list of neighbour
# flags and a list of tails per trie node.

def flagged_sorted_bits(strings):
    """The distinct strings in lexicographic order, checked to be bit strings."""
    items = list(strings)
    try:
        bad = "".join(items).encode("ascii").translate(None, b"01")
    except (TypeError, UnicodeEncodeError):
        bad = True
    if bad:
        for s in items:
            check_bits(s)
    items.sort()
    if any(map(str.__eq__, items[1:], items)):
        items = list(dict.fromkeys(items))
    return items


def flagged_construction(strings):
    """The elements tuple of PrefixFreeSet(strings), by the full list of
    neighbour flags."""
    elems = flagged_sorted_bits(strings)
    extends = list(map(str.startswith, elems[1:], elems))
    if any(extends):
        i = extends.index(True)
        raise ValueError(f"not prefix-free: {elems[i]!r} is a prefix of {elems[i + 1]!r}")
    return tuple(sorted(elems, key=len))


def flagged_reduce(strings):
    """The elements tuple of reduce(strings), by the full list of neighbour
    flags."""
    lex = flagged_sorted_bits(strings)
    extends = list(map(str.startswith, lex[1:], lex))
    kept = []
    pos = 0
    while True:
        try:
            i = extends.index(True, pos)
        except ValueError:
            kept += lex[pos:]
            return tuple(sorted(kept, key=len))
        kept += lex[pos:i + 1]
        pos = bisect_left(lex, lex[i] + "2", i + 1)


def tail_lists(root):
    """The generators of a trie in length-lex order, from one list of tails
    per node, each tail prefixed by one bit at every level."""
    if type(root) is str:
        return (root,)
    if root.zero is None:
        return ("",) if root is LEAF else ()
    lists = {}

    def tails(node):
        if type(node) is str:
            return [node]
        if node.zero is None:
            return [""] if node is LEAF else []
        return lists[node]

    stack = [root]
    while stack:
        node = stack[-1]
        if node in lists:
            stack.pop()
            continue
        todo = [c for c in (node.zero, node.one)
                if type(c) is not str and c.zero is not None and c not in lists]
        if todo:
            stack += todo
            continue
        stack.pop()
        lists[node] = ["0" + w for w in tails(node.zero)] + ["1" + w for w in tails(node.one)]
    return tuple(sorted(lists[root], key=len))
