"""Shared fixture builders and brute-force oracles for the test suite."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from cantorlab.errors import DeadCapital
from cantorlab.martingales import MartingaleTable, PointDoubler, TableStrategy
from cantorlab.pairing import cantor_pair
from cantorlab.series import b_terms
from cantorlab.space import ONE, PeriodicPoint, PrefixFreeSet, reduce


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


def list_power(u, n):
    words = [""]
    for _ in range(n):
        words = [w + s for w in words for s in u.elements]
    return PrefixFreeSet(words)


def list_union(u, v):
    return reduce(list(u.elements) + list(v.elements))


def consistent(z, sigma):
    """The cylinder [sigma] meets the constraint set Z."""
    return all(sigma[p] == b for p, b in z.constraints if p < len(sigma))


def scan_covered_by(z, w):
    """Z subseteq [W] by mu([W] cap Z) = mu(Z) in integer units."""
    depth = max((len(s) for s in w.elements), default=0)
    top = max(depth, z.depth)
    total = 0
    for s in w.elements:
        if consistent(z, s):
            beyond = sum(1 for p, _ in z.constraints if p >= len(s))
            total += 2 ** (top - len(s) - beyond)
    return total == 2 ** (top - len(z.constraints))


def walk_union_generators(terms):
    """Generator list of a union of constraint sets, by the pruned tree walk
    that emits one string per generator."""
    terms = list(terms)
    if any(not t.constraints for t in terms):
        return [""]
    if not terms:
        return []
    depth = max(t.depth for t in terms)
    by_pos = [[] for _ in range(depth)]
    for ti, t in enumerate(terms):
        for p, b in t.constraints:
            by_pos[p].append((ti, b))
    out = []
    stack = [("", [len(t.constraints) for t in terms], (1 << len(terms)) - 1)]
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
    """Measure of a union of constraint sets by enumerating only the
    constrained positions."""
    positions = sorted({p for t in terms for p, _ in t.constraints})
    index = {p: i for i, p in enumerate(positions)}
    hits = 0
    for m in range(2 ** len(positions)):
        bits = format(m, f"0{len(positions)}b") if positions else ""
        for t in terms:
            if all(bits[index[p]] == b for p, b in t.constraints):
                hits += 1
                break
    return Fraction(hits, 2 ** len(positions))


def block_owner(partition, position):
    """The pair (i, l) whose interval block holds the bit position, found by
    laying the blocks out in the partition's own order."""
    for i, l in antidiagonal_pairs(0, 1):
        if position in partition.block(i, l):
            return (i, l)


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
        for z in b_terms(n, alpha):
            for s in w.elements:
                if consistent(z, s):
                    beyond = sum(1 for p, _ in z.constraints if p >= len(s))
                    covered += Fraction(1, 2 ** (len(s) + beyond))
        if alpha - covered <= allowance:
            return alpha
    return Fraction(0)


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


def replay_reset(r, sigma):
    """ResetStrategy r at sigma, replaying its base bit by bit from the root."""
    blocks = set(r.blocks.elements)
    cap = ONE
    tau = ""
    for bit in sigma:
        den = r.base.value(tau)
        if den == 0:
            raise DeadCapital(f"base martingale dies at {tau!r} inside a block")
        tau += bit
        cap = cap * r.base.value(tau) / den
        if tau in blocks:
            tau = ""
    return cap
