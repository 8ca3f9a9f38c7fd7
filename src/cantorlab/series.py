"""Series <-> open set constructions through coordinate and interval blocks.

Cantor space doubles as a product of unit intervals: coordinate n reads its
binary digits at the bit positions the diagonal pairing assigns to n.  The
sets built here (coordinate intervals [0, alpha), all-zero interval blocks)
are unions of sets pinned at finitely many positions, each given as a plain
list of (position, bit) pins; the set kernel builds their unions as
generator tries by a memoized tree walk and tests their containment by a
walk along the pinned bits, so measures stay exact however the pins
interleave.  A position no pin fixes costs one shared trie node, not a
doubling of the generators; but that node's generator count and measure
numerator are integers about as long as its height, so memory grows with
the square of the last pin's position.  The pairing and the interval
partition are fixed, and both are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coding import DyadicFunction
from .covers import TestFamily
from .errors import (
    InvalidThreshold,
    MissingStage,
    NonDyadicAlpha,
    SearchExhausted,
    Unbounded,
    ValueOverOne,
    WeightTooLarge,
)
from .martingales import BettingStrategy, peak
from .pairing import cantor_pair
from .reports import Report
from . import space
from .space import (
    ONE,
    ZERO,
    Natural,
    PrefixFreeSet,
    StagedOpenSet,
    measure,
)

# Coordinate n reads its digit j at bit position cantor_pair(n, j).
PAIRING_RULE = "antidiagonal pairing (n, j) -> (n+j)(n+j+1)/2 + j"


class IntervalPartition:
    """Partition of the bit positions into blocks I_(i,l) of length l.

    Pairs (i, l), l >= 1, are laid out antidiagonal by antidiagonal (s = i + l
    ascending, i ascending within one) into consecutive blocks; the
    placement order is immaterial for the measure facts, it is fixed here
    for reproducibility.  The antidiagonals before s hold (s-1)s(s+1)/6
    positions and the blocks before (i, l) on its own antidiagonal
    i*s - i(i-1)/2, so each block is found in closed form.
    """

    rule = "antidiagonal pairs (i, l), l >= 1, in consecutive blocks"

    def block(self, i: int, l: int) -> range:
        if l < 1 or i < 0:
            raise ValueError("need i >= 0 and l >= 1")
        s = i + l
        start = (s - 1) * s * (s + 1) // 6 + i * s - i * (i - 1) // 2
        return range(start, start + l)


PARTITION = IntervalPartition()


def _zeros(i: int, l: int) -> list[tuple[int, str]]:
    """Pins of the all-zero block I_(i,l)."""
    return [(p, "0") for p in PARTITION.block(i, l)]


def _dyadic_bits(alpha: Fraction) -> str:
    """Binary digits of a dyadic alpha in [0, 1)."""
    den = alpha.denominator
    if den & (den - 1):
        raise NonDyadicAlpha(f"{alpha} is not dyadic")
    t = den.bit_length() - 1
    return format(alpha.numerator, f"0{t}b") if t else ""


def b_terms(n: int, alpha: Fraction) -> list[list[tuple[int, str]]]:
    """Disjoint pinned sets tiling {X : coordinate n lies in [0, alpha)}.

    For each 1-digit of alpha at fractional position i, one pin list fixes
    the first i-1 digits to alpha's and the i-th to 0.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 1:
        return [[]]
    bits = _dyadic_bits(alpha)
    terms = []
    for i, digit in enumerate(bits, start=1):
        if digit == "1":
            pins = [(cantor_pair(n, j), bits[j]) for j in range(i - 1)]
            pins.append((cantor_pair(n, i - 1), "0"))
            terms.append(pins)
    return terms


def b_set(n: int, alpha: Fraction) -> PrefixFreeSet:
    """Generator set of the coordinate interval event, with measure alpha."""
    return space.pinned_union(b_terms(n, alpha))


def series_to_open(f: DyadicFunction) -> tuple[PrefixFreeSet, Fraction, Report]:
    """Union of coordinate events B_(n, f(n)); independence gives the product law.

    Returns the generator set, the product measure 1 - prod(1 - f(n)), and a
    report asserting the generator-set measure equals it exactly.
    """
    terms = []
    product = ONE
    for n, v in f.entries:
        if not isinstance(n, int):
            raise ValueError("series must be indexed by naturals")
        if v > 1:
            raise ValueOverOne(f"f({n}) = {v} > 1")
        terms.extend(b_terms(n, v))
        product *= 1 - v
    u = space.pinned_union(terms)
    expected = 1 - product
    rep = Report("series-to-open")
    rep.put("pairing", PAIRING_RULE)
    rep.check("measure(U) == 1 - prod(1 - f(n))", measure(u), "==", expected)
    return u, expected, rep


def _grid_max(t: int, ok) -> Fraction:
    """Largest alpha = m / 2^t, 0 <= m <= 2^t, with ok(alpha), by bisection.

    ok must hold at 0 and, once it fails, fail for every larger alpha, as it
    does for a test on B_(n, alpha), which grows with alpha.
    """
    # Grid point lo passes; hi fails or lies past the grid.
    lo, hi = 0, 2 ** t + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(Fraction(mid, 2 ** t)):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 2 ** t)


def open_to_series_sup(v: PrefixFreeSet, n: int) -> Fraction:
    """Largest dyadic alpha on the visible grid with B_(n, alpha) inside [V].

    The grid step is 2^-t where t counts the positions of coordinate n that
    fall inside the generator depth of V; for finite V the true supremum is
    dyadic and lies on that grid.
    """
    if measure(v) == 1:
        return ONE
    t = 0
    while cantor_pair(n, t) < v.maxlen:
        t += 1
    return _grid_max(t, lambda alpha: all(
        space.covers_pinned(v, pins) for pins in b_terms(n, alpha)))


def open_to_series_approx(v: StagedOpenSet, n: int, c: int) -> Fraction:
    """Largest grid alpha with mu(B_(n, alpha) minus stage n) <= 2^-(n+c).

    Works from the stage-n clopen approximation instead of the full set, the
    price being the 2^-(n+c) leak allowance.  The leak is exact: with
    B = B_(n, alpha) and W the stage, mu(B minus [W]) = mu(B cup [W]) - mu(W).
    """
    if n < 0:
        raise ValueError("negative n")
    if n >= len(v.stages):
        raise MissingStage(f"staged set has no stage {n}")
    w = v.stages[n]
    allowance = Fraction(1, 2 ** (n + c))
    t = n + c
    while cantor_pair(n, t) < w.maxlen:
        t += 1
    mu_w = measure(w)
    return _grid_max(t, lambda alpha: (
        measure(space.union(b_set(n, alpha), w)) - mu_w <= allowance))


def vn_from_g(g: DyadicFunction, n: int) -> tuple[PrefixFreeSet, Report]:
    """Threshold set V_n = {sigma : g(sigma) > 2^-|sigma| n/2}, bounded by 2S/n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if any(not isinstance(k, str) for k in g.support()):
        raise ValueError("needs a string-indexed series")
    chosen = [s for s, val in g.entries
              if val > Fraction(n, 2) * space.cylinder_measure(s)]
    v = space.reduce(chosen)
    total = g.sum
    rep = Report("vn-from-g")
    rep.put("n", n)
    rep.put("sum", total)
    rep.check("measure(V_n) <= 2S/n", measure(v), "<=", 2 * total / n)
    return v, rep


def f_from_test(test: TestFamily) -> tuple[DyadicFunction, Report]:
    """f(sigma) = 2^-|sigma| * (largest level index listing sigma).

    The sum is dominated by sum over n of n * mu(level n), reported exactly.
    """
    best: dict[str, int] = {}
    for n in test.indices():
        for s in test.levels[n]:
            best[s] = max(best.get(s, 0), n)
    f = DyadicFunction({s: Fraction(n, 2 ** len(s)) for s, n in best.items()})
    bound = sum(
        (n * measure(test.levels[n]) for n in test.indices()), start=ZERO
    )
    rep = Report("f-from-test")
    rep.check("sum f <= sum n * mu(level n)", f.sum, "<=", bound)
    return f, rep


def _exponents(exponents: Sequence[int]) -> tuple[int, ...]:
    """The exponents as ints, a negative one refused before any arithmetic."""
    out = tuple(int(a) for a in exponents)
    if any(a < 0 for a in out):
        raise ValueError("negative exponent")
    return out


class BlockDoubler(BettingStrategy):
    """Reserves q 2^-a_i per index and doubles it on zeros across block i.

    On the interval assigned to (i, a_i) the reserved amount rides
    double-or-nothing on the bit being 0; one wrong bit forfeits exactly the
    reserve.  Elsewhere the strategy does not bet.  Reserves total q times
    the series sum < 1, so the capital stays positive.
    """

    kind = "block-doubler"
    fields = {"exponents": [Natural], "q": Fraction}

    def __init__(self, exponents: Sequence[int], q: Fraction):
        super().__init__()
        self.exponents = _exponents(exponents)
        self.q = Fraction(q)
        reserved = sum((self.q * Fraction(1, 2 ** a) for a in self.exponents),
                       start=ZERO)
        if reserved > 1:
            raise WeightTooLarge(
                f"reserves {reserved} exceed the unit starting capital")
        self._bets: dict[int, tuple[int, Fraction]] = {}
        for i, a in enumerate(self.exponents):
            for p in PARTITION.block(i, a):
                self._bets[p] = (i, self.q * Fraction(1, 2 ** a))
        self._last_bet = max(self._bets, default=-1)

    def _compute(self, sigma: str) -> tuple[int, int]:
        capital = ONE
        stakes: dict[int, Fraction] = {}
        for pos, bit in enumerate(sigma):
            bet = self._bets.get(pos)
            if bet is None:
                continue
            i, reserve = bet
            stake = stakes.setdefault(i, reserve)
            if stake == 0:
                continue
            if bit == "0":
                capital += stake
                stakes[i] = 2 * stake
            else:
                capital -= stake
                stakes[i] = ZERO
        return capital.as_integer_ratio()

    def flat_beyond(self, sigma: str) -> bool:
        return len(sigma) > self._last_bet


def encode_series(exponents: Sequence[int], q: Fraction
                  ) -> tuple[PrefixFreeSet, BettingStrategy, Report]:
    """All-zero interval blocks for each exponent, plus the doubling strategy.

    Requires sum 2^-a_i < 1/q.  Certifies the product-law measure of the
    union and, per index, that the worst-case capital at the end of block i
    over all bit choices outside it is still at least q: block gains and
    losses are independent across blocks, and a loss costs exactly the
    reserve, so the worst case is exact arithmetic, not sampling.
    """
    q = Fraction(q)
    if q <= 1:
        raise InvalidThreshold("need q > 1")
    exponents = _exponents(exponents)
    weight = sum((Fraction(1, 2 ** a) for a in exponents), start=ZERO)
    if weight >= 1 / q:
        raise WeightTooLarge(f"sum 2^-a_i = {weight} >= 1/q = {1 / q}")
    u = space.pinned_union([_zeros(i, a) for i, a in enumerate(exponents)])
    product = ONE
    for a in exponents:
        product *= 1 - Fraction(1, 2 ** a)
    rep = Report("encode-series")
    rep.put("partition", PARTITION.rule)
    rep.put("q", q)
    rep.put("reserved_total", q * weight)
    rep.check("measure(U) == 1 - prod(1 - 2^-a_i)", measure(u), "==", 1 - product)
    d = BlockDoubler(exponents, q)
    for i, a in enumerate(exponents):
        end = PARTITION.block(i, a).stop
        loss = sum(
            (q * Fraction(1, 2 ** aj) for j, aj in enumerate(exponents)
             if j != i and PARTITION.block(j, aj).start < end),
            start=ZERO,
        )
        worst = 1 + q * (1 - Fraction(1, 2 ** a)) - loss
        rep.check(f"worst capital at end of block {i} >= q", worst, ">=", q)
    return u, d, rep


@dataclass(slots=True, eq=False)
class ExtractionResult:
    block_lengths: tuple[int | None, ...]
    series: DyadicFunction
    report: Report


def extract_series(w: PrefixFreeSet, count: int, lmax: int) -> ExtractionResult:
    """Read a dominating series back off a bounded cover.

    b_i is the least block length l <= lmax whose all-zero block sits inside
    [W]; g(i) = 2^-b_i.  Indices with no covered block at the horizon get an
    infinity marker (None) and contribute 0 to the series.
    """
    if count < 0 or lmax < 0:
        raise ValueError("negative count or lmax")
    if measure(w) >= 1:
        raise Unbounded("need measure(W) < 1")
    lengths: list[int | None] = []
    values = {}
    product = ONE
    for i in range(count):
        found = None
        for l in range(1, lmax + 1):
            if space.covers_pinned(w, _zeros(i, l)):
                found = l
                break
        lengths.append(found)
        if found is not None:
            values[i] = Fraction(1, 2 ** found)
            product *= 1 - Fraction(1, 2 ** found)
    rep = Report("extract-series")
    rep.put("block_lengths", [l if l is not None else "infinity" for l in lengths])
    rep.check("1 - prod(1 - 2^-b_i) <= measure(W)", 1 - product, "<=", measure(w))
    return ExtractionResult(tuple(lengths), DyadicFunction(values), rep)


def tree_embed(d: BettingStrategy, depth: int, budget: int = 10
               ) -> tuple[dict[str, str], Report]:
    """Embed the full binary tree while pinning the capital below 2.

    Each node's image extends its parent's by a pair of incomparable strings
    along which the capital never exceeds 2 - 2^-(k+1); breadth-first,
    shortest then leftmost, so the map is deterministic.  budget caps the
    extension length searched per step.
    """
    if depth < 0:
        raise ValueError("negative depth")
    if d.value("") != 1:
        raise ValueError("tree embedding needs a normed strategy")
    mapping = {"": ""}
    level = [""]  # the nodes of length k in lexicographic order
    for k in range(depth):
        bound = 2 - Fraction(1, 2 ** (k + 1))
        for node in level:
            # Incomparable strings below the bound first appear as siblings,
            # so one path is followed until both children of its end qualify.
            tau = mapping[node]
            end, path = tau, []
            for _ in range(max(budget, 1)):
                low = [end + b for b in "01" if d.value(end + b) <= bound]
                if len(low) != 1:
                    break
                end = low[0]
                path.append(end)
            if len(low) != 2:
                raise SearchExhausted(
                    f"no incomparable pair below {bound} within {budget} bits of {tau!r}",
                    frontier=path,
                )
            mapping[node + "0"], mapping[node + "1"] = low
        level = [node + b for node in level for b in "01"]
    rep = Report("tree-embed")
    names = list(mapping)  # inserted level by level: length-lex order
    rep.record("monotone strict extensions", all(
        mapping[s + b].startswith(mapping[s]) and len(mapping[s + b]) > len(mapping[s])
        for s in names for b in "01" if s + b in mapping
    ))
    # Incomparable nodes extend distinct siblings: with monotone extension,
    # incomparable sibling images give every pair.
    rep.record("incomparability preserved", not any(
        a.startswith(b) or b.startswith(a) for a, b in
        ((mapping[s + "0"], mapping[s + "1"]) for s in names if s + "0" in mapping)))
    worst_overall = ZERO
    for s in names:
        tau = mapping[s]
        worst = peak(d, tau)
        worst_overall = max(worst_overall, worst)
        rep.check(f"capital along image of {s!r} <= 2 - 2^-|{s}|",
                  worst, "<=", 2 - Fraction(1, 2 ** len(s)))
    rep.check("capital on all images <= 2", worst_overall, "<=", Fraction(2))
    return mapping, rep
