"""Kraft-Chaitin allocation, finite prefix-free machines, and dyadic series.

The allocator hands each (length, target) request the leftmost free dyadic
interval of its size.  Leftmost fit keeps the free intervals in strictly
increasing size from left to right, so an admissible request list (weight
at most 1) can never fail: when all free intervals are smaller than a
request, the total free measure is below the requested size.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import AllocationFailed, NonMonotone, NTooSmall, SumMismatch, WeightOverflow
from .pairing import cantor_pair, cantor_unpair
from .reports import Report
from .space import ZERO, check_bits, cylinder_measure, lenlex_key, record


@record(slots=True, eq=False)
class KCRequestList:
    """List of (code length, target) requests with Kraft weight <= 1."""

    fields = {"requests": [(int, str)]}

    def __post_init__(self):
        reqs = []
        for k, sigma in self.requests:
            if type(k) is not int:
                raise ValueError(f"code length {k!r} is not an integer")
            if k < 0:
                raise ValueError("negative code length")
            reqs.append((k, check_bits(sigma)))
        self.requests = tuple(reqs)
        if (weight := self.weight) > 1:
            raise WeightOverflow(f"Kraft weight {weight} > 1")

    @property
    def weight(self) -> Fraction:
        return sum((Fraction(1, 2 ** k) for k, _ in self.requests), start=ZERO)

    def __iter__(self):
        return iter(self.requests)

    def __len__(self):
        return len(self.requests)


@record(slots=True, eq=False)
class Machine:
    """Finite prefix-free code table p -> output, with exact domain measure."""

    fields = {"table": {str: str}}

    def __post_init__(self):
        entries = sorted(self.table.items(), key=lambda kv: lenlex_key(kv[0]))
        progs = [check_bits(p) for p, _ in entries]
        for out in self.table.values():
            check_bits(out)
        by_lex = sorted(progs)
        for a, b in zip(by_lex, by_lex[1:]):
            if b.startswith(a):
                raise ValueError(f"domain not prefix-free: {a!r} prefixes {b!r}")
        self.table = dict(entries)

    @property
    def domain_measure(self) -> Fraction:
        return sum((cylinder_measure(p) for p in self.table), start=ZERO)

    def __len__(self):
        return len(self.table)

    def __repr__(self):
        return f"Machine({self.table!r})"


def kc_build(requests: KCRequestList | Iterable[tuple[int, str]]) -> Machine:
    """Allocate codes by leftmost fit, in input order.

    The free space is a list of disjoint dyadic intervals [rho], kept sorted
    by left endpoint; a request of length k takes the first interval of size
    >= 2^-k, carves its leftmost 2^-k block, and returns the right-hand
    fragments to the free list.
    """
    if not isinstance(requests, KCRequestList):
        requests = KCRequestList(requests)
    free = [""]
    table: dict[str, str] = {}
    for k, sigma in requests:
        idx = next((i for i, rho in enumerate(free) if len(rho) <= k), None)
        # Admissibility (checked at construction) rules out failure here.
        if idx is None:
            raise AllocationFailed(
                f"leftmost fit found no free interval for length {k} ({sigma!r})")
        rho = free.pop(idx)
        code = rho + "0" * (k - len(rho))
        fragments = [rho + "0" * j + "1" for j in range(k - len(rho))]
        free[idx:idx] = sorted(fragments)
        table[code] = sigma
    return Machine(table)


def complexity(m: Machine, sigma: str) -> int | None:
    """K_M(sigma): length of the shortest program, None when outside range."""
    check_bits(sigma)
    lengths = [len(p) for p, out in m.table.items() if out == sigma]
    return min(lengths) if lengths else None


class DyadicFunction:
    """Finite nonnegative dyadic-valued function.

    Keys are all naturals or all bit strings; zero values are dropped, so
    the stored entries, its `values`, are exactly the support.  sum is the
    exact sum of the values; a sum given to the constructor must equal it.
    """

    __slots__ = ("entries", "sum")
    fields = {"values": [(object, Fraction)], "sum?": Fraction}

    def __init__(self, values: Mapping | Iterable[tuple], sum: Fraction | None = None):
        items = values.items() if isinstance(values, Mapping) else list(values)
        cleaned = []
        total = ZERO
        for key, v in items:
            v = Fraction(v)
            if v < 0:
                raise ValueError("negative value")
            den = v.denominator
            if den & (den - 1):
                raise ValueError(f"non-dyadic value {v}")
            if isinstance(key, bool) or not isinstance(key, (int, str)):
                raise ValueError(f"bad key {key!r}")
            if isinstance(key, str):
                check_bits(key)
            if v != 0:
                cleaned.append((key, v))
                total += v
        kinds = {type(k) for k, _ in cleaned}
        if len(kinds) > 1:
            raise ValueError("keys must be all naturals or all strings")
        if sum is not None and sum != total:
            raise ValueError(f"declared sum {sum} != sum of the values {total}")
        keyfn = (lambda kv: lenlex_key(kv[0])) if kinds == {str} else (lambda kv: kv[0])
        cleaned.sort(key=keyfn)
        self.entries = tuple(cleaned)
        self.sum = total

    values = property(lambda self: self.entries)

    def __call__(self, key) -> Fraction:
        for k, v in self.entries:
            if k == key:
                return v
        return ZERO

    def support(self):
        return [k for k, _ in self.entries]

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, DyadicFunction) and self.entries == other.entries

    def __repr__(self):
        return f"DyadicFunction({dict(self.entries)!r})"


def machine_to_f(m: Machine) -> tuple[DyadicFunction, Report]:
    """f(sigma) = 2^-K_M(sigma) on the range of M.

    The sum is bounded by the domain measure: duplicate programs for one
    target contribute their weight to dom(M) but not to f.
    """
    values = {}
    for p, sigma in m.table.items():
        best = values.get(sigma)
        cur = cylinder_measure(p)
        if best is None or cur > best:
            values[sigma] = cur
    f = DyadicFunction(values)
    rep = Report("machine-to-series")
    rep.put("domain_measure", m.domain_measure)
    rep.put("sum", f.sum)
    rep.check("sum f <= domain measure", f.sum, "<=", m.domain_measure)
    return f, rep


def ceil_log2(fr: Fraction) -> int:
    """Smallest integer k with 2^k >= fr, for fr > 0; exact."""
    fr = Fraction(fr)
    if fr <= 0:
        raise ValueError("need a positive argument")
    p, q = fr.numerator, fr.denominator
    k = p.bit_length() - q.bit_length() - 1
    while (2 ** k if k >= 0 else Fraction(1, 2 ** -k)) < fr:
        k += 1
    return k


def g_to_machine(g: DyadicFunction, c: int) -> tuple[Machine, Report]:
    """Machine realizing K(sigma) <= ceil(-log2 g(sigma)) + c + 1.

    Requests use only the minimal admissible length per target (the full
    geometric tail of admissible lengths would merely double the weight);
    admissibility is verified at run time, and overflow signals that c is
    too small for sum(g).
    """
    if c < 0:
        raise ValueError("negative constant")
    if any(not isinstance(k, str) for k in g.support()):
        raise ValueError("machine targets must be bit strings")
    reqs = []
    for sigma, v in g.entries:
        k = c + 1 + ceil_log2(1 / v)
        if k < 0:
            k = 0
        reqs.append((k, sigma))
    weight = sum((Fraction(1, 2 ** k) for k, _ in reqs), start=ZERO)
    if weight > 1:
        raise WeightOverflow(
            f"request weight {weight} > 1: constant c={c} too small, try c+1")
    machine = kc_build(KCRequestList(reqs))
    rep = Report("series-to-machine")
    rep.put("c", c)
    rep.put("request_weight", weight)
    rep.check("request weight <= 1", weight, "<=", Fraction(1))
    for sigma, v in g.entries:
        bound = ceil_log2(1 / v) + c + 1
        rep.check(f"K({sigma!r}) <= ceil(-log2 g) + c + 1",
                  complexity(machine, sigma), "<=", bound)
    return machine, rep


def flatten_staged(stages: Sequence[DyadicFunction]) -> DyadicFunction:
    """Per-stage increases, spread over pair codes <i, t>.

    Turns a monotone staged table into a single-shot function with the same
    total sum; aggregate_pairs is the exact inverse direction.
    """
    if not stages:
        return DyadicFunction({})
    keys = sorted({k for st in stages for k in st.support()})
    if any(not isinstance(k, int) for k in keys):
        raise ValueError("flattening needs natural-number indices")
    out = {}
    # Each stage read once; reversed, as st(i) is the first entry of key i.
    tables = [dict(reversed(st.entries)) for st in stages]
    for i in keys:
        prev = ZERO
        for t, table in enumerate(tables):
            cur = table.get(i, ZERO)
            if cur < prev:
                raise NonMonotone(f"index {i} decreases at stage {t}")
            if cur > prev:
                out[cantor_pair(i, t)] = cur - prev
            prev = cur
    flat = DyadicFunction(out)
    if flat.sum != stages[-1].sum:
        raise SumMismatch(f"flattened sum {flat.sum} != last stage sum "
                          f"{stages[-1].sum}")
    return flat


def aggregate_pairs(h: DyadicFunction) -> DyadicFunction:
    """g(i) = sum over t of h(<i, t>): undoes flatten_staged exactly."""
    out: dict[int, Fraction] = {}
    for key, v in h.entries:
        if not isinstance(key, int):
            raise ValueError("aggregation needs natural-number keys")
        i, _ = cantor_unpair(key)
        out[i] = out.get(i, ZERO) + v
    return DyadicFunction(out)


def normalize_sum(f: DyadicFunction, n: int) -> DyadicFunction:
    """Bump the anchor entry so the sum becomes exactly N; domination carries.

    Any g >= the result also dominates f, since only one value grew.
    """
    total = f.sum
    if n < total:
        raise NTooSmall(f"target {n} below current sum {total}")
    anchor = "" if any(isinstance(k, str) for k in f.support()) else 0
    out = dict(f.entries)
    out[anchor] = out.get(anchor, ZERO) + (n - total)
    return DyadicFunction(out)
