"""sparse_blocks: interval-block round trips, b_set and series_to_open jobs.

Why: generator materialization (series.union_generators feeding the space
kernel) does almost all the work, and outputs span 1 to 123,904 generators.
This is where a kernel that skips free bit positions must show its gain in
jobs_per_s, job_tail_ms and peak_rss_mb.  Heaviest jobs: the (4, 3, 2)
round trip (123,904 generators), then the space kernel calls on its output
and the 33,8xx-generator b_set jobs.
"""

from __future__ import annotations

from fractions import Fraction

import gen
from gen import Kind
from harness import expect

NAME = "sparse_blocks"
VARIANTS = 64

# Criterion-8 exponent lists by output size; every block they use ends at
# bit position 19 at the latest.
HEAVY = [(4, 3, 2)]                                  # 123,904 generators
MEDIUM = [(4, 3), (1, 3)]                            # 16,384 and 8,193
LIGHT = [(1,), (2,), (2, 1), (3,), (3, 1), (1, 2), (2, 2), (3, 2),
         (3, 2, 1), (4, 1), (4, 2), (4,)]            # 1-1,024
# b_set(n, alpha) at the finest alpha that stays near 34k generators.
BSET_HEAVY = [(0, Fraction(63, 64)), (1, Fraction(31, 32)), (2, Fraction(15, 16))]


def _one_minus_product(exps):
    product = Fraction(1)
    for a in exps:
        product *= 1 - Fraction(1, 2 ** a)
    return 1 - product


def round_trip(lib, exps, ctx, tr):
    """encode_series, the capital checks at block points, extract_series."""
    exps = list(exps)
    weight = sum(Fraction(1, 2 ** a) for a in exps)
    q = (1 + 1 / weight) / 2
    u, d, rep = tr.call("series.encode_series", lib.series.encode_series, exps, q)
    tr.count("series.gens_out", len(u))
    expect(rep.passed, "encode_series certificate")
    mu = gen.measure(lib, tr, u)
    expect(mu == _one_minus_product(exps), "measure(U) == 1 - prod(1 - 2^-a_i)")
    part = lib.series.PARTITION
    for i, a in enumerate(exps):
        block = part.block(i, a)
        for filler in "10":
            head = "".join("0" if p in block else filler for p in range(block.stop))
            x = lib.space.PeriodicPoint(head, "1")
            expect(gen.value(tr, d, x.prefix(block.stop)) >= q,
                   f"block-point capital >= q (block {i}, filler {filler})")
    res = tr.call("series.extract_series", lib.series.extract_series,
                  u, len(exps), max(exps))
    found = [b for b in res.block_lengths if b is not None]
    tr.count("series.extract_series.asked", len(exps))
    tr.count("series.extract_series.hits", len(found))
    expect(res.report.passed, "extract_series certificate")
    expect(len(found) == len(exps)
           and all(b <= a for b, a in zip(res.block_lengths, exps)), "b_i <= a_i")
    expect(_one_minus_product(found) <= mu, "1 - prod(1 - 2^-b_i) <= measure(U)")
    return {"set": u, "encode": rep, "extract": res.report}


def heavy_round_trip(lib, exps, ctx, tr):
    """The heavy round trip; its output feeds the kernel jobs of the pass."""
    payload = round_trip(lib, exps, ctx, tr)
    ctx["big"] = payload["set"]
    return payload


def b_set(lib, inp, ctx, tr):
    n, alpha = inp
    out = tr.call("series.b_set", lib.series.b_set, n, alpha)
    tr.count("series.gens_out", len(out))
    expect(gen.measure(lib, tr, out) == alpha, "measure(b_set) == alpha")
    return {"n": n, "alpha": alpha, "set": out}


def heavy_b_set(lib, inp, ctx, tr):
    payload = b_set(lib, inp, ctx, tr)
    ctx.setdefault("bsets", {})[inp[0]] = payload["set"]
    return payload


def make_bset_light(lib, rng):
    """B(n, alpha) with 1,024-1,099 generators: the digit count per
    coordinate is fixed and an odd numerator keeps the deepest piece, so
    the seed moves the set but hardly its size."""
    n = rng.randint(0, 3)
    k = 5 - n
    return n, Fraction(rng.randrange(1, 2 ** k, 2), 2 ** k)


def make_series(lib, rng):
    values = {n: Fraction(rng.randrange(1, 8, 2), 8) for n in range(3)}
    return lib.coding.DyadicFunction(values)


def run_series(lib, f, ctx, tr):
    u, product, rep = tr.call("series.series_to_open", lib.series.series_to_open, f)
    tr.count("series.gens_out", len(u))
    expect(rep.passed and gen.measure(lib, tr, u) == product,
           "measure(U) == 1 - prod(1 - f(n))")
    sups = []
    for n, v in f.entries:
        sups.append(tr.call("series.open_to_series_sup",
                            lib.series.open_to_series_sup, u, n))
        expect(sups[-1] >= v, "sup alpha >= f(n)")
    return {"set": u, "product": product, "report": rep, "sups": sups}


# ---------------------------------------------------------------------------
# Space kernel calls on the large outputs of the head jobs of the pass.

def k_measure(lib, inp, ctx, tr):
    mu = gen.measure(lib, tr, ctx["big"])
    expect(mu == _one_minus_product(HEAVY[0]), "measure of the heavy union")
    return mu


def make_sigma(lib, rng):
    return gen.bits(rng, rng.randint(10, 14))


def k_condition(lib, sigma, ctx, tr):
    big = ctx["big"]
    parts = [gen.condition(lib, tr, big, sigma + b) for b in ("", "0", "1")]
    m = [gen.measure(lib, tr, c) for c in parts]
    expect(2 * m[0] == m[1] + m[2], "mu(U|s) is the mean of mu(U|s0), mu(U|s1)")
    return parts[0]


def make_probe(lib, rng):
    """Three generator indices to extend, plus two free strings."""
    return ([rng.randrange(1 << 30) for _ in range(3)],
            [gen.bits(rng, 3) for _ in range(3)],
            gen.words(rng, 24, 2, minlen=12))


def k_covers(lib, inp, ctx, tr):
    picks, tails, free = inp
    big = ctx["big"]
    elems = big.elements
    inside = lib.space.PrefixFreeSet(
        sorted({elems[i % len(elems)] + t for i, t in zip(picks, tails)}))
    expect(gen.covers(lib, tr, big, inside), "U covers extensions of its generators")
    return [gen.covers(lib, tr, big, lib.space.PrefixFreeSet([s])) for s in free]


def make_point(lib, rng):
    return gen.point(lib, rng, head_max=24, period_max=3)


def k_member(lib, x, ctx, tr):
    return gen.member(lib, tr, ctx["big"], x)


def k_union(lib, inp, ctx, tr):
    big = ctx["big"]
    other = lib.space.reduce(inp[2])
    out = gen.union(lib, tr, big, other)
    expect(gen.measure(lib, tr, out) >= gen.measure(lib, tr, big),
           "union does not lose measure")
    return out


def k_reduce(lib, inp, ctx, tr):
    picks, tails, _ = inp
    big = ctx["big"]
    elems = big.elements
    extended = list(elems) + [elems[i % len(elems)] + t for i, t in zip(picks, tails)]
    expect(gen.reduce(lib, tr, extended) == big, "reduce drops extensions only")
    return len(extended)


def k_build(lib, inp, ctx, tr):
    big = ctx["big"]
    expect(gen.build_set(lib, tr, big.elements[::-1]) == big,
           "construction is order independent")
    return len(big)


def make_power(lib, rng):
    while True:
        u = gen.prefix_free(lib, rng, 3, 6)
        if len(u) == 4 and "" not in u:
            return u


def k_power(lib, u, ctx, tr):
    p = gen.power(lib, tr, u, 7)
    expect(gen.measure(lib, tr, p) == gen.measure(lib, tr, u) ** 7,
           "measure(U^n) == measure(U)^n")
    return p


# (n, a) for the nested check against the heavy b_set of coordinate 0.
NESTED = [(0, Fraction(5, 8))]


def k_nested(lib, inp, ctx, tr):
    """B(n, a) sits inside B(n, alpha) for a <= alpha: a covers check and
    the sup read back off the heavy b_set."""
    n, a = inp
    big = ctx["bsets"][n]
    small = tr.call("series.b_set", lib.series.b_set, n, a)
    expect(gen.covers(lib, tr, big, small), "B(n, a) inside B(n, alpha)")
    sup = tr.call("series.open_to_series_sup", lib.series.open_to_series_sup, big, n)
    expect(sup == dict(BSET_HEAVY)[n], "sup of B(n, alpha) is alpha")
    return sup


# Kernel probes: two catalogue entries each, all run in every pass.
PROBES = 2

KINDS = {
    "rt_heavy": Kind(HEAVY, heavy_round_trip, warm=False),
    "bset_heavy": Kind(BSET_HEAVY, heavy_b_set, warm=False),
    "rt_medium": Kind(MEDIUM, round_trip, warm=False),
    "rt_light": Kind(LIGHT, round_trip),
    "bset_light": Kind(make_bset_light, b_set, VARIANTS),
    "series": Kind(make_series, run_series, VARIANTS),
    "k_measure": Kind([None], k_measure, warm=False),
    "k_condition": Kind(make_sigma, k_condition, PROBES, warm=False),
    "k_covers": Kind(make_probe, k_covers, PROBES, warm=False),
    "k_member": Kind(make_point, k_member, PROBES, warm=False),
    "k_union": Kind(make_probe, k_union, 1, warm=False),
    "k_reduce": Kind(make_probe, k_reduce, 1, warm=False),
    "k_build": Kind([None], k_build, warm=False),
    "k_power": Kind(make_power, k_power, PROBES, warm=False),
    "k_nested": Kind(NESTED, k_nested, warm=False),
}

# Every job whose size or memory matters runs in the head, in a fixed order
# and on fixed inputs, so the seed moves neither the pass cost nor the peak
# memory; the seed draws the light body (about 1k-generator b_sets, whose
# cluster holds the median job, and series_to_open) and its order.
HEAD = [(kind, None) for kind in ("rt_heavy", "bset_heavy", "k_measure",
                                  "k_condition", "k_covers", "k_member", "k_union",
                                  "k_reduce", "k_build", "k_power", "k_nested",
                                  "rt_medium")]
BODY = [("rt_light", None), ("bset_light", 40), ("series", 8)]
