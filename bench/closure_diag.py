"""closure_diag: thousands of small closure, martingale and diagonal jobs.

Why: the set kernel is called 10^4-10^5 times per pass on sets of at most a
few dozen generators, so per-call overhead, not generator count, decides
the throughput here.  A kernel that wins on sparse_blocks can lose here.
Each job builds its strategy objects afresh, as a user's job does, so the
BettingStrategy value cache starts empty every time.  Heaviest jobs: the
CR-provider diagonalizations and p3_cr.
"""

from __future__ import annotations

from fractions import Fraction

import gen
from gen import Kind
from harness import expect

NAME = "closure_diag"
VARIANTS = 64


def _table_winners(values: dict, q: Fraction, depth: int) -> list[str]:
    """Minimal strings of a value table reaching q, searched to depth."""
    out, stack = [], [""]
    while stack:
        s = stack.pop()
        if values[s] >= q:
            out.append(s)
        elif len(s) < depth:
            stack += [s + "1", s + "0"]
    return out


# ---------------------------------------------------------------------------
# Martingale layer.

def make_vk(lib, rng):
    return (gen.fair_table(lib, rng, 8, positive=True),
            gen.bits(rng, rng.randint(0, 7)), Fraction(rng.randint(9, 64), 8))


def run_vk(lib, inp, ctx, tr):
    table, sigma, q = inp
    rep = tr.call("martingales.verify_ville_kolmogorov",
                  lib.martingales.verify_ville_kolmogorov, table, sigma, q)
    expect(rep.passed, "Ville-Kolmogorov bound")
    return rep


def make_reset(lib, rng):
    while True:
        values = gen.fair_values(rng, 4, positive=True)
        q = Fraction(rng.randint(9, 14), 8)
        blocks = _table_winners(values, q, 4)
        if 1 <= len(blocks) <= 3:
            return (lib.martingales.MartingaleTable(4, values), q,
                    lib.space.PrefixFreeSet(blocks))


def run_reset(lib, inp, ctx, tr):
    table, q, blocks = inp
    d = lib.martingales.TableStrategy(table)
    w = gen.winning_set(lib, tr, d, q, 4)
    expect(w.generators == blocks, "winning set equals the table's winners")
    strat = tr.call("martingales.reset", lib.martingales.reset, d, q, w.generators)
    capitals = []
    block_words = [""]
    for k in range(1, 5):
        block_words = [a + b for a in block_words for b in blocks]
        caps = [gen.value(tr, strat, s) for s in block_words]
        expect(all(c >= q ** k for c in caps), f"block-word capital >= q^{k}")
        capitals.append(caps)
    return {"blocks": w, "capitals": capitals}


def make_wset(lib, rng):
    return (gen.strategy_spec(lib, rng), Fraction(rng.choice((3, 4, 6, 8)), 2),
            rng.randint(3, 7))


def run_wset(lib, inp, ctx, tr):
    spec, q, depth = inp
    d = gen.build_strategy(lib, spec)
    w = gen.winning_set(lib, tr, d, q, depth)
    mu = gen.measure(lib, tr, w.generators)
    expect(mu <= gen.value(tr, d, "") / q, "winning-set measure <= d(e)/q")
    return w


def _fair_to(tr, d, depth):
    """Capitals to depth, each node checked against its children."""
    caps, frontier = {}, [""]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            here = gen.value(tr, d, s)
            kids = [gen.value(tr, d, s + b) for b in "01"]
            expect(2 * here == kids[0] + kids[1], f"fairness at {s!r}")
            caps[s] = here
            nxt += [s + "0", s + "1"]
        frontier = nxt
    return caps


def make_average(lib, rng):
    return gen.strategy_spec(lib, rng), rng.randint(1, 2)


def run_average(lib, inp, ctx, tr):
    spec, level = inp
    d = gen.build_strategy(lib, spec)
    avg = tr.call("martingales.average_truncated",
                  lib.martingales.average_truncated, d, level)
    expect(gen.value(tr, avg, "") == 1, "average is normed")
    return _fair_to(tr, avg, 3)


def make_mixture(lib, rng):
    return gen.strategy_spec(lib, rng), gen.strategy_spec(lib, rng), rng.randint(1, 4)


def run_mixture(lib, inp, ctx, tr):
    spec, spec_e, n_e = inp
    mix = tr.call("martingales.mixture", lib.martingales.mixture,
                  gen.build_strategy(lib, spec), gen.build_strategy(lib, spec_e), n_e)
    expect(gen.value(tr, mix, "") == 1, "mixture is normed")
    return _fair_to(tr, mix, 4)


# ---------------------------------------------------------------------------
# Closure layer.

def make_p2_mlr(lib, rng):
    while True:
        u = gen.prefix_free(lib, rng, 5, 5)
        mu = lib.space.measure(u)
        if 0 < mu < 1:
            return u, (mu + 1) / 2


def run_p2_mlr(lib, inp, ctx, tr):
    u, q = inp
    v, rep = tr.call("closure.p2_mlr", lib.closure.p2_mlr, u, q)
    expect(rep.passed, "p2_mlr certificate")
    expect(gen.measure(lib, tr, v) <= gen.measure(lib, tr, u) / q,
           "measure(V) <= measure(U)/q")
    return {"set": v, "report": rep}


def make_p2_sr(lib, rng):
    while True:
        final = gen.prefix_free(lib, rng, 4, 4)
        k = rng.randint(1, 3)
        if lib.space.measure(final) < 1 - Fraction(1, 2 ** k):
            break
    elems = list(final.elements)
    rng.shuffle(elems)
    stages = [lib.space.PrefixFreeSet(elems[: i + 1]) for i in range(len(elems))]
    staged = lib.space.StagedOpenSet(tuple(stages or [final]))
    return staged, k, max(2, final.maxlen)


def run_p2_sr(lib, inp, ctx, tr):
    staged, k, depth = inp
    v, rep = tr.call("closure.p2_sr", lib.closure.p2_sr, staged, k, depth)
    expect(rep.passed, "p2_sr certificate")
    final = staged.final
    grown = gen.measure(lib, tr, gen.union(lib, tr, v, final))
    expect(grown - gen.measure(lib, tr, final) < Fraction(1, 2 ** k),
           "overshoot < 2^-k")
    return {"set": v, "report": rep}


def make_p3_mlr(lib, rng):
    while True:
        u = gen.prefix_free(lib, rng, 4, 3)
        sigma = gen.bits(rng, rng.randint(0, 2))
        k = rng.randint(1, 3)
        if lib.space.measure(lib.space.condition(u, sigma)) < 1 - Fraction(1, 2 ** k):
            break
    n_e = len(sigma) + k
    level = lib.space.PrefixFreeSet([gen.bits(rng, n_e)])
    return u, sigma, k, level, lib.covers.TestFamily("ML", {n_e: level})


def run_p3_mlr(lib, inp, ctx, tr):
    u, sigma, k, level, test = inp
    n_e, v, rep = tr.call("closure.p3_mlr", lib.closure.p3_mlr, u, sigma, k, test)
    expect(n_e == len(sigma) + k and rep.passed, "p3_mlr certificate")
    expect(gen.covers(lib, tr, v, u) and gen.covers(lib, tr, v, level),
           "V covers U and the test level")
    expect(gen.measure(lib, tr, gen.condition(lib, tr, v, sigma)) < 1,
           "mu(V | sigma) < 1")
    return {"n_e": n_e, "set": v, "report": rep}


def make_p3_cr(lib, rng):
    while True:
        dv = gen.fair_values(rng, 5, positive=True)
        ev = gen.fair_values(rng, 5, positive=True)
        q = Fraction(rng.randint(9, 16), 8)
        sigma = gen.bits(rng, rng.randint(0, 2))
        if all(dv[sigma[:i]] < q for i in range(len(sigma) + 1)):
            mt = lib.martingales.MartingaleTable
            return mt(5, dv), mt(5, ev), q, sigma


def run_p3_cr(lib, inp, ctx, tr):
    td, te, q, sigma = inp
    d = lib.martingales.TableStrategy(td)
    d_e = lib.martingales.TableStrategy(te)
    n_e, v, rep = tr.call("closure.p3_cr", lib.closure.p3_cr, d, q, sigma, d_e, 5)
    expect(rep.passed, "p3_cr certificate")
    u_gens = gen.winning_set(lib, tr, d, q, 5).generators
    t_gens = gen.winning_set(lib, tr, d_e, Fraction(2 ** n_e), 5).generators
    expect(gen.covers(lib, tr, v.generators, u_gens)
           and gen.covers(lib, tr, v.generators, t_gens),
           "V covers the (d,q)-winning set and the induced level")
    expect(gen.measure(lib, tr, gen.condition(lib, tr, v.generators, sigma)) < 1,
           "mu(V | sigma) < 1")
    return {"n_e": n_e, "winning_set": v, "report": rep}


# ---------------------------------------------------------------------------
# Covers layer.

def make_schnorr(lib, rng):
    pp = lib.space.PeriodicPoint
    x = gen.point(lib, rng)
    k_max = rng.choice((2, 3))
    n_max = 3 * k_max + 2
    flip = "1" if x.prefix(1) == "0" else "0"
    if rng.random() < 0.5:
        decoy = pp(flip, x.period)
        levels = {n: lib.space.PrefixFreeSet([x.prefix(n + 1), decoy.prefix(n + 1)])
                  for n in range(n_max + 1)}
    else:
        levels = {n: lib.space.PrefixFreeSet([x.prefix(n)]) for n in range(n_max + 1)}
    return lib.covers.TestFamily("Schnorr", levels), k_max, x


def run_schnorr(lib, inp, ctx, tr):
    fam, k_max, x = inp
    merged, rep = tr.call("covers.schnorr_merge", lib.covers.schnorr_merge,
                          fam, k_max, point=x)
    expect(rep.passed and rep.data["point_in_all_levels"], "merge certificate")
    bound = sum(Fraction(1, 2 ** (k + 2)) for k in range(k_max + 1))
    expect(gen.measure(lib, tr, merged) <= bound, "merged measure <= layer bounds")
    expect(all(gen.member(lib, tr, merged, t) for t in lib.space.tails(x)),
           "every tail of the point in the merged set")
    return {"set": merged, "report": rep}


def make_power_test(lib, rng):
    while True:
        u = gen.prefix_free(lib, rng, 3, 3)
        if 0 < lib.space.measure(u) < 1:
            return u, rng.randint(2, 4)


def run_power_test(lib, inp, ctx, tr):
    u, n_max = inp
    fam = tr.call("covers.power_test", lib.covers.power_test, u, n_max)
    mu = gen.measure(lib, tr, u)
    expect(all(gen.measure(lib, tr, fam.levels[n]) == mu ** n
               for n in range(1, n_max + 1)), "measure(U^n) == measure(U)^n")
    return fam


def make_tails_power(lib, rng):
    x = gen.point(lib, rng, head_max=3, period_max=3)
    cuts = [t.prefix(rng.randint(1, 3)) for t in lib.space.tails(x)]
    extra = gen.words(rng, 4, rng.randint(0, 3))
    return lib.space.reduce(cuts + extra), x, rng.randint(2, 5)


def run_tails_power(lib, inp, ctx, tr):
    u, x, n = inp
    cert = tr.call("covers.tails_to_power", lib.covers.tails_to_power, u, x, n)
    expect(len(cert.factors) == n and all(f in u for f in cert.factors)
           and x.prefix(len(cert.prefix)) == cert.prefix, "n-block factorization")
    return list(cert.factors)


# ---------------------------------------------------------------------------
# Diagonalization: every provider, with the trace and the NoEscape outcome.

def _levels_toward(lib, y, n_max, start=0):
    return {n: lib.space.PrefixFreeSet([y.prefix(n)]) for n in range(start, n_max + 1)}


def make_diag_trace(case):
    def make(lib, rng):
        w = lib.space.PrefixFreeSet(gen.complete_code(rng, 3, rng.randint(0, 3)))
        points = [gen.point(lib, rng) for _ in range(3)]
        if case == "cr":
            # CR tests carry the martingale that induces their levels.
            return w, [(y, _levels_toward(lib, y, 16, start=1)) for y in points], 2
        kind = "ML" if case == "mlr" else "Schnorr"
        tests = [lib.covers.TestFamily(kind, _levels_toward(lib, y, 20)) for y in points]
        return w, tests, 3
    return make


def make_diag_noescape(case):
    def make(lib, rng):
        y = gen.point(lib, rng)
        stem = y.prefix(2) if case == "cr" else y.prefix(1)
        w = gen.prefix_free(lib, rng, 3, rng.randint(1, 3))
        w = lib.space.PrefixFreeSet(sorted({stem + s for s in w}))
        stages = rng.randint(1, 2)
        if case == "cr":
            return w, [(y, _levels_toward(lib, y, 16, start=1))], stages
        kind = "ML" if case == "mlr" else "Schnorr"
        return w, [lib.covers.TestFamily(kind, {1: lib.space.PrefixFreeSet([stem])})], stages
    return make


def _provider(lib, case, noescape):
    cl = lib.closure
    if case == "mlr":
        return cl.MLRProvider(k=1) if noescape else cl.MLRProvider()
    if case == "sr":
        return cl.SRProvider()
    return cl.CRProvider(depth=8, cap=16)


def _tests(lib, case, tests):
    if case != "cr":
        return tests
    return [lib.covers.TestFamily("ML", levels,
                                  martingale=lib.martingales.PointDoubler(y))
            for y, levels in tests]


def run_diag(case, noescape):
    def run(lib, inp, ctx, tr):
        w, tests, stages = inp
        tests = _tests(lib, case, tests)
        provider = _provider(lib, case, noescape)
        tr.count("diagonal.run.stages_asked", stages)
        try:
            trace, rep = tr.call("diagonal.run", lib.diagonal.run, w, provider,
                                 tests, stages)
        except lib.errors.NoEscape as err:
            tr.count("diagonal.run.stages_done", err.stage)
            tr.count("diagonal.run.no_escape")
            expect(noescape, f"unexpected NoEscape at stage {err.stage}")
            expect(err.certificate.passed, "covering certificate")
            return {"stage": err.stage, "sigma": err.sigma,
                    "certificate": err.certificate}
        tr.count("diagonal.run.stages_done", stages)
        expect(not noescape, "expected NoEscape, got a trace")
        expect(rep.passed, "trace report")
        again = tr.call("diagonal.verify_trace", lib.diagonal.verify_trace,
                        trace, w, tests)
        expect(again.passed, "trace re-verification")
        return {"trace": trace, "report": rep}
    return run


KINDS = {
    "vk": Kind(make_vk, run_vk, VARIANTS),
    "reset": Kind(make_reset, run_reset, VARIANTS),
    "winning_set": Kind(make_wset, run_wset, VARIANTS),
    "average": Kind(make_average, run_average, VARIANTS),
    "mixture": Kind(make_mixture, run_mixture, VARIANTS),
    "p2_mlr": Kind(make_p2_mlr, run_p2_mlr, VARIANTS),
    "p2_sr": Kind(make_p2_sr, run_p2_sr, VARIANTS),
    "p3_mlr": Kind(make_p3_mlr, run_p3_mlr, VARIANTS),
    "p3_cr": Kind(make_p3_cr, run_p3_cr, VARIANTS),
    "schnorr_merge": Kind(make_schnorr, run_schnorr, VARIANTS),
    "power_test": Kind(make_power_test, run_power_test, VARIANTS),
    "tails_to_power": Kind(make_tails_power, run_tails_power, VARIANTS),
}
for _case in ("mlr", "sr", "cr"):
    KINDS[f"diag_{_case}_trace"] = Kind(make_diag_trace(_case),
                                        run_diag(_case, False), VARIANTS)
    KINDS[f"diag_{_case}_noescape"] = Kind(make_diag_noescape(_case),
                                           run_diag(_case, True), VARIANTS)

HEAD: list = []
# Per pass: about 1,600 jobs.  The CR-provider NoEscape runs cost 18-21 ms
# each, and 24 of them above the 6 CR traces put the tail (the eleventh
# slowest job) inside that tight cluster whatever variants the seed draws.
BODY = [("vk", 120), ("reset", 60), ("winning_set", 120), ("average", 60),
        ("mixture", 60), ("p2_mlr", 120), ("p2_sr", 90), ("p3_mlr", 150),
        ("p3_cr", 60), ("schnorr_merge", 120), ("power_test", 120),
        ("tails_to_power", 150), ("diag_mlr_trace", 90), ("diag_mlr_noescape", 90),
        ("diag_sr_trace", 90), ("diag_sr_noescape", 90), ("diag_cr_trace", 6),
        ("diag_cr_noescape", 24)]
