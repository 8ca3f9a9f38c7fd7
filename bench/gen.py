"""Seeded input builders and spanned calls shared by the workloads.

Every input is built from a Random seeded by its catalogue key, never from
the run's seed, so each catalogue entry has one golden digest whatever seed
draws it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from random import Random

from harness import Job


class Kind:
    """A job template: make(lib, rng) -> input, run(lib, input, ctx, tr) -> payload.

    make may instead be a list of fixed inputs, one variant each.  warm=False
    keeps a heavy kind out of the set-up warm-up.
    """

    __slots__ = ("make", "run", "variants", "warm")

    def __init__(self, make, run, variants=None, warm=True):
        self.make = make
        self.run = run
        self.variants = len(make) if isinstance(make, list) else variants
        self.warm = warm

    def input(self, lib, workload, kind, v):
        if isinstance(self.make, list):
            return self.make[v]
        return self.make(lib, Random(f"{workload}/{kind}/{v}"))


def build_jobs(lib, workload, kinds, head, body, seed) -> list[Job]:
    """Jobs for one pass: `head` in the given order, then `body` shuffled.

    head and body are [(kind, count)]; the seed draws each job's variant and
    the body order.  A count of None takes every variant once, so fixed-size
    jobs keep the pass cost the same for every seed.
    """
    rng = Random(seed)
    cache = {}

    def draw(kind, count):
        k = kinds[kind]
        if count is None:
            picks = range(k.variants)
        else:
            picks = [rng.randrange(k.variants) for _ in range(count)]
        for v in picks:
            if (kind, v) not in cache:
                cache[(kind, v)] = k.input(lib, workload, kind, v)
            yield Job(f"{kind}/{v}", partial(k.run, lib, cache[(kind, v)]), k.warm)

    first = [job for kind, count in head for job in draw(kind, count)]
    rest = [job for kind, count in body for job in draw(kind, count)]
    rng.shuffle(rest)
    return first + rest


def catalogue_jobs(lib, workload, kinds, head_kinds) -> list[Job]:
    """Every catalogue entry once, head kinds first (later kinds may read ctx)."""
    order = list(head_kinds) + [k for k in kinds if k not in head_kinds]
    jobs = []
    for kind in order:
        k = kinds[kind]
        for v in range(k.variants):
            inp = k.input(lib, workload, kind, v)
            jobs.append(Job(f"{kind}/{v}", partial(k.run, lib, inp), k.warm))
    return jobs


# ---------------------------------------------------------------------------
# Random objects.

def bits(rng: Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def words(rng: Random, maxlen: int, count: int, minlen: int = 1) -> list[str]:
    return [bits(rng, rng.randint(minlen, maxlen)) for _ in range(count)]


def prefix_free(lib, rng: Random, maxlen: int, count: int):
    return lib.space.reduce(words(rng, maxlen, count))


def point(lib, rng: Random, head_max: int = 2, period_max: int = 2):
    return lib.space.PeriodicPoint(bits(rng, rng.randint(0, head_max)),
                                   bits(rng, rng.randint(1, period_max)))


def complete_code(rng: Random, maxlen: int, splits: int) -> list[str]:
    """Random complete prefix code (measure 1) without the empty word."""
    leaves = ["0", "1"]
    for _ in range(splits):
        cands = [s for s in leaves if len(s) < maxlen]
        if not cands:
            break
        s = rng.choice(cands)
        leaves.remove(s)
        leaves += [s + "0", s + "1"]
    return sorted(leaves)


def fair_values(rng: Random, depth: int, positive: bool = False) -> dict:
    """Random fair capital values: each node splits its doubled capital."""
    values = {"": Fraction(1)}
    frontier = [""]
    lo, hi = (1, 7) if positive else (0, 8)
    for _ in range(depth):
        nxt = []
        for s in frontier:
            total = 2 * values[s]
            left = total * Fraction(rng.randint(lo, hi), 8)
            values[s + "0"] = left
            values[s + "1"] = total - left
            nxt += [s + "0", s + "1"]
        frontier = nxt
    return values


def fair_table(lib, rng: Random, depth: int, positive: bool = False):
    return lib.martingales.MartingaleTable(depth, fair_values(rng, depth, positive))


def strategy_spec(lib, rng: Random):
    """A normed strategy as a recipe, so each job builds fresh objects."""
    kind = rng.choice(("doubler", "shifted", "table", "mixture"))
    if kind == "table":
        return ("table", fair_table(lib, rng, 6))
    return (kind, point(lib, rng))


def build_strategy(lib, spec):
    mg = lib.martingales
    kind, arg = spec
    if kind == "table":
        return mg.TableStrategy(arg)
    if kind == "doubler":
        return mg.PointDoubler(arg)
    if kind == "shifted":
        return mg.positive_shift(mg.PointDoubler(arg))
    return mg.MixtureStrategy(mg.ConstantStrategy(1), mg.PointDoubler(arg), 2)


# ---------------------------------------------------------------------------
# Spanned calls into the set kernel; each counts its input generators.

def measure(lib, tr, u):
    tr.count("space.gens_in", len(u))
    return tr.call("space.measure", lib.space.measure, u)


def condition(lib, tr, u, sigma):
    tr.count("space.gens_in", len(u))
    return tr.call("space.condition", lib.space.condition, u, sigma)


def covers(lib, tr, v, u):
    tr.count("space.gens_in", len(v) + len(u))
    return tr.call("space.covers", lib.space.covers, v, u)


def member(lib, tr, u, x):
    tr.count("space.gens_in", len(u))
    return tr.call("space.member", lib.space.member, u, x)


def union(lib, tr, u, v):
    tr.count("space.gens_in", len(u) + len(v))
    return tr.call("space.union", lib.space.union, u, v)


def reduce(lib, tr, strings):
    tr.count("space.gens_in", len(strings))
    return tr.call("space.reduce", lib.space.reduce, strings)


def build_set(lib, tr, strings):
    tr.count("space.gens_in", len(strings))
    return tr.call("space.PrefixFreeSet", lib.space.PrefixFreeSet, strings)


def power(lib, tr, u, n):
    tr.count("space.gens_in", len(u))
    return tr.call("space.power", lib.space.power, u, n)


def value(tr, d, sigma):
    return tr.call("martingales.value", d.value, sigma)


def winning_set(lib, tr, d, q, depth):
    w = tr.call("martingales.winning_set", lib.martingales.winning_set, d, q, depth)
    tr.count("martingales.winning_set.searches")
    tr.count("martingales.winning_set.truncated", int(w.truncated))
    return w
