"""Test <-> single-cover conversions on finite test families.

A test family is a finite list of levels (prefix-free generator sets) with
the measure discipline of its kind: at index n, at most 2^-n for ML, exactly
2^-n for Schnorr, or an explicit nonincreasing schedule for generalized
tests.  The conversions certify their measure bounds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import MissingLevel, PowerOfEpsilon, TailEscapes, Unbounded
from .reports import Report
from . import space
from .martingales import BettingStrategy
from .space import Natural, PeriodicPoint, PrefixFreeSet, measure, member, record, tails


@record(slots=True, eq=False)
class TestFamily:
    """Finite family n -> level set, with per-kind measure validation.

    Nestedness of consecutive levels is a separate (potentially expensive)
    check: see check_nested.  CR-induced families may carry the martingale
    that generated them; the closure machinery uses it.
    """

    KINDS = ("ML", "Schnorr", "generalized")

    fields = {"kind": dict.fromkeys(KINDS), "levels": {Natural: PrefixFreeSet},
              "bounds?": {Natural: Fraction}, "martingale?": BettingStrategy}

    def __post_init__(self):
        if (kind := self.kind) not in self.KINDS:
            raise ValueError(f"unknown test kind {kind!r}")
        lv = {int(n): s for n, s in self.levels.items()}
        if any(n < 0 for n in lv):
            raise ValueError("negative level index")
        sched = None if (b := self.bounds) is None else {int(n): Fraction(v) for n, v in b.items()}
        if kind == "ML":
            for n, s in lv.items():
                if measure(s) > Fraction(1, 2 ** n):
                    raise ValueError(f"ML level {n} has measure {measure(s)} > 2^-{n}")
        elif kind == "Schnorr":
            for n, s in lv.items():
                if measure(s) != Fraction(1, 2 ** n):
                    raise ValueError(f"Schnorr level {n} has measure {measure(s)} != 2^-{n}")
        else:
            if sched is None:
                raise ValueError("generalized test needs a bound schedule")
            if set(sched) != set(lv):
                raise ValueError("schedule indices must match level indices")
            for n, s in lv.items():
                if measure(s) != sched[n]:
                    raise ValueError(f"level {n} measure {measure(s)} != schedule {sched[n]}")
            ordered = [sched[n] for n in sorted(sched)]
            if any(a < b for a, b in zip(ordered, ordered[1:])):
                raise ValueError("schedule must be nonincreasing")
        self.levels = dict(sorted(lv.items()))
        self.bounds = sched

    def indices(self) -> list[int]:
        return list(self.levels)

    def level(self, n: int) -> PrefixFreeSet:
        if n not in self.levels:
            raise MissingLevel(f"test has no level {n}")
        return self.levels[n]

    def __repr__(self) -> str:
        return f"TestFamily({self.kind}, levels={sorted(self.levels)})"


def check_nested(t: TestFamily) -> bool:
    """[levels[n+1]] subseteq [levels[n]] for consecutive present indices."""
    idx = t.indices()
    return all(
        space.covers(t.levels[a], t.levels[b])
        for a, b in zip(idx, idx[1:])
        if b == a + 1
    )


def power_test(u: PrefixFreeSet, n_max: int) -> TestFamily:
    """Levels U^1, ..., U^N: the test a single bounded cover induces.

    mu(U^n) = mu(U)^n, so the measures tend to 0 geometrically; the exact
    powers are declared as the bound schedule.
    """
    if n_max < 0:
        raise ValueError("negative level count")
    if measure(u) >= 1:
        raise Unbounded("need measure(U) < 1")
    if "" in u:
        raise PowerOfEpsilon("epsilon generator not allowed")
    levels = dict(enumerate(space.powers(u, n_max), start=1))
    sched = {n: measure(u) ** n for n in levels}
    return TestFamily("generalized", levels, bounds=sched)


class FactorizationCertificate:
    """Explicit witness that X starts with a concatenation of n generators."""

    __slots__ = ("point", "factors", "prefix")

    def __init__(self, point: PeriodicPoint, factors: Sequence[str]):
        self.point = point
        self.factors = tuple(factors)
        self.prefix = "".join(self.factors)
        if point.prefix(len(self.prefix)) != self.prefix:
            raise ValueError("factors do not reproduce a prefix of the point")

    def __repr__(self) -> str:
        return f"FactorizationCertificate({'|'.join(self.factors)})"


def tails_to_power(u: PrefixFreeSet, x: PeriodicPoint, n: int) -> FactorizationCertificate:
    """Witness X in [U^n] from 'all tails of X lie in [U]', by greedy parsing.

    Each intermediate remainder is a tail of X, hence has exactly one
    generator of U as a prefix, found by space.factor in one walk of U's
    trie along it; peeling n times yields the factorization without listing U.
    Raises TailEscapes with the offending tail when the hypothesis fails.
    """
    if n < 0:
        raise ValueError("negative block count")
    for t in tails(x):
        if not member(u, t):
            raise TailEscapes(t)
    factors = []
    rest = x
    for _ in range(n):
        block = space.factor(u, rest)
        factors.append(block)
        rest = rest.shift(len(block))
    return FactorizationCertificate(x, factors)


def schnorr_merge(v: TestFamily, k_max: int,
                  point: PeriodicPoint | None = None) -> tuple[PrefixFreeSet, Report]:
    """Single bounded Schnorr-style cover merged out of a Schnorr test.

    Takes the union over k <= K of the level-(3k+2) sets conditioned by every
    string of length k; the conditioned sets are sets of *tails*, so they sit
    at the root.  Only the length-k strings the level meets contribute, and
    the kernel's walk lists just those.  Level 3k+2 conditioned by 2^k
    strings contributes at most 2^(-k-2), hence the total stays <= 1/2; all
    bounds are asserted exactly, and the truncation residual sum over k > K
    is reported.
    """
    if v.kind != "Schnorr":
        raise ValueError("schnorr_merge expects a Schnorr test family")
    if k_max < 0:
        raise ValueError("negative truncation")
    rep = Report("schnorr-merge")
    merged = space.EMPTY_SET
    per_k = []
    for k in range(k_max + 1):
        level = v.level(3 * k + 2)
        layer_set = space.EMPTY_SET
        for sigma, _ in space.walk(level, k):
            if len(sigma) == k:
                layer_set = space.union(layer_set, space.condition(level, sigma))
        mk = measure(layer_set)
        bound_k = Fraction(1, 2 ** (k + 2))
        rep.check(f"layer k={k} measure <= 2^-(k+2)", mk, "<=", bound_k)
        per_k.append({"k": k, "measure": mk, "bound": bound_k})
        merged = space.union(merged, layer_set)
    total_bound = sum((Fraction(1, 2 ** (k + 2)) for k in range(k_max + 1)),
                      start=Fraction(0))
    rep.check("merged measure <= sum of layer bounds", measure(merged), "<=", total_bound)
    rep.check("layer bound sum <= 1/2", total_bound, "<=", Fraction(1, 2))
    rep.put("layers", per_k)
    rep.put("measure", measure(merged))
    rep.put("residual_bound_beyond_K", Fraction(1, 2 ** (k_max + 2)))
    if point is not None:
        in_all = all(member(v.levels[n], point) for n in v.indices())
        rep.put("point_in_all_levels", in_all)
        if in_all:
            for i, t in enumerate(tails(point)):
                rep.record(f"tail {i} of point in merged set", member(merged, t))
    return merged, rep


def remark24_bundle(u: PrefixFreeSet, points: Iterable[PeriodicPoint] = (),
                    n: int = 2) -> Report:
    """Certify, per point, that all tails lie in [U] with an n-block witness.

    Per-point failures are listed in the report rather than raised.
    """
    if n < 0:
        raise ValueError("negative block count")
    if measure(u) >= 1:
        raise Unbounded("need measure(U) < 1")
    rep = Report("single-cover-bundle")
    entries = []
    for i, x in enumerate(points):
        try:
            cert = tails_to_power(u, x, n)
            entries.append({"point": x, "factors": list(cert.factors), "certified": True})
            rep.record(f"point {i} certified to {n} blocks", True)
        except TailEscapes as err:
            entries.append({"point": x, "escaping_tail": err.tail, "certified": False})
            rep.record(f"point {i} certified to {n} blocks", False)
    rep.put("points", entries)
    return rep
