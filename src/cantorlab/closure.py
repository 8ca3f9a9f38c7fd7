"""Closure constructions feeding the finite-extension diagonalization.

Three families of open sets are closed under conditioning (P1), cylinder
completion (P2) and test absorption (P3):

  MLR: bounded prefix-free generator sets;
  CR:  winning sets of normed exact martingales, carried as (strategy, q);
  SR:  staged sets with exact stage measures.

Each pX_* operation returns its construction together with an exact
certificate report; search depths are explicit everywhere the underlying
statements quantify over all strings.

The provider of each family, PROVIDERS[case], fixes its search parameters
and shows the diagonalizer one face over a ProviderState: case; initial(),
the empty set; p1(state, sigma), the conditioned state; p2(state), the
completed state and its certificate; p3(state, sigma, test), the absorbed
level n_e and the new state, built as by the pX_* operations but with no
certificate: diagonal.verify_trace checks the finished trace.  MLR and SR
absorb by one rule, _absorb, which checks the slack at sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import TestFamily
from .errors import (
    AlreadyWon,
    BadThreshold,
    DeadCapital,
    FullConditional,
    MissingLevel,
    SearchExhausted,
    SlackViolated,
)
from .martingales import (
    BettingStrategy,
    ConstantStrategy,
    ScaledStrategy,
    TranslateStrategy,
    WinningSet,
    mixture,
    peak,
    winning_set,
)
from .reports import Report
from . import space
from .space import (
    EMPTY_SET,
    PrefixFreeSet,
    StagedOpenSet,
    condition,
    covers,
    measure,
    union,
)


def _least_slack(m: Fraction) -> int:
    """Least k >= 1 with m < 1 - 2^-k, i.e. 2^k > 1/(1 - m); needs 0 <= m < 1."""
    if m >= 1:
        raise FullConditional("no slack below 1")
    return int(1 / (1 - m)).bit_length()


def _full_covered(u: PrefixFreeSet, v: PrefixFreeSet, depth: int) -> bool:
    """[V] holds every full cylinder of U within depth.

    Checked at the minimal full sigma only: a [V] holding [sigma] holds
    every extension of sigma.
    """
    return all(measure(condition(v, s)) == 1
               for s, m in space.walk(u, depth, lambda s, m: m == 1) if m == 1)


# ---------------------------------------------------------------------------
# MLR case: bounded c.e. open sets as plain generator sets.

def p1_mlr(u: PrefixFreeSet, sigma: str) -> PrefixFreeSet:
    """Conditioning keeps the class: (U | sigma), required bounded."""
    c = condition(u, sigma)
    if measure(c) == 1:
        raise FullConditional(f"mu(U | {sigma!r}) = 1")
    return c


def p2_mlr(u: PrefixFreeSet, q: Fraction) -> tuple[PrefixFreeSet, Report]:
    """Cylinder completion: V = union of [sigma] with mu(U | sigma) > q.

    Minimal such sigma are searched to depth maxlen(U); beyond that depth the
    conditional measure is 0 or 1 and the 1-cases are extensions of cylinders
    already taken.  Certifies mu(V) <= mu(U)/q < 1, that V covers U, and that
    V covers every full cylinder within the search depth.
    """
    q = Fraction(q)
    mu = measure(u)
    if not (mu < q < 1):
        raise BadThreshold(f"need measure(U) = {mu} < q < 1, got q = {q}")
    depth = u.maxlen
    chosen = [s for s, m in space.walk(u, depth, lambda s, m: m > q) if m > q]
    v = union(PrefixFreeSet(chosen), u)
    rep = Report("p2-mlr")
    rep.put("q", q)
    rep.put("search_depth", depth)
    rep.check("measure(V) <= measure(U)/q", measure(v), "<=", mu / q)
    rep.check("measure(V) < 1", measure(v), "<", Fraction(1))
    rep.record("V covers U", covers(v, u))
    rep.record("full cylinders within depth covered", _full_covered(u, v, depth))
    return v, rep


def _absorb(u: PrefixFreeSet, sigma: str, k: int | None, test: TestFamily | None
            ) -> tuple[int, PrefixFreeSet]:
    """Test level n_e and its set, given slack 2^-k at sigma; least k if None.

    n_e = |sigma| + k for an ML or Schnorr test; for a generalized one, the
    least index whose scheduled bound is at most 2^-(|sigma| + k).
    """
    m = measure(condition(u, sigma))
    if k is None:
        k = _least_slack(m)
    if m >= 1 - Fraction(1, 2 ** k):
        raise SlackViolated(f"mu(U|sigma) = {m} >= 1 - 2^-{k}")
    n_e = len(sigma) + k
    if test is not None and test.kind == "generalized":
        bound = Fraction(1, 2 ** n_e)
        n_e = next((n for n in test.levels if test.bounds[n] <= bound), None)
        if n_e is None:
            raise MissingLevel(f"test has no level with bound <= {bound}")
    return n_e, EMPTY_SET if test is None else test.level(n_e)


def p3_mlr(u: PrefixFreeSet, sigma: str, k: int,
           test: TestFamily | None = None) -> tuple[int, PrefixFreeSet, Report]:
    """Absorb the level _absorb picks for slack 2^-k, keeping mu(V | sigma) < 1."""
    n_e, level = _absorb(u, sigma, k, test)
    v = union(u, level)
    rep = Report("p3-mlr")
    rep.put("n_e", n_e)
    rep.put("k", k)
    rep.check("mu(level | sigma) <= 2^-k",
              measure(condition(level, sigma)), "<=", Fraction(1, 2 ** k))
    rep.check("mu(V | sigma) < 1", measure(condition(v, sigma)), "<", Fraction(1))
    rep.record("V covers U", covers(v, u))
    rep.record("V covers test level", covers(v, level))
    return n_e, v, rep


# ---------------------------------------------------------------------------
# CR case: winning sets carried as (normed strategy, threshold).

def p1_cr(d: BettingStrategy, q: Fraction, sigma: str,
          empty_marker: bool = False) -> tuple[BettingStrategy, Fraction]:
    """Conditioned winning set: d'(tau) = d(sigma tau)/d(sigma), q' = q/d(sigma).

    Dead capital at sigma means (U | sigma) is empty; with empty_marker set
    the canonical empty representative (constant 1, threshold 2) is returned
    instead of raising.
    """
    q = Fraction(q)
    cap = d.value(sigma)
    if cap == 0:
        if empty_marker:
            return ConstantStrategy(1), Fraction(2)
        raise DeadCapital(f"d({sigma!r}) = 0")
    # On the memo's pairs, by cross-multiplication; value checked sigma's bits.
    at, qn, qd = d._at, q.numerator, q.denominator
    for i in range(len(sigma) + 1):
        if (v := at(sigma[:i]))[0] * qd >= qn * v[1]:
            raise AlreadyWon(f"capital reaches {q} at prefix {sigma[:i]!r}")
    if sigma == "":
        return d, q
    return ScaledStrategy(TranslateStrategy(d, sigma), Fraction(1) / cap), q / cap


def p2_cr_check(d: BettingStrategy, q: Fraction, sigma: str, depth: int) -> Report:
    """Exhaustive check of: full conditional winning measure forces d(sigma) >= q.

    The winning region is enumerated to depth; when its conditional measure
    at sigma is exactly 1 the Ville-Kolmogorov inequality leaves no room
    below q at sigma, and the report asserts just that.
    """
    w = winning_set(d, q, depth)
    mu = measure(condition(w.generators, sigma))
    rep = Report("p2-cr")
    rep.put("winning_set", w.generators)
    rep.put("mu_winning_given_sigma", mu)
    rep.put("capital_at_sigma", d.value(sigma))
    if mu == 1:
        rep.check("d(sigma) >= q", d.value(sigma), ">=", Fraction(q))
    else:
        rep.record("implication vacuous (conditional measure < 1)", True)
    return rep


def _mix_cr(d: BettingStrategy, q: Fraction, sigma: str, d_e: BettingStrategy,
            depth: int, cap: int) -> tuple[int, BettingStrategy, Fraction, WinningSet]:
    """The least n_e <= cap whose mixture D stays below its threshold along
    sigma; returns n_e, D, D's largest capital along sigma and D's winning set."""
    q = Fraction(q)
    if cap < 1:
        raise ValueError("need cap >= 1")
    if d.value(sigma) >= q:
        raise AlreadyWon(f"d({sigma!r}) = {d.value(sigma)} >= {q}")
    last = None
    for n_e in range(1, cap + 1):
        weight = Fraction(1, 2 ** (n_e - 1))
        threshold = min((1 - weight) * q, Fraction(2))
        big = mixture(d, d_e, n_e)
        worst = peak(big, sigma)
        last = (n_e, worst, threshold)
        if threshold <= 1 or worst >= threshold:
            continue
        return n_e, big, worst, winning_set(big, threshold, depth)
    raise SearchExhausted(
        f"no n_e <= {cap} works; at n_e={last[0]} capital along sigma reaches "
        f"{last[1]} against threshold {last[2]}",
        frontier=last,
    )


def p3_cr(d: BettingStrategy, q: Fraction, sigma: str, d_e: BettingStrategy,
          depth: int, cap: int = 16) -> tuple[int, WinningSet, Report]:
    """Mixture step: find n_e with D = (1-2^(-n_e+1)) d + 2^(-n_e+1) d_e staying
    below min((1-2^(-n_e+1)) q, 2) along every prefix of sigma.

    The resulting winning set of D covers both the (d, q)-winning set and the
    level-n_e set induced by d_e, while mu(V | sigma) < 1.  The n_e search is
    linear with a cap; on exhaustion the blocking inequality is reported.
    """
    n_e, big, worst, v = _mix_cr(d, q, sigma, d_e, depth, cap)
    rep = Report("p3-cr")
    rep.put("n_e", n_e)
    rep.put("threshold", v.threshold)
    rep.put("D_at_sigma", big.value(sigma))
    rep.check("D along sigma < threshold", worst, "<", v.threshold)
    rep.check("mu(V | sigma) < 1",
              measure(condition(v.generators, sigma)), "<", Fraction(1))
    u_gens = winning_set(d, q, depth).generators
    t_gens = winning_set(d_e, Fraction(2 ** n_e), depth).generators
    rep.record("V covers (d,q)-winning set", covers(v.generators, u_gens))
    rep.record("V covers induced test level", covers(v.generators, t_gens))
    return n_e, v, rep


# ---------------------------------------------------------------------------
# SR case: staged sets with exact stage measures.

def p1_sr(u: StagedOpenSet, sigma: str) -> StagedOpenSet:
    """Stagewise conditioning; stage measures stay exact."""
    return StagedOpenSet(tuple(condition(s, sigma) for s in u.stages))


def p3_sr(u: StagedOpenSet, v: StagedOpenSet) -> StagedOpenSet:
    """Stagewise union of two staged sets."""
    n = max(len(u.stages), len(v.stages))
    return StagedOpenSet(tuple(union(u.stage(i), v.stage(i)) for i in range(n)))


def p2_sr(u: StagedOpenSet, k: int, depth: int) -> tuple[PrefixFreeSet, Report]:
    """Computable cylinder completion for a staged set.

    For each sigma up to the search depth, take the least stage s with
    mu(final minus stage_s) < 2^(-2|sigma|-k-1) and admit sigma when
    mu(stage_s | sigma) > 1 - 2^(-|sigma|-k-1).  Certifies: full cylinders
    within depth are covered, the overshoot mu([V] minus [final]) stays
    under 2^-k, and [V] union [final] stays bounded.
    """
    if depth < 0:
        raise ValueError("negative depth")
    final = u.final
    mu_final = u.final_measure
    if mu_final >= 1 - Fraction(1, 2 ** k):
        raise SlackViolated(f"measure(U) = {mu_final} >= 1 - 2^-{k}")

    def admits(s: str, _mu: Fraction) -> bool:
        gap = Fraction(1, 2 ** (2 * len(s) + k + 1))
        stage = next(st for st in u.stages if mu_final - measure(st) < gap)
        return measure(condition(stage, s)) > 1 - Fraction(1, 2 ** (len(s) + k + 1))

    # Every stage lies inside the final set, so walking the final set's
    # trie misses no admitted sigma; it stops at the minimal ones.
    v = PrefixFreeSet(s for s, m in space.walk(final, depth, admits) if admits(s, m))
    rep = Report("p2-sr")
    rep.put("k", k)
    rep.put("depth", depth)
    rep.record("full cylinders within depth covered", _full_covered(final, v, depth))
    mu_both = measure(union(v, final))
    rep.check("mu([V] \\ [U]) < 2^-k", mu_both - mu_final, "<", Fraction(1, 2 ** k))
    rep.check("mu([V] + [U]) < 1", mu_both, "<", Fraction(1))
    return v, rep


# ---------------------------------------------------------------------------
# Providers: the uniform face the diagonalizer sees.

@dataclass(slots=True, eq=False)
class ProviderState:
    """Case-specific carrier; generators is the finite face of the open set."""

    generators: PrefixFreeSet
    payload: object = None


@dataclass
class MLRProvider:
    """Bounded sets; q and k left unset (or k = 0) are chosen per stage."""

    case = "mlr"
    q: Fraction | None = None
    k: int | None = None

    def initial(self) -> ProviderState:
        return ProviderState(EMPTY_SET)

    def p3(self, state, sigma, test):
        n_e, level = _absorb(state.generators, sigma, self.k or None, test)
        return n_e, ProviderState(union(state.generators, level))

    def p1(self, state, sigma):
        return ProviderState(p1_mlr(state.generators, sigma))

    def p2(self, state):
        u = state.generators
        q = self.q if self.q is not None else (measure(u) + 1) / 2
        v, rep = p2_mlr(u, q)
        return ProviderState(v), rep


@dataclass
class CRProvider:
    """Winning sets; the payload threads the (strategy, threshold) pair."""

    case = "cr"
    depth: int = 8
    cap: int = 16

    def initial(self) -> ProviderState:
        # The empty set is admitted into the class as the winning set of the
        # constant-1 strategy at threshold 2.
        return ProviderState(EMPTY_SET, payload=(ConstantStrategy(1), Fraction(2)))

    def p3(self, state, sigma, test):
        d, q = state.payload
        d_e = test.martingale if test is not None and test.martingale is not None \
            else ConstantStrategy(1)
        n_e, big, _, v = _mix_cr(d, q, sigma, d_e, self.depth, self.cap)
        return n_e, ProviderState(v.generators, payload=(big, v.threshold))

    def p1(self, state, sigma):
        d, q = state.payload
        d2, q2 = p1_cr(d, q, sigma, empty_marker=True)
        gens = winning_set(d2, q2, max(self.depth - len(sigma), 0)).generators
        return ProviderState(gens, payload=(d2, q2))

    def p2(self, state):
        d, q = state.payload
        rep = Report("p2-cr-closure")
        # For winning sets, P2 needs no new set: a full conditional forces the
        # capital over the threshold, so the full cylinders already sit inside.
        for s, m in space.walk(state.generators, min(self.depth, state.generators.maxlen)):
            if m == 1:
                rep.check(f"d({s!r}) >= q", d.value(s), ">=", q)
        rep.record("P2 realized by the set itself", True)
        return state, rep


@dataclass
class SRProvider:
    """Staged sets; k left unset (or 0) is chosen per stage, and the P2
    search depth is never below the longest generator."""

    case = "sr"
    k: int | None = None
    depth: int | None = None

    def initial(self) -> ProviderState:
        return ProviderState(EMPTY_SET, payload=StagedOpenSet((EMPTY_SET,)))

    def p3(self, state, sigma, test):
        n_e, level = _absorb(state.payload.final, sigma, self.k or None, test)
        merged = p3_sr(state.payload, StagedOpenSet((level,)))
        return n_e, ProviderState(merged.final, payload=merged)

    def p1(self, state, sigma):
        conditioned = p1_sr(state.payload, sigma)
        return ProviderState(conditioned.final, payload=conditioned)

    def p2(self, state):
        staged = state.payload
        k = self.k or _least_slack(staged.final_measure)
        depth = max(self.depth or 0, staged.final.maxlen)
        v, rep = p2_sr(staged, k, depth)
        return ProviderState(v, payload=StagedOpenSet((v,))), rep


PROVIDERS = {"mlr": MLRProvider, "cr": CRProvider, "sr": SRProvider}

