"""Exact martingales: tables, procedural strategies, and their transforms.

A martingale is a nonnegative rational function d on bit strings with the
fairness equation d(sigma) = (d(sigma 0) + d(sigma 1)) / 2.  Tabulated
martingales carry values up to a fixed depth; betting strategies evaluate
lazily at any string, so the transformed objects (translations, truncated
tail averages, resets, mixtures) stay exact at every node.

All strategy objects are immutable after construction.  value() checks its
string once, at the public entry; evaluation inside the layer goes through
the unchecked per-instance memo _at, on strings the layer builds itself.
Every derived kind is a LinearStrategy: one evaluation rule and one
flat_beyond serve them all.  Inside the layer a value is an integer pair
(numerator, denominator) in lowest terms, denominator > 0; it becomes an
exact Fraction only where it leaves the layer: value, peak, success_capital.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    DeadCapital,
    InvalidThreshold,
    NotWinningSet,
    ZeroPrefix,
)
from .reports import Report
from .space import (
    ONE,
    ZERO,
    PeriodicPoint,
    PrefixFreeSet,
    check_bits,
    cylinder_measure,
    record,
    strings_to_depth,
)


@record(slots=True, eq=False)
class MartingaleTable:
    """Capital values on the full binary tree of strings up to a depth.

    Fairness is *not* enforced at construction: check_fairness is the
    decision procedure, and unfair tables are legitimate inputs to it.
    """

    fields = {"depth": int, "values": {str: Fraction}}

    def __post_init__(self):
        if (depth := self.depth) < 0:
            raise ValueError("negative depth")
        vals = {}
        for s, v in self.values.items():
            check_bits(s)
            v = Fraction(v)
            if v < 0:
                raise ValueError(f"negative capital at {s!r}")
            vals[s] = v
        expected = 2 ** (depth + 1) - 1
        if len(vals) != expected or any(len(s) > depth for s in vals):
            raise ValueError(f"table must cover exactly the strings of length <= {depth}")
        self.values = vals

    def __getitem__(self, s: str) -> Fraction:
        return self.values[s]

    def __repr__(self) -> str:
        return f"MartingaleTable(depth={self.depth})"


def check_fairness(d: MartingaleTable) -> bool:
    """True iff d(sigma) = (d(sigma0) + d(sigma1)) / 2 at every interior node."""
    return all(
        2 * d[s] == d[s + "0"] + d[s + "1"]
        for s in strings_to_depth(d.depth - 1)
    ) if d.depth > 0 else True


class BettingStrategy:
    """A martingale evaluable at any string, with exact rational values.

    A subclass names its wire `kind` and its `fields`, in the form every
    wire record's takes: each constructor argument, in order, with its wire
    type as serialize.parse_field reads it (a class; str for a bit string;
    space.Natural for an integer >= 0; [T] for a list of T; (A, B) for a
    pair), from which space.record makes its __init__.  Argument, attribute
    and document key share the name, and defining the subclass registers it
    in `kinds` under its kind.
    """

    kind = "abstract"
    fields: dict = {}
    kinds: dict[str, type] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in cls.__dict__:
            BettingStrategy.kinds[cls.kind] = cls

    def __post_init__(self):
        self._cache: dict[str, tuple[int, int]] = {}

    def value(self, sigma: str) -> Fraction:
        return Fraction(*self._at(check_bits(sigma)))

    def _at(self, sigma: str) -> tuple[int, int]:
        """value at a string known to be a bit string, memoized, as its
        (numerator, denominator) pair in lowest terms; zero is (0, 1)."""
        v = self._cache.get(sigma)
        if v is None:
            v = self._cache[sigma] = self._compute(sigma)
        return v

    def _compute(self, sigma: str) -> tuple[int, int]:
        raise NotImplementedError

    def flat_beyond(self, sigma: str) -> bool:
        """True when the strategy is known constant on all extensions of sigma.

        The answer must be sound and monotone: when it is True at sigma,
        value(sigma tau) == value(sigma) for every tau, and flat_beyond is
        True at every extension of sigma too.  False is always sound;
        winning_set skips a subtree whose root is flat and below the
        threshold, and reports truncation only at live, non-flat leaves.
        sigma must be a bit string; unlike value, this does not check it.
        """
        return False


class LinearStrategy(BettingStrategy):
    """D(tau) = c + sum of w * base(rho tau) over the terms (w, base, rho).

    Every derived kind is one.  A translate of a martingale is fair, so D
    is a martingale when c and every w are >= 0.  flat_beyond is sound and
    monotone when each base's is: a base flat beyond rho sigma is flat
    beyond rho sigma b, and if all are, every term, hence D, is constant
    below sigma.  A zero-weight term is still evaluated and asked; a kind
    that must skip one omits it.  A kind's _linear checks and normalizes
    its fields and returns (terms, c).
    """

    def __post_init__(self):
        super().__post_init__()
        terms, const = self._linear()
        # Each weight as its (numerator, denominator) pair, read once.
        self._terms = tuple((w.numerator, w.denominator, base, rho)
                            for w, base, rho in terms)
        self._const = const.numerator, const.denominator

    def _compute(self, tau: str) -> tuple[int, int]:
        # Summed over the least common denominator, normalized once.
        n, d = self._const
        for wn, wd, base, rho in self._terms:
            vn, vd = base._at(rho + tau)
            vd *= wd
            g = gcd(d, vd)
            n, d = n * (vd // g) + wn * vn * (d // g), d // g * vd
        g = gcd(n, d)
        return n // g, d // g

    def flat_beyond(self, sigma: str) -> bool:
        return all(base.flat_beyond(rho + sigma) for _, _, base, rho in self._terms)


@record(eq=False, repr=False)
class ConstantStrategy(LinearStrategy):
    kind = "constant"
    fields = {"c": Fraction}

    def _linear(self):
        self.c = Fraction(self.c)
        if self.c < 0:
            raise ValueError("negative constant")
        return (), self.c


@record(eq=False, repr=False)
class TableStrategy(BettingStrategy):
    """Tabulated martingale, extended by constancy past its depth."""

    kind = "tabulated"
    fields = {"table": MartingaleTable}

    def _compute(self, sigma: str) -> tuple[int, int]:
        return self.table[sigma[: self.table.depth]].as_integer_ratio()

    def flat_beyond(self, sigma: str) -> bool:
        return len(sigma) >= self.table.depth


@record(eq=False, repr=False)
class PointDoubler(BettingStrategy):
    """Bets everything on following a fixed point: 2^n along it, dead off it.

    PointDoubler(PeriodicPoint("", "0")) is the all-on-zeros doubler used
    throughout the fixtures.
    """

    kind = "point-doubler"
    fields = {"point": PeriodicPoint}

    def _compute(self, sigma: str) -> tuple[int, int]:
        if self.point.prefix(len(sigma)) == sigma:
            return 1 << len(sigma), 1
        return 0, 1

    def flat_beyond(self, sigma: str) -> bool:
        return self._at(sigma)[0] == 0


@record(eq=False, repr=False)
class TranslateStrategy(LinearStrategy):
    """tau -> base(sigma tau): capital seen after entering [sigma]."""

    kind = "translated"
    fields = {"base": BettingStrategy, "sigma": str}

    def _linear(self):
        self.sigma = check_bits(self.sigma)
        return ((ONE, self.base, self.sigma),), ZERO


@record(eq=False, repr=False)
class ScaledStrategy(LinearStrategy):
    """Positive rescaling; fairness is preserved by linearity."""

    kind = "scaled"
    fields = {"base": BettingStrategy, "factor": Fraction}

    def _linear(self):
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")
        self.factor = Fraction(self.factor)
        return ((self.factor, self.base, ""),), ZERO


@record(eq=False, repr=False)
class BlendStrategy(LinearStrategy):
    """Nonnegative-weight combination of strategies (constant 1 included via
    ConstantStrategy); the workhorse behind shifts and averages."""

    kind = "blend"
    fields = {"terms": [(Fraction, BettingStrategy)]}

    def _linear(self):
        self.terms = tuple((Fraction(w), s) for w, s in self.terms)
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("blend weights must be nonnegative")
        # A zero-weight term is never evaluated, nor asked for flatness.
        return tuple((w, s, "") for w, s in self.terms if w != 0), ZERO


def positive_shift(d: BettingStrategy) -> BettingStrategy:
    """d' = (d + 1)/2: positive everywhere, normed when d is."""
    return BlendStrategy([(Fraction(1, 2), d), (Fraction(1, 2), ConstantStrategy(1))])


@record(eq=False, repr=False)
class MixtureStrategy(LinearStrategy):
    """D = (1 - 2^(-n_e+1)) d + 2^(-n_e+1) d_e, the closure-step mixture."""

    kind = "mixture"
    fields = {"d": BettingStrategy, "d_e": BettingStrategy, "n_e": int}

    def _linear(self):
        if self.n_e < 1:
            raise ValueError("n_e must be >= 1")
        weight = Fraction(1, 2 ** (self.n_e - 1))
        return ((1 - weight, self.d, ""), (weight, self.d_e, "")), ZERO


@record(eq=False, repr=False)
class AverageStrategy(LinearStrategy):
    """Truncated average of normalized translates plus the residual weight.

    D(tau) = sum over |sigma| <= L of 2^(-2|sigma|-1) base(sigma tau)/base(sigma)
             + 2^(-L-1).
    Routing the residual tail weight into the constant 1 keeps the result an
    exact normed martingale instead of an approximation of the full series.
    """

    kind = "averaged"
    fields = {"base": BettingStrategy, "level": int}

    def _linear(self):
        if self.level < 0:
            raise ValueError("negative truncation level")
        roots = {s: self.base._at(s) for s in strings_to_depth(self.level)}
        if any(vn == 0 for vn, _ in roots.values()):
            raise ZeroPrefix("base has zero capital at some string of length <= L")
        return (tuple((Fraction(vd, vn << (2 * len(s) + 1)), self.base, s)
                      for s, (vn, vd) in roots.items()),
                Fraction(1, 2 ** (self.level + 1)))


def translate(d: BettingStrategy, sigma: str) -> BettingStrategy:
    """Shifted strategy tau -> d(sigma tau); fairness is inherited."""
    if sigma == "":
        return d
    return TranslateStrategy(d, sigma)


def average_truncated(d: BettingStrategy, level: int, shift: bool = True) -> BettingStrategy:
    """Truncated tail-average of d, normed and fair by construction.

    When d has a zero-capital prefix within the truncation level, the
    positivity shift (d+1)/2 is applied first; pass shift=False to get a
    ZeroPrefix error instead.
    """
    try:
        return AverageStrategy(d, level)
    except ZeroPrefix:
        if not shift:
            raise
        return AverageStrategy(positive_shift(d), level)


@record(eq=False, repr=False)
class ResetStrategy(BettingStrategy):
    """Simulates the base martingale and restarts after each completed block.

    For sigma = rho tau with rho a concatenation of blocks and tau without a
    block prefix (unique since the block set is prefix-free):
    D(sigma iota) = D(sigma) * d(tau iota) / d(tau).  A word made of k blocks
    multiplies the capital by at least q per block, so D >= q^k there.

    Every prefix walked keeps its state (capital pair, start of the open
    block tau), so a string resumes from its longest known prefix: one step
    and one gcd per newly evaluated string when its parent is known.
    """

    kind = "reset"
    fields = {"base": BettingStrategy, "q": Fraction, "blocks": PrefixFreeSet}

    def __post_init__(self):
        super().__post_init__()
        self.q = Fraction(self.q)
        self._block_set = set(self.blocks.elements)
        self._states: dict[str, tuple[int, int, int]] = {"": (1, 1, 0)}

    def _compute(self, sigma: str) -> tuple[int, int]:
        states = self._states
        i = len(sigma)
        while sigma[:i] not in states:
            i -= 1
        n, d, start = states[sigma[:i]]
        tau = sigma[start:i]
        at = self.base._at
        while i < len(sigma):
            dn, dd = at(tau)
            if dn == 0:
                raise DeadCapital(f"base martingale dies at {tau!r} inside a block")
            i += 1
            tau = sigma[start:i]
            vn, vd = at(tau)
            n, d = n * vn * dd, d * vd * dn
            g = gcd(n, d)
            n, d = n // g, d // g
            if tau in self._block_set:
                start, tau = i, ""
            states[sigma[:i]] = (n, d, start)
        return n, d


def reset(d: BettingStrategy, q: Fraction, blocks: PrefixFreeSet) -> BettingStrategy:
    """Reset martingale over the (d, q)-winning set `blocks`.

    Validates that the blocks really are winning: capital >= q at each block
    and at no proper prefix of one.  d must be normed so each completed block
    multiplies capital by at least q exactly.
    """
    q = Fraction(q)
    if q <= 1:
        raise InvalidThreshold("need q > 1")
    # On the memo's pairs, by cross-multiplication; a set's bits are checked.
    at, qn, qd = d._at, q.numerator, q.denominator
    if at("") != (1, 1):
        raise NotWinningSet("reset base must be normed")
    for s in blocks:
        if (v := at(s))[0] * qd < qn * v[1]:
            raise NotWinningSet(f"block {s!r} has capital {Fraction(*v)} < {q}")
        for i in range(len(s)):
            if (v := at(s[:i]))[0] * qd >= qn * v[1]:
                raise NotWinningSet(f"proper prefix {s[:i]!r} of block {s!r} already wins")
    return ResetStrategy(d, q, blocks)


def mixture(d: BettingStrategy, d_e: BettingStrategy, n_e: int) -> BettingStrategy:
    """Exact convex combination (1-2^(-n_e+1)) d + 2^(-n_e+1) d_e."""
    if d.value("") != 1 or d_e.value("") != 1:
        raise ValueError("mixture requires normed strategies")
    return MixtureStrategy(d, d_e, n_e)


@record(slots=True, eq=False)
class WinningSet:
    """Minimal strings at which a strategy's capital first reaches q.

    source_depth is the search horizon; truncated reports whether live
    capital below the horizon means deeper wins may exist.
    """

    fields = {"threshold": Fraction, "generators": PrefixFreeSet, "source_depth": int,
              "truncated": bool}

    def __post_init__(self):
        self.threshold = Fraction(self.threshold)

    def __repr__(self) -> str:
        return (f"WinningSet(q={self.threshold}, generators={list(self.generators)!r}, "
                f"depth={self.source_depth}, truncated={self.truncated})")


def winning_set(d: BettingStrategy, q: Fraction, depth: int) -> WinningSet:
    """Minimal strings of length <= depth with d >= q, by tree search."""
    q = Fraction(q)
    if q <= 1:
        raise InvalidThreshold("need q > 1")
    if depth < 0:
        raise ValueError("negative depth")
    gens: list[str] = []
    truncated = False
    qn, qd = q.numerator, q.denominator

    stack = [""]
    while stack:
        s = stack.pop()
        n, vd = d._at(s)
        if n * qd >= qn * vd:
            gens.append(s)
            continue
        if len(s) == depth:
            if n > 0 and not d.flat_beyond(s):
                truncated = True
            continue
        if d.flat_beyond(s):
            # Constant below s and under q: no generator, and by monotonicity
            # no leaf that could set truncated.
            continue
        stack.append(s + "1")
        stack.append(s + "0")
    return WinningSet(q, PrefixFreeSet(gens), depth, truncated)


def verify_ville_kolmogorov(d: MartingaleTable, sigma: str, q: Fraction) -> Report:
    """Brute-force check of mu(U_{d,sigma,q} | sigma) <= 1/q within the table.

    U_{d,sigma,q} holds the sequences whose capital reaches q * d(sigma) at
    some proper extension of sigma; the conditional measure is summed over
    its minimal witnesses.  Both sides are reported exactly.  With
    d(sigma) = 0 the threshold degenerates to 0 and the literal witness set
    is all of [sigma]; the report flags this case instead of hiding it.
    """
    q = Fraction(q)
    if q <= 1:
        raise InvalidThreshold("need q > 1")
    check_bits(sigma)
    if len(sigma) > d.depth:
        raise ValueError("sigma longer than table depth")
    start = d[sigma]
    threshold = q * start
    tn, td = threshold.numerator, threshold.denominator
    hits: list[str] = []
    stack = [sigma + b for b in "01"] if len(sigma) < d.depth else []
    while stack:
        s = stack.pop()
        vn, vd = d.values[s].as_integer_ratio()
        if vn * td >= tn * vd:
            hits.append(s)
            continue
        if len(s) < d.depth:
            stack.append(s + "1")
            stack.append(s + "0")
    measured = sum(
        (cylinder_measure(s[len(sigma):]) for s in hits), start=Fraction(0)
    )
    rep = Report("ville-kolmogorov")
    rep.put("sigma", sigma)
    rep.put("q", q)
    rep.put("capital_at_sigma", start)
    rep.put("threshold", threshold)
    rep.put("witnesses", sorted(hits, key=lambda s: (len(s), s)))
    rep.put("degenerate_zero_capital", start == 0)
    rep.check("conditional measure <= 1/q", measured, "<=", Fraction(1) / q)
    return rep


def peak(d: BettingStrategy, sigma: str) -> Fraction:
    """The largest capital of d at a prefix of sigma, the empty one and
    sigma included; the prefixes are evaluated from the shortest."""
    check_bits(sigma)
    at = d._at
    bn, bd = at("")
    for i in range(1, len(sigma) + 1):
        n, den = at(sigma[:i])
        if n * bd > bn * den:
            bn, bd = n, den
    return Fraction(bn, bd)


def success_capital(d: BettingStrategy, x: PeriodicPoint, depth: int) -> list[Fraction]:
    """Exact capital trace d(X restricted to 0..depth)."""
    if depth < 0:
        raise ValueError("negative depth")
    path = x.prefix(depth)  # X's bits were checked when X was made
    at = d._at
    return [Fraction(*at(path[:n])) for n in range(depth + 1)]


def table_of(d: BettingStrategy, depth: int) -> MartingaleTable:
    """Tabulate a strategy; lets table-level checks run on any strategy."""
    return MartingaleTable(depth, {s: d.value(s) for s in strings_to_depth(depth)})
