"""Finite-extension diagonalization against a list of tests.

Runs the main construction at desk scale: starting from the empty prefix
and the empty open set, each stage absorbs one test level through the
provider's P3 step and extends the prefix by a word of W whose conditional
measure stays below 1.  Both proof branches are observable: a successful
run yields a fully certified trace, and a failed escape search yields a
constructive certificate that [W] is covered by a set of the provider's
class (built through P1 and P2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .closure import PROVIDERS
from .covers import TestFamily
from .errors import NoEscape
from .reports import Report
from .space import PrefixFreeSet, condition, covers, measure, record


@record(frozen=True)
class TraceStage:
    """State at the start of stage `index` plus the choices made during it.

    The final record carries the finished prefix and set with no choices.
    """

    fields = {"index": int, "sigma": str, "set": PrefixFreeSet, "n_e?": int | None,
              "tau?": str | None}

    def __post_init__(self):
        for name, bits in (("sigma", self.sigma), ("tau", self.tau or "")):
            if bits.strip("01"):
                raise ValueError(f"field {name!r}: not a bit string: {bits!r}")


@record(frozen=True)
class DiagonalTrace:
    """The stages of one run, stage e at position e: verify_trace checks
    stage e against test e, so a stage recorded as another is refused."""

    fields = {"case": PROVIDERS, "stages": [TraceStage]}

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("a trace needs at least its final stage")
        for e, rec in enumerate(stages):
            if rec.index != e:
                raise ValueError(f"stage {e} is recorded as stage {rec.index}")
        object.__setattr__(self, "stages", stages)

    @property
    def final_sigma(self) -> str:
        return self.stages[-1].sigma


def run(w: PrefixFreeSet, provider, tests: Sequence[TestFamily],
        stage_count: int) -> tuple[DiagonalTrace, Report]:
    """Execute stage_count stages of the construction over the word set W,
    with a provider of closure.PROVIDERS; verify_trace certifies the trace.

    tau is always the first escaping word of W in length-lex order, so runs
    are deterministic and traces diffable.  Stages past the supplied test
    list run the P3 step against an empty test level.  Raises NoEscape with
    a covering certificate when some stage has no escaping word: that is the
    construction's contradiction branch, certifying that [W] is covered by a
    member of the provider's class.
    """
    if "" in w:
        raise ValueError("epsilon in W")
    if stage_count < 0:
        raise ValueError("negative stage count")
    state = provider.initial()
    sigma = ""
    records = []
    for e in range(stage_count):
        test = tests[e] if e < len(tests) else None
        n_e, vstate = provider.p3(state, sigma, test)
        tau = next((t for t in w if measure(condition(vstate.generators, sigma + t)) < 1),
                   None)
        if tau is None:
            raise NoEscape(e, sigma, _covering_certificate(w, provider, vstate, sigma))
        records.append(TraceStage(e, sigma, state.generators, n_e, tau))
        sigma = sigma + tau
        state = vstate
    records.append(TraceStage(stage_count, sigma, state.generators, None, None))
    trace = DiagonalTrace(provider.case, tuple(records))
    return trace, verify_trace(trace, w, tests)


def _covering_certificate(w: PrefixFreeSet, provider, vstate, sigma: str) -> Report:
    """Certificate for the contradiction branch: [W] covered in-class.

    Every word of W has full conditional measure in V after sigma; P1 turns
    (V | sigma) into a class member, and P2 completes its full cylinders,
    which include every [tau] for tau in W.
    """
    cert = Report("no-escape-covering")
    cert.put("sigma", sigma)
    cert.put("v_generators", vstate.generators)
    for t in w:
        cert.check(f"mu(V | sigma+{t!r}) == 1",
                   measure(condition(vstate.generators, sigma + t)), "==", Fraction(1))
    conditioned = provider.p1(vstate, sigma)
    completed, p2rep = provider.p2(conditioned)
    cert.checks.extend(p2rep.checks)
    cert.put("covering_generators", completed.generators)
    cert.record("[W] covered by the completed set", covers(completed.generators, w))
    return cert


def verify_trace(trace: DiagonalTrace, w: PrefixFreeSet,
                 tests: Sequence[TestFamily] = ()) -> Report:
    """Re-check every trace invariant from the recorded data alone."""
    rep = Report("diagonal-trace")
    stages = trace.stages
    rep.put("case", trace.case)
    rep.put("stage_count", len(stages) - 1)
    rep.put("final_sigma", trace.final_sigma)
    for rec, nxt in zip(stages, stages[1:]):
        e = rec.index
        rep.record(f"stage {e}: tau in W and nonempty",
                   rec.tau is not None and rec.tau != "" and rec.tau in w)
        rep.record(f"stage {e}: sigma chains by tau",
                   nxt.sigma == rec.sigma + (rec.tau or ""))
        rep.record(f"stage {e}: U_{e+1} covers U_{e}",
                   covers(nxt.set, rec.set))
        rep.check(f"stage {e}: mu(U_{e+1} | sigma_{e}) < 1",
                  measure(condition(nxt.set, rec.sigma)), "<", Fraction(1))
        rep.check(f"stage {e}: mu(U_{e+1} | sigma_{e+1}) < 1",
                  measure(condition(nxt.set, nxt.sigma)), "<", Fraction(1))
        if e < len(tests) and rec.n_e is not None:
            level = tests[e].level(rec.n_e)
            rep.record(f"stage {e}: U_{e+1} captures test level n_e={rec.n_e}",
                       covers(nxt.set, level))
    final = trace.final_sigma
    for e, rec in enumerate(stages[:-1]):
        if e < len(tests) and rec.n_e is not None:
            level = tests[e].level(rec.n_e)
            rep.check(f"avoidance: mu(T^({e})_{rec.n_e} | final sigma) < 1",
                      measure(condition(level, final)), "<", Fraction(1))
    rep.record("final sigma factors into stage words",
               "".join(r.tau or "" for r in stages[:-1]) == final)
    return rep
