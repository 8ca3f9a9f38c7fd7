"""Batch front door: one construction per subcommand, exact reports out.

Reads a JSON job document (stdin or --input), runs exactly one operation,
and writes a deterministic report echoing every parameter, every asserted
inequality with both sides exact, and a PASS/FAIL verdict per certificate.
Exit status: 0 when every certificate passes, 1 when some check fails,
2 on an operation or parse error, a malformed command line included.

Operation parameters live in the input document; the flags --depth,
--stages, --q, --k, --c, --cap and --case override the corresponding
document fields.  --decimal adds a float shadow of the output's exact
rationals alongside (never instead of) them.  Flags are --name value or
--name=value, a name in full or a unique prefix; --help (-h) lists them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from . import closure, coding, covers, diagonal, martingales, series, space
from . import serialize as sz
from .coding import DyadicFunction, KCRequestList, Machine
from .covers import TestFamily
from .diagonal import DiagonalTrace
from .errors import CantorLabError, NoEscape, ParseError, UnknownSubcommand
from .martingales import BettingStrategy, MartingaleTable
from .reports import Report
from .serialize import dumps
from .space import Natural, PeriodicPoint, PrefixFreeSet, StagedOpenSet

# Flags that override the document field of the same name, with their types.
_FLAGS = {"depth": int, "stages": int, "q": str, "k": int, "c": int, "cap": int,
          "case": str}
# The options main reads, each with its value's type, None for a switch.
_OPTIONS = {"input": str, "output": str, **_FLAGS, "decimal": None, "help": None}

# The deepest nesting of objects and lists a job document may have.
_MAX_DEPTH = 100


def _decimal(value: Fraction) -> float | Fraction:
    """The float shadow of one exact rational; past the float range, the
    rational itself, which the writer renders exactly."""
    try:
        return float(value)
    except OverflowError:
        return value


def _check_job(doc: dict) -> None:
    """ParseError if doc nests objects and lists deeper than _MAX_DEPTH, or
    else holds a float; walked level by level, so it never recurses."""
    level, floats = [doc], False
    for _ in range(_MAX_DEPTH):
        items = [x for node in level
                 for x in (node.values() if isinstance(node, dict) else node)]
        floats = floats or float in map(type, items)
        if not (level := [x for x in items if isinstance(x, (dict, list, tuple))]):
            if floats:
                raise ParseError("cannot serialize float")
            return
    raise ParseError(f"job document nested deeper than {_MAX_DEPTH} levels")


class _Job:
    """A job document read through the fields its subcommand declares:
    job(key) reads one by its wire type through serialize.parse_field, and a
    missing field, or one of the wrong shape, is a ParseError naming it."""

    __slots__ = ("doc", "fields")

    def __init__(self, doc: dict, fields: dict):
        self.doc = doc
        self.fields = fields

    def __call__(self, key: str):
        if key not in self.doc:
            raise ParseError(f"missing parameter {key!r}")
        try:
            return sz.parse_field(self.fields[key], self.doc[key])
        except (TypeError, ValueError) as err:
            raise ParseError(f"bad parameter {key!r}: {err}") from None

    def __contains__(self, key: str) -> bool:
        return key in self.doc

    def given(self, *keys: str) -> dict:
        """The named fields the document holds, parsed, as keyword arguments."""
        return {key: self(key) for key in keys if key in self.doc}


class _Op:
    """One subcommand: what it calls, the fields it reads, what it outputs.

    fields maps each document field the subcommand reads to its wire type,
    which serialize.parse_field reads: a record class by the fields it
    declares, str a bit string, [T] a JSON list of T, list any JSON list,
    (A, B) a pair, Natural an integer >= 0, closure.PROVIDERS one of its
    keys.  A name ending in "?" is optional, as in a record's fields.  call
    is either "module.function", looked up at call time and called with the
    required fields in order and the optional ones present in the document
    by keyword, its return values named by outputs and a trailing Report
    taken as the report; or a handler taking the _Job and returning (output
    document, Report or None).  The flags that may override the document
    are the fields named like one.
    """

    __slots__ = ("call", "fields", "required", "optional", "outputs", "flags")

    def __init__(self, call, fields: dict, *outputs: str):
        if isinstance(call, str):
            module, name = call.split(".")
            call = (globals()[module], name)
        self.call = call
        self.fields = {key.rstrip("?"): wire for key, wire in fields.items()}
        self.required = [key for key in fields if not key.endswith("?")]
        self.optional = [key[:-1] for key in fields if key.endswith("?")]
        self.outputs = outputs
        self.flags = [key for key in self.fields if key in _FLAGS]

    def run(self, doc: dict) -> tuple[dict, Report | None]:
        job = _Job(doc, self.fields)
        if not isinstance(self.call, tuple):
            return self.call(job)
        module, name = self.call
        result = getattr(module, name)(*map(job, self.required),
                                       **job.given(*self.optional))
        values = result if isinstance(result, tuple) else (result,)
        rep = None
        if values and isinstance(values[-1], Report):
            values, rep = values[:-1], values[-1]
        return dict(zip(self.outputs, values)), rep


class _ByCase:
    """A subcommand with one _Op row per closure case, run by the job's
    case; its flags are case and those of its rows."""

    __slots__ = ("rows", "flags")

    def __init__(self, **rows: _Op):
        self.rows = rows
        self.flags = ["case", *{key: None for op in rows.values() for key in op.flags}]

    def run(self, doc: dict) -> tuple[dict, Report | None]:
        return self.rows[_Job(doc, {"case": closure.PROVIDERS})("case")].run(doc)


# Handlers that build their own report, branch, or reshape their output.

def _power(job):
    u, n = job("set"), job("n")
    p = space.power(u, n)
    rep = Report("power")
    rep.check("measure(U^n) == measure(U)^n", space.measure(p), "==",
              space.measure(u) ** n)
    return {"set": p, "measure": space.measure(p)}, rep


def _winning_set(job):
    d = job("strategy")
    w = martingales.winning_set(d, job("q"), job("depth"))
    rep = Report("winning-set")
    rep.check("measure(generators) <= d(epsilon)/q",
              space.measure(w.generators), "<=", d.value("") / w.threshold)
    return {"winning_set": w}, rep


def _average(job):
    out = martingales.average_truncated(job("strategy"), job("level"),
                                        **job.given("shift"))
    rep = Report("average")
    rep.check("normed", out.value(""), "==", Fraction(1))
    return {"strategy": out}, rep


def _main_lemma(job):
    cls = closure.PROVIDERS[job("case")]
    provider = cls(**job.given(*cls.__match_args__))
    tests = job("tests") if "tests" in job else []
    try:
        trace, rep = diagonal.run(job("w"), provider, tests, job("stages"))
    except NoEscape as err:
        return {"outcome": "no-escape", "stage": err.stage,
                "sigma": err.sigma}, err.certificate
    return {"outcome": "trace", "trace": trace}, rep


def _tails_to_power(job):
    cert = covers.tails_to_power(job("set"), job("point"), job("n"))
    return {"factors": cert.factors, "prefix": cert.prefix}, None


def _kc_build(job):
    reqs = KCRequestList(job("requests"))
    m = coding.kc_build(reqs)
    rep = Report("kc-build")
    rep.check("domain measure == Kraft weight", m.domain_measure, "==", reqs.weight)
    return {"machine": m}, rep


def _complexity(job):
    k = coding.complexity(job("machine"), job("sigma"))
    return {"complexity": k if k is not None else "infinity"}, None


def _flatten(job):
    if "aggregate" in job:
        return {"g": coding.aggregate_pairs(job("aggregate"))}, None
    return {"flat": coding.flatten_staged(job("stage_functions"))}, None


def _b_set(job):
    alpha = job("alpha")
    out = series.b_set(job("n"), alpha)
    rep = Report("b-set")
    rep.put("pairing", series.PAIRING_RULE)
    rep.check("measure == alpha", space.measure(out), "==", alpha)
    return {"set": out}, rep


def _open_to_series(job):
    n = job("n")
    if "staged" in job:
        return {"alpha": series.open_to_series_approx(job("staged"), n, job("c"))}, None
    return {"alpha": series.open_to_series_sup(job("set"), n)}, None


def _extract_series(job):
    res = series.extract_series(job("set"), job("count"), job("lmax"))
    out = {"block_lengths": [l if l is not None else "infinity"
                             for l in res.block_lengths],
           "g": res.series}
    return out, res.report


_HANDLERS = {
    "measure": _Op("space.measure", {"set": PrefixFreeSet}, "measure"),
    "reduce": _Op("space.reduce", {"strings": list}, "set"),
    "condition": _Op("space.condition", {"set": PrefixFreeSet, "sigma": str}, "set"),
    "power": _Op(_power, {"set": PrefixFreeSet, "n": int}),
    "covers": _Op("space.covers", {"cover": PrefixFreeSet, "covered": PrefixFreeSet},
                  "covers"),
    "tails": _Op("space.tails", {"point": PeriodicPoint}, "tails"),
    "member": _Op("space.member", {"set": PrefixFreeSet, "point": PeriodicPoint}, "member"),
    "fairness": _Op("martingales.check_fairness", {"table": MartingaleTable}, "fair"),
    "winning-set": _Op(_winning_set, {"strategy": BettingStrategy, "q": Fraction,
                                      "depth": int}),
    "vk-verify": _Op("martingales.verify_ville_kolmogorov",
                     {"table": MartingaleTable, "sigma": str, "q": Fraction}),
    "translate": _Op("martingales.translate", {"strategy": BettingStrategy, "sigma": str},
                     "strategy"),
    "average": _Op(_average, {"strategy": BettingStrategy, "level": int, "shift?": bool}),
    "reset": _Op("martingales.reset", {"strategy": BettingStrategy, "q": Fraction,
                                       "blocks": PrefixFreeSet}, "strategy"),
    "mixture": _Op("martingales.mixture", {"d": BettingStrategy, "d_e": BettingStrategy,
                                           "n_e": int}, "strategy"),
    "success-capital": _Op("martingales.success_capital",
                           {"strategy": BettingStrategy, "point": PeriodicPoint, "depth": int},
                           "capitals"),
    "p1": _ByCase(
        mlr=_Op("closure.p1_mlr", {"set": PrefixFreeSet, "sigma": str}, "set"),
        cr=_Op("closure.p1_cr", {"strategy": BettingStrategy, "q": Fraction, "sigma": str,
                                 "empty_marker?": bool}, "strategy", "q"),
        sr=_Op("closure.p1_sr", {"staged": StagedOpenSet, "sigma": str}, "staged")),
    "p2": _ByCase(
        mlr=_Op("closure.p2_mlr", {"set": PrefixFreeSet, "q": Fraction}, "set"),
        cr=_Op("closure.p2_cr_check", {"strategy": BettingStrategy, "q": Fraction,
                                       "sigma": str, "depth": int}),
        sr=_Op("closure.p2_sr", {"staged": StagedOpenSet, "k": Natural, "depth": int},
               "set")),
    "p3": _ByCase(
        mlr=_Op("closure.p3_mlr", {"set": PrefixFreeSet, "sigma": str, "k": Natural,
                                   "test?": TestFamily}, "n_e", "set"),
        cr=_Op("closure.p3_cr", {"strategy": BettingStrategy, "q": Fraction, "sigma": str,
                                 "d_e": BettingStrategy, "depth": int, "cap?": int},
               "n_e", "winning_set"),
        sr=_Op("closure.p3_sr", {"staged": StagedOpenSet, "other": StagedOpenSet},
               "staged")),
    "main-lemma": _Op(_main_lemma, {"w": PrefixFreeSet, "tests?": [TestFamily],
                                    "case": closure.PROVIDERS, "q?": Fraction,
                                    "k?": Natural, "depth?": int, "cap?": int,
                                    "stages": Natural}),
    "verify-trace": _Op("diagonal.verify_trace", {"trace": DiagonalTrace, "w": PrefixFreeSet,
                                                  "tests?": [TestFamily]}),
    "schnorr-merge": _Op("covers.schnorr_merge",
                         {"test": TestFamily, "K": int, "point?": PeriodicPoint}, "set"),
    "power-test": _Op("covers.power_test", {"set": PrefixFreeSet, "N": int}, "test"),
    "tails-to-power": _Op(_tails_to_power, {"set": PrefixFreeSet, "point": PeriodicPoint,
                                            "n": int}),
    "remark-bundle": _Op("covers.remark24_bundle",
                         {"set": PrefixFreeSet, "points?": [PeriodicPoint], "n?": int}),
    "kc-build": _Op(_kc_build, KCRequestList.fields),
    "complexity": _Op(_complexity, {"machine": Machine, "sigma": str}),
    "machine-to-f": _Op("coding.machine_to_f", {"machine": Machine}, "f"),
    "g-to-machine": _Op("coding.g_to_machine", {"g": DyadicFunction, "c": int}, "machine"),
    "flatten": _Op(_flatten, {"aggregate?": DyadicFunction,
                              "stage_functions": [DyadicFunction]}),
    "normalize": _Op("coding.normalize_sum", {"f": DyadicFunction, "N": int}, "f"),
    "b-set": _Op(_b_set, {"n": int, "alpha": Fraction}),
    "series-to-open": _Op("series.series_to_open", {"f": DyadicFunction},
                          "set", "product_measure"),
    "open-to-series": _Op(_open_to_series, {"n": Natural, "staged?": StagedOpenSet,
                                            "c": Natural, "set": PrefixFreeSet}),
    "vn-from-g": _Op("series.vn_from_g", {"g": DyadicFunction, "n": int}, "set"),
    "f-from-test": _Op("series.f_from_test", {"test": TestFamily}, "f"),
    "encode-series": _Op("series.encode_series", {"exponents": [Natural], "q": Fraction},
                         "set", "strategy"),
    "extract-series": _Op(_extract_series, {"set": PrefixFreeSet, "count": int,
                                            "lmax": int}),
    "tree-embed": _Op("series.tree_embed",
                      {"strategy": BettingStrategy, "depth": Natural, "budget?": int}, "map"),
}


def dispatch(subcommand: str, doc: dict, decimal: bool = False) -> tuple[dict, int]:
    """Run one operation; returns (report, exit status).  The report holds
    the job and the values as the operation returned them, for dumps."""
    if subcommand not in _HANDLERS:
        raise UnknownSubcommand(subcommand)
    out: dict[str, Any] = {"subcommand": subcommand}
    try:
        _check_job(doc)
        out["parameters"] = doc
        output, rep = _HANDLERS[subcommand].run(doc)
    except (CantorLabError, ValueError, TypeError, KeyError) as err:
        # Malformed input surfaces as ParseError from the field parsers (a
        # missing or mistyped field, a JSON float in the job) or as
        # ValueError / TypeError from the operation (a bad bit string, a
        # negative index): an error report, never a traceback.
        out.update(result="ERROR", error={"type": type(err).__name__, "message": str(err)})
        return out, 2
    out["output"] = output
    if rep is not None:
        out["checks"], out["data"] = rep.checks, rep.data
    out["result"] = "PASS" if rep is None or rep.passed else "FAIL"
    if decimal:
        out["decimal"] = sz.to_doc(output, _decimal)
    return out, 0 if out["result"] == "PASS" else 1


def _read_argv(argv: list[str]) -> dict:
    """The options of argv, --name value or --name=value by _OPTIONS, a name
    exact or else a unique prefix, -h for --help, and its one positional,
    the subcommand; ParseError names the argument out of place."""
    opts, args = {}, iter(argv)
    for arg in args:
        if arg[:1] != "-" and "subcommand" not in opts:
            opts["subcommand"] = arg
            continue
        flag, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        names = [key for key in _OPTIONS if len(flag) > 2 and ("--" + key).startswith(flag)]
        if len(names := [flag[2:]] if flag[2:] in names else names) != 1:
            raise ParseError(f"{'ambiguous' if names else 'unexpected'} argument {arg!r}")
        kind = _OPTIONS[name := names[0]]
        value = next(args, "") if kind and not eq else value
        try:  # a value, not empty and not the next flag, for each option but a switch
            if eq if kind is None else not value or value[:2] == "--":
                raise ValueError
            opts[name] = kind(value) if kind else True
        except ValueError:
            want = "no value" if kind is None else "an integer" if kind is int else "a value"
            raise ParseError(f"bad flag '--{name}': expected {want}, got {value!r}") from None
    if "subcommand" not in opts and "help" not in opts:
        raise ParseError("missing subcommand")
    return opts


_USAGE = ("usage: cantorlab SUBCOMMAND " + " ".join(f"[--{key}{' ' + key.upper() if kind else ''}]"
          for key, kind in _OPTIONS.items()) + f"\n\nsubcommands: {', '.join(_HANDLERS)}\n")


def _error(subcommand: str, kind: str, err: Exception) -> tuple[dict, int]:
    """The report of a job that did not run, and its exit status."""
    return {"subcommand": subcommand, "result": "ERROR",
            "error": {"type": kind, "message": str(err)}}, 2


def main(argv=None) -> int:
    opts: dict[str, Any] = {}
    try:
        opts = _read_argv(sys.argv[1:] if argv is None else argv)
        if "help" in opts:
            sys.stdout.write(_USAGE)
            return 0
        if opts.get("input"):
            with open(opts["input"], "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            text = sys.stdin.read().strip()
            doc = json.loads(text) if text else {}
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
    except (ValueError, OSError, ParseError, RecursionError) as err:
        # A bad argv, which keeps no option; a missing file, bytes not UTF-8,
        # text not JSON or nested past what the decoder recurses into.
        report, status = _error(opts.get("subcommand"), "ParseError", err)
    else:
        op = _HANDLERS.get(opts["subcommand"])
        for name in op.flags if op else ():
            if name in opts:
                doc[name] = opts[name]
        try:
            report, status = dispatch(opts["subcommand"], doc, decimal="decimal" in opts)
        except UnknownSubcommand as err:
            report, status = _error(opts["subcommand"], "UnknownSubcommand", err)

    text = dumps(report)
    if opts.get("output"):
        try:
            with open(opts["output"], "w", encoding="utf-8") as fh:
                fh.write(text)
            return status
        except OSError as err:
            report, status = _error(opts["subcommand"], type(err).__name__, err)
            text = dumps(report)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
