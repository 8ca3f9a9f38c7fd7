"""Batch front door: one construction per subcommand, exact reports out.

Reads a JSON job document (stdin or --input), runs exactly one operation,
and writes a deterministic report echoing every parameter, every asserted
inequality with both sides exact, and a PASS/FAIL verdict per certificate.
Exit status: 0 when every certificate passes, 1 when some check fails,
2 on an operation or parse error.

Operation parameters live in the input document; the flags --depth,
--stages, --q, --k, --c, --cap and --case override the corresponding
document fields.  --decimal adds a float shadow of the output's exact
rationals alongside (never instead of) them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from typing import Any, Callable

from . import closure, coding, covers, diagonal, martingales, series, space
from . import serialize as sz
from .errors import CantorLabError, NoEscape, ParseError, UnknownSubcommand
from .reports import Report
from .serialize import dumps

# Flags that override the document field of the same name, with their types.
_FLAGS = {"depth": int, "stages": int, "q": str, "k": int, "c": int, "cap": int,
          "case": str}

# The deepest nesting of objects and lists a job document may have.
_MAX_DEPTH = 100


def _decimal(value: Fraction) -> float | Fraction:
    """The float shadow of one exact rational; past the float range, the
    rational itself, which the writer renders exactly."""
    try:
        return float(value)
    except OverflowError:
        return value


# Field parsers beyond serialize's: each takes the raw JSON value.

def _bits(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a bit string")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
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


def _case(value) -> str:
    if value not in closure.PROVIDERS:
        raise ValueError(f"must be one of {', '.join(closure.PROVIDERS)}")
    return value


def _each(parse: Callable) -> Callable:
    return lambda value: [parse(x) for x in _list(value)]


def _requests(value):
    return sz.parse_requests({"requests": value})


class _Job:
    """A job document read through the fields its subcommand declares.

    job(key) parses one field with its declared parser; a missing field, or
    one its parser rejects, is a ParseError naming the field.
    """

    __slots__ = ("doc", "fields")

    def __init__(self, doc: dict, fields: dict):
        self.doc = doc
        self.fields = fields

    def __call__(self, key: str):
        if key not in self.doc:
            raise ParseError(f"missing parameter {key!r}")
        try:
            return self.fields[key](self.doc[key])
        except (TypeError, ValueError) as err:
            raise ParseError(f"bad parameter {key!r}: {err}") from None

    def __contains__(self, key: str) -> bool:
        return key in self.doc

    def given(self, *keys: str) -> dict:
        """The named fields the document holds, parsed, as keyword arguments."""
        return {key: self(key) for key in keys if key in self.doc}


class _Op:
    """One subcommand: what it calls, the fields it reads, what it outputs.

    fields maps each document field the subcommand reads to its parser; a
    name ending in "?" is optional.  call is either "module.function",
    looked up at call time and called with the required fields in order and
    the optional ones present in the document by keyword, its return values
    named by outputs and a trailing Report taken as the report; or a handler
    taking the _Job and returning (output document, Report or None).  The
    flags that may override the document are the fields named like one.
    """

    __slots__ = ("call", "fields", "required", "optional", "outputs", "flags")

    def __init__(self, call, fields: dict, *outputs: str):
        if isinstance(call, str):
            module, name = call.split(".")
            call = (globals()[module], name)
        self.call = call
        self.fields = {key.rstrip("?"): parse for key, parse in fields.items()}
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
        return self.rows[_Job(doc, {"case": _case})("case")].run(doc)


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
    provider = cls(**job.given(*(f.name for f in dataclass_fields(cls))))
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
    reqs = job("requests")
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


_SET, _POINT, _STRATEGY, _INT, _BOOL = (sz.parse_set, sz.parse_point,
                                        sz.parse_strategy, sz.parse_int, sz.parse_bool)
_NAT = functools.partial(_INT, natural=True)
_FRAC, _STAGED, _DYADIC, _TEST = (sz.parse_fraction, sz.parse_staged,
                                  sz.parse_dyadic, sz.parse_test)

_HANDLERS = {
    "measure": _Op("space.measure", {"set": _SET}, "measure"),
    "reduce": _Op("space.reduce", {"strings": _list}, "set"),
    "condition": _Op("space.condition", {"set": _SET, "sigma": _bits}, "set"),
    "power": _Op(_power, {"set": _SET, "n": _INT}),
    "covers": _Op("space.covers", {"cover": _SET, "covered": _SET}, "covers"),
    "tails": _Op("space.tails", {"point": _POINT}, "tails"),
    "member": _Op("space.member", {"set": _SET, "point": _POINT}, "member"),
    "fairness": _Op("martingales.check_fairness", {"table": sz.parse_table}, "fair"),
    "winning-set": _Op(_winning_set, {"strategy": _STRATEGY, "q": _FRAC, "depth": _INT}),
    "vk-verify": _Op("martingales.verify_ville_kolmogorov",
                     {"table": sz.parse_table, "sigma": _bits, "q": _FRAC}),
    "translate": _Op("martingales.translate", {"strategy": _STRATEGY, "sigma": _bits},
                     "strategy"),
    "average": _Op(_average, {"strategy": _STRATEGY, "level": _INT, "shift?": _BOOL}),
    "reset": _Op("martingales.reset", {"strategy": _STRATEGY, "q": _FRAC, "blocks": _SET},
                 "strategy"),
    "mixture": _Op("martingales.mixture", {"d": _STRATEGY, "d_e": _STRATEGY, "n_e": _INT},
                   "strategy"),
    "success-capital": _Op("martingales.success_capital",
                           {"strategy": _STRATEGY, "point": _POINT, "depth": _INT},
                           "capitals"),
    "p1": _ByCase(
        mlr=_Op("closure.p1_mlr", {"set": _SET, "sigma": _bits}, "set"),
        cr=_Op("closure.p1_cr", {"strategy": _STRATEGY, "q": _FRAC, "sigma": _bits,
                                 "empty_marker?": _BOOL}, "strategy", "q"),
        sr=_Op("closure.p1_sr", {"staged": _STAGED, "sigma": _bits}, "staged")),
    "p2": _ByCase(
        mlr=_Op("closure.p2_mlr", {"set": _SET, "q": _FRAC}, "set"),
        cr=_Op("closure.p2_cr_check", {"strategy": _STRATEGY, "q": _FRAC,
                                       "sigma": _bits, "depth": _INT}),
        sr=_Op("closure.p2_sr", {"staged": _STAGED, "k": _NAT, "depth": _INT}, "set")),
    "p3": _ByCase(
        mlr=_Op("closure.p3_mlr", {"set": _SET, "sigma": _bits, "k": _NAT,
                                   "test?": _TEST}, "n_e", "set"),
        cr=_Op("closure.p3_cr", {"strategy": _STRATEGY, "q": _FRAC, "sigma": _bits,
                                 "d_e": _STRATEGY, "depth": _INT, "cap?": _INT},
               "n_e", "winning_set"),
        sr=_Op("closure.p3_sr", {"staged": _STAGED, "other": _STAGED}, "staged")),
    "main-lemma": _Op(_main_lemma, {"w": _SET, "tests?": _each(_TEST), "case": _case,
                                    "q?": _FRAC, "k?": _NAT, "depth?": _INT, "cap?": _INT,
                                    "stages": _INT}),
    "verify-trace": _Op("diagonal.verify_trace",
                        {"trace": sz.parse_trace, "w": _SET, "tests?": _each(_TEST)}),
    "schnorr-merge": _Op("covers.schnorr_merge",
                         {"test": _TEST, "K": _INT, "point?": _POINT}, "set"),
    "power-test": _Op("covers.power_test", {"set": _SET, "N": _INT}, "test"),
    "tails-to-power": _Op(_tails_to_power, {"set": _SET, "point": _POINT, "n": _INT}),
    "remark-bundle": _Op("covers.remark24_bundle",
                         {"set": _SET, "points?": _each(_POINT), "n?": _INT}),
    "kc-build": _Op(_kc_build, {"requests": _requests}),
    "complexity": _Op(_complexity, {"machine": sz.parse_machine, "sigma": _bits}),
    "machine-to-f": _Op("coding.machine_to_f", {"machine": sz.parse_machine}, "f"),
    "g-to-machine": _Op("coding.g_to_machine", {"g": _DYADIC, "c": _INT}, "machine"),
    "flatten": _Op(_flatten, {"aggregate?": _DYADIC,
                              "stage_functions": _each(_DYADIC)}),
    "normalize": _Op("coding.normalize_sum", {"f": _DYADIC, "N": _INT}, "f"),
    "b-set": _Op(_b_set, {"n": _INT, "alpha": _FRAC}),
    "series-to-open": _Op("series.series_to_open", {"f": _DYADIC},
                          "set", "product_measure"),
    "open-to-series": _Op(_open_to_series, {"n": _INT, "staged?": _STAGED, "c": _NAT,
                                            "set": _SET}),
    "vn-from-g": _Op("series.vn_from_g", {"g": _DYADIC, "n": _INT}, "set"),
    "f-from-test": _Op("series.f_from_test", {"test": _TEST}, "f"),
    "encode-series": _Op("series.encode_series", {"exponents": _each(_NAT), "q": _FRAC},
                         "set", "strategy"),
    "extract-series": _Op(_extract_series, {"set": _SET, "count": _INT, "lmax": _INT}),
    "tree-embed": _Op("series.tree_embed",
                      {"strategy": _STRATEGY, "depth": _INT, "budget?": _INT}, "map"),
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to main rather than at
    import, and reused: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description="Exact-rational constructions on Cantor space, one per job.",
    )
    parser.add_argument("subcommand", help="operation name, e.g. measure, main-lemma")
    parser.add_argument("--input", help="job document (JSON); default stdin")
    parser.add_argument("--output", help="report path; default stdout")
    for name, kind in _FLAGS.items():
        parser.add_argument(f"--{name}", type=kind,
                            choices=list(closure.PROVIDERS) if name == "case" else None)
    parser.add_argument("--decimal", action="store_true",
                        help="echo float approximations of the exact rationals "
                             "alongside them")
    return parser


def _error(subcommand: str, kind: str, err: Exception) -> tuple[dict, int]:
    """The report of a job that did not run, and its exit status."""
    return {"subcommand": subcommand, "result": "ERROR",
            "error": {"type": kind, "message": str(err)}}, 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            text = sys.stdin.read().strip()
            doc = json.loads(text) if text else {}
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
    except (ValueError, OSError, ParseError, RecursionError) as err:
        # A missing file, bytes that are not UTF-8, text that is not JSON or
        # nested past what the decoder recurses into.
        report, status = _error(args.subcommand, "ParseError", err)
    else:
        op = _HANDLERS.get(args.subcommand)
        for name in op.flags if op else ():
            if getattr(args, name) is not None:
                doc[name] = getattr(args, name)
        try:
            report, status = dispatch(args.subcommand, doc, decimal=args.decimal)
        except UnknownSubcommand as err:
            report, status = _error(args.subcommand, "UnknownSubcommand", err)

    text = dumps(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return status
        except OSError as err:
            report, status = _error(args.subcommand, type(err).__name__, err)
            text = dumps(report)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
