"""Batch front door: one construction per subcommand, exact reports out.

Reads a JSON job document (stdin or --input), runs exactly one operation,
and writes a deterministic report echoing every parameter, every asserted
inequality with both sides exact, and a PASS/FAIL verdict per certificate.
Exit status: 0 when every certificate passes, 1 when some check fails,
2 on an operation or parse error.

Operation parameters live in the input document; the flags --depth,
--stages, --q, --k, --c, --cap and --case override the corresponding
document fields.  --decimal adds a float shadow of the output alongside
(never instead of) the exact rationals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import closure, coding, covers, diagonal, martingales, series, space
from . import serialize as sz
from .errors import CantorLabError, NoEscape, ParseError, UnknownSubcommand
from .reports import Report, dumps, fmt


def _decimal_shadow(doc: Any) -> Any:
    if isinstance(doc, str):
        try:
            return float(Fraction(doc))
        except (ValueError, ZeroDivisionError):
            return doc
    if isinstance(doc, list):
        return [_decimal_shadow(x) for x in doc]
    if isinstance(doc, dict):
        return {k: _decimal_shadow(v) for k, v in doc.items()}
    return doc


def _merged(doc: dict, args, names: list[str]) -> dict:
    """Document parameters with flag overrides, for dispatch and echo."""
    out = dict(doc)
    overrides = {
        "depth": args.depth, "stages": args.stages, "q": args.q, "k": args.k,
        "c": args.c, "cap": args.cap, "case": args.case,
    }
    for name in names:
        if overrides.get(name) is not None:
            out[name] = overrides[name]
    return out


def _int(doc: dict, key: str, default=None) -> int:
    if key not in doc:
        if default is None:
            raise ParseError(f"missing parameter {key!r}")
        return default
    try:
        return int(doc[key])
    except (TypeError, ValueError):
        raise ParseError(f"parameter {key!r} must be an integer") from None


def _frac(doc: dict, key: str, default=None) -> Fraction:
    if key not in doc:
        if default is None:
            raise ParseError(f"missing parameter {key!r}")
        return default
    return sz.parse_fraction(doc[key])


def _sigma(doc: dict, key: str = "sigma") -> str:
    if key not in doc or not isinstance(doc[key], str):
        raise ParseError(f"missing bit string parameter {key!r}")
    return doc[key]


# Each handler: (doc) -> (output_doc, Report | None)

def _op_measure(doc):
    u = sz.parse_set(doc["set"])
    return {"measure": space.measure(u)}, None


def _op_reduce(doc):
    if "strings" not in doc:
        raise ParseError("missing parameter 'strings'")
    return {"set": space.reduce(doc["strings"])}, None


def _op_condition(doc):
    u = sz.parse_set(doc["set"])
    return {"set": space.condition(u, _sigma(doc))}, None


def _op_power(doc):
    u = sz.parse_set(doc["set"])
    n = _int(doc, "n")
    p = space.power(u, n)
    rep = Report("power")
    rep.check("measure(U^n) == measure(U)^n", space.measure(p), "==",
              space.measure(u) ** n)
    return {"set": p, "measure": space.measure(p)}, rep


def _op_covers(doc):
    v = sz.parse_set(doc["cover"])
    u = sz.parse_set(doc["covered"])
    return {"covers": space.covers(v, u)}, None


def _op_tails(doc):
    x = sz.parse_point(doc["point"])
    return {"tails": space.tails(x)}, None


def _op_member(doc):
    u = sz.parse_set(doc["set"])
    x = sz.parse_point(doc["point"])
    return {"member": space.member(u, x)}, None


def _op_fairness(doc):
    t = sz.parse_table(doc["table"])
    return {"fair": martingales.check_fairness(t)}, None


def _op_winning_set(doc):
    d = sz.parse_strategy(doc["strategy"])
    w = martingales.winning_set(d, _frac(doc, "q"), _int(doc, "depth"))
    rep = Report("winning-set")
    rep.check("measure(generators) <= d(epsilon)/q",
              space.measure(w.generators), "<=", d.value("") / w.threshold)
    return {"winning_set": w}, rep


def _op_vk_verify(doc):
    t = sz.parse_table(doc["table"])
    rep = martingales.verify_ville_kolmogorov(t, _sigma(doc), _frac(doc, "q"))
    return {}, rep


def _op_translate(doc):
    d = sz.parse_strategy(doc["strategy"])
    out = martingales.translate(d, _sigma(doc))
    return {"strategy": out}, None


def _op_average(doc):
    d = sz.parse_strategy(doc["strategy"])
    out = martingales.average_truncated(d, _int(doc, "level"),
                                        shift=bool(doc.get("shift", True)))
    rep = Report("average")
    rep.check("normed", out.value(""), "==", Fraction(1))
    return {"strategy": out}, rep


def _op_reset(doc):
    d = sz.parse_strategy(doc["strategy"])
    out = martingales.reset(d, _frac(doc, "q"), sz.parse_set(doc["blocks"]))
    return {"strategy": out}, None


def _op_mixture(doc):
    d = sz.parse_strategy(doc["d"])
    d_e = sz.parse_strategy(doc["d_e"])
    out = martingales.mixture(d, d_e, _int(doc, "n_e"))
    return {"strategy": out}, None


def _op_success_capital(doc):
    d = sz.parse_strategy(doc["strategy"])
    x = sz.parse_point(doc["point"])
    return {"capitals": martingales.success_capital(d, x, _int(doc, "depth"))}, None


def _case(doc) -> str:
    case = doc.get("case")
    if case not in ("mlr", "cr", "sr"):
        raise ParseError("parameter 'case' must be one of mlr, cr, sr")
    return case


def _op_p1(doc):
    case = _case(doc)
    if case == "mlr":
        out = closure.p1_mlr(sz.parse_set(doc["set"]), _sigma(doc))
        return {"set": out}, None
    if case == "cr":
        d2, q2 = closure.p1_cr(sz.parse_strategy(doc["strategy"]), _frac(doc, "q"),
                               _sigma(doc), empty_marker=bool(doc.get("empty_marker")))
        return {"strategy": d2, "q": q2}, None
    out = closure.p1_sr(sz.parse_staged(doc["staged"]), _sigma(doc))
    return {"staged": out}, None


def _op_p2(doc):
    case = _case(doc)
    if case == "mlr":
        v, rep = closure.p2_mlr(sz.parse_set(doc["set"]), _frac(doc, "q"))
        return {"set": v}, rep
    if case == "cr":
        rep = closure.p2_cr_check(sz.parse_strategy(doc["strategy"]), _frac(doc, "q"),
                                  _sigma(doc), _int(doc, "depth"))
        return {}, rep
    v, rep = closure.p2_sr(sz.parse_staged(doc["staged"]), _int(doc, "k"),
                           _int(doc, "depth"))
    return {"set": v}, rep


def _op_p3(doc):
    case = _case(doc)
    if case == "mlr":
        test = sz.parse_test(doc["test"]) if "test" in doc else None
        n_e, v, rep = closure.p3_mlr(sz.parse_set(doc["set"]), _sigma(doc),
                                     _int(doc, "k"), test)
        return {"n_e": n_e, "set": v}, rep
    if case == "cr":
        n_e, w, rep = closure.p3_cr(
            sz.parse_strategy(doc["strategy"]), _frac(doc, "q"), _sigma(doc),
            sz.parse_strategy(doc["d_e"]), _int(doc, "depth"),
            cap=_int(doc, "cap", 16))
        return {"n_e": n_e, "winning_set": w}, rep
    out = closure.p3_sr(sz.parse_staged(doc["staged"]), sz.parse_staged(doc["other"]))
    return {"staged": out}, None


def _provider(doc) -> closure.ClosureProvider:
    case = _case(doc)
    if case == "mlr":
        q = sz.parse_fraction(doc["q"]) if "q" in doc else None
        k = _int(doc, "k", 0) or None
        return closure.MLRProvider(q=q, k=k)
    if case == "cr":
        return closure.CRProvider(depth=_int(doc, "depth", 8), cap=_int(doc, "cap", 16))
    return closure.SRProvider(k=_int(doc, "k", 0) or None,
                              depth=_int(doc, "depth", 0) or None)


def _op_main_lemma(doc):
    w = sz.parse_set(doc["w"])
    tests = [sz.parse_test(t) for t in doc.get("tests", [])]
    provider = _provider(doc)
    stage_count = _int(doc, "stages")
    try:
        trace, rep = diagonal.run(w, provider, tests, stage_count)
    except NoEscape as err:
        rep = err.certificate
        return {"outcome": "no-escape", "stage": err.stage,
                "sigma": err.sigma}, rep
    return {"outcome": "trace", "trace": trace}, rep


def _op_verify_trace(doc):
    trace = sz.parse_trace(doc["trace"])
    w = sz.parse_set(doc["w"])
    tests = [sz.parse_test(t) for t in doc.get("tests", [])]
    return {}, diagonal.verify_trace(trace, w, tests)


def _op_schnorr_merge(doc):
    test = sz.parse_test(doc["test"])
    point = sz.parse_point(doc["point"]) if "point" in doc else None
    merged, rep = covers.schnorr_merge(test, _int(doc, "K"), point=point)
    return {"set": merged}, rep


def _op_power_test(doc):
    t = covers.power_test(sz.parse_set(doc["set"]), _int(doc, "N"))
    return {"test": t}, None


def _op_tails_to_power(doc):
    cert = covers.tails_to_power(sz.parse_set(doc["set"]),
                                 sz.parse_point(doc["point"]), _int(doc, "n"))
    return {"factors": list(cert.factors), "prefix": cert.prefix}, None


def _op_remark_bundle(doc):
    points = [sz.parse_point(p) for p in doc.get("points", [])]
    rep = covers.remark24_bundle(sz.parse_set(doc["set"]), points,
                                 n=_int(doc, "n", 2))
    return {}, rep


def _op_kc_build(doc):
    reqs = sz.parse_requests(doc)
    m = coding.kc_build(reqs)
    rep = Report("kc-build")
    rep.check("domain measure == Kraft weight", m.domain_measure, "==", reqs.weight)
    return {"machine": m}, rep


def _op_complexity(doc):
    m = sz.parse_machine(doc["machine"])
    k = coding.complexity(m, _sigma(doc))
    return {"complexity": k if k is not None else "infinity"}, None


def _op_g_to_machine(doc):
    g = sz.parse_dyadic(doc["g"])
    m, rep = coding.g_to_machine(g, _int(doc, "c"))
    return {"machine": m}, rep


def _op_flatten(doc):
    if "aggregate" in doc:
        return {"g": coding.aggregate_pairs(sz.parse_dyadic(doc["aggregate"]))}, None
    stages = [sz.parse_dyadic(s) for s in doc["stage_functions"]]
    return {"flat": coding.flatten_staged(stages)}, None


def _op_normalize(doc):
    f = sz.parse_dyadic(doc["f"])
    return {"f": coding.normalize_sum(f, _int(doc, "N"))}, None


def _op_machine_to_f(doc):
    m = sz.parse_machine(doc["machine"])
    f, rep = coding.machine_to_f(m)
    return {"f": f}, rep


def _op_b_set(doc):
    n = _int(doc, "n")
    alpha = _frac(doc, "alpha")
    out = series.b_set(n, alpha)
    rep = Report("b-set")
    rep.put("pairing", series.PAIRING.rule)
    rep.check("measure == alpha", space.measure(out), "==", alpha)
    return {"set": out}, rep


def _op_series_to_open(doc):
    f = sz.parse_dyadic(doc["f"])
    u, product, rep = series.series_to_open(f)
    return {"set": u, "product_measure": product}, rep


def _op_open_to_series(doc):
    n = _int(doc, "n")
    if "staged" in doc:
        staged = sz.parse_staged(doc["staged"])
        alpha = series.open_to_series_approx(staged, n, _int(doc, "c"))
        return {"alpha": alpha}, None
    alpha = series.open_to_series_sup(sz.parse_set(doc["set"]), n)
    return {"alpha": alpha}, None


def _op_vn_from_g(doc):
    v, rep = series.vn_from_g(sz.parse_dyadic(doc["g"]), _int(doc, "n"))
    return {"set": v}, rep


def _op_f_from_test(doc):
    f, rep = series.f_from_test(sz.parse_test(doc["test"]))
    return {"f": f}, rep


def _op_encode_series(doc):
    exps = doc.get("exponents")
    if not isinstance(exps, list):
        raise ParseError("missing parameter 'exponents'")
    u, d, rep = series.encode_series(exps, _frac(doc, "q"))
    return {"set": u, "strategy": d}, rep


def _op_extract_series(doc):
    w = sz.parse_set(doc["set"])
    res = series.extract_series(w, _int(doc, "count"), _int(doc, "lmax"))
    out = {"block_lengths": [l if l is not None else "infinity"
                             for l in res.block_lengths],
           "g": res.series}
    return out, res.report


def _op_tree_embed(doc):
    d = sz.parse_strategy(doc["strategy"])
    mapping, rep = series.tree_embed(d, _int(doc, "depth"),
                                     budget=_int(doc, "budget", 10))
    return {"map": dict(sorted(mapping.items(), key=lambda kv: space.lenlex_key(kv[0])))}, rep


_HANDLERS = {
    "measure": (_op_measure, []),
    "reduce": (_op_reduce, []),
    "condition": (_op_condition, []),
    "power": (_op_power, []),
    "covers": (_op_covers, []),
    "tails": (_op_tails, []),
    "member": (_op_member, []),
    "fairness": (_op_fairness, []),
    "winning-set": (_op_winning_set, ["q", "depth"]),
    "vk-verify": (_op_vk_verify, ["q"]),
    "translate": (_op_translate, []),
    "average": (_op_average, []),
    "reset": (_op_reset, ["q"]),
    "mixture": (_op_mixture, []),
    "success-capital": (_op_success_capital, ["depth"]),
    "p1": (_op_p1, ["case", "q"]),
    "p2": (_op_p2, ["case", "q", "k", "depth"]),
    "p3": (_op_p3, ["case", "q", "k", "depth", "cap"]),
    "main-lemma": (_op_main_lemma, ["case", "q", "k", "depth", "cap", "stages"]),
    "verify-trace": (_op_verify_trace, []),
    "schnorr-merge": (_op_schnorr_merge, []),
    "power-test": (_op_power_test, []),
    "tails-to-power": (_op_tails_to_power, []),
    "remark-bundle": (_op_remark_bundle, []),
    "kc-build": (_op_kc_build, []),
    "complexity": (_op_complexity, []),
    "machine-to-f": (_op_machine_to_f, []),
    "g-to-machine": (_op_g_to_machine, ["c"]),
    "flatten": (_op_flatten, []),
    "normalize": (_op_normalize, []),
    "b-set": (_op_b_set, []),
    "series-to-open": (_op_series_to_open, []),
    "open-to-series": (_op_open_to_series, ["c"]),
    "vn-from-g": (_op_vn_from_g, []),
    "f-from-test": (_op_f_from_test, []),
    "encode-series": (_op_encode_series, ["q"]),
    "extract-series": (_op_extract_series, []),
    "tree-embed": (_op_tree_embed, ["depth"]),
}


def dispatch(subcommand: str, doc: dict, decimal: bool = False) -> tuple[dict, int]:
    """Run one operation; returns (report document, exit status)."""
    if subcommand not in _HANDLERS:
        raise UnknownSubcommand(subcommand)
    handler, _ = _HANDLERS[subcommand]
    header = {"subcommand": subcommand, "parameters": fmt(doc)}
    try:
        output, rep = handler(doc)
    except (CantorLabError, ValueError, TypeError, KeyError) as err:
        # Malformed input surfaces from the handlers as ValueError (a bad
        # bit string, a negative index), TypeError or KeyError (a missing
        # document field): an error report, never a traceback.
        out = dict(header)
        out["result"] = "ERROR"
        out["error"] = {"type": type(err).__name__, "message": str(err)}
        return out, 2
    out = dict(header)
    out["output"] = fmt(output)
    if rep is not None:
        repdoc = rep.to_doc()
        out["checks"] = repdoc["checks"]
        out["data"] = repdoc["data"]
        out["result"] = repdoc["result"]
    else:
        out["result"] = "PASS"
    if decimal:
        out["decimal"] = _decimal_shadow(out.get("output", {}))
    return out, 0 if out["result"] == "PASS" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description="Exact-rational constructions on Cantor space, one per job.",
    )
    parser.add_argument("subcommand", help="operation name, e.g. measure, main-lemma")
    parser.add_argument("--input", help="job document (JSON); default stdin")
    parser.add_argument("--output", help="report path; default stdout")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--stages", type=int)
    parser.add_argument("--q")
    parser.add_argument("--k", type=int)
    parser.add_argument("--c", type=int)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--case", choices=["mlr", "cr", "sr"])
    parser.add_argument("--decimal", action="store_true",
                        help="echo float approximations alongside exact values")
    args = parser.parse_args(argv)

    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            text = sys.stdin.read().strip()
            doc = json.loads(text) if text else {}
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
    except (json.JSONDecodeError, OSError, ParseError) as err:
        report = {"subcommand": args.subcommand, "result": "ERROR",
                  "error": {"type": "ParseError", "message": str(err)}}
        status = 2
    else:
        try:
            merged = _merged(doc, args, _HANDLERS.get(args.subcommand, (None, []))[1])
            report, status = dispatch(args.subcommand, merged, decimal=args.decimal)
        except UnknownSubcommand as err:
            report = {"subcommand": args.subcommand, "result": "ERROR",
                      "error": {"type": "UnknownSubcommand", "message": str(err)}}
            status = 2

    text = dumps(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
