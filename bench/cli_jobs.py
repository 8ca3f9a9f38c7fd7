"""cli_jobs: seeded JSON jobs over all 38 subcommands, through cli.main(argv).

Why: this is the front door a batch user pays on every job: argument
parsing, JSON parsing, dispatch, report formatting (fmt) and dumps, plus
the write side, where large generator sets are listed back out.  A lazy-
elements kernel moves cost there.  Each job checks the exit-status contract
(0 PASS, 1 FAIL, 2 ERROR) and its report bytes against the golden digest.
Heaviest jobs: b-set at a 6-bit alpha (about 34k generators listed, 1.1 MB
report) and power to n = 7 (16,384 generators listed).
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import gen
from gen import Kind
from harness import NullTracer, expect

NAME = "cli_jobs"
VARIANTS = 16
STATUS = {"PASS": 0, "FAIL": 1, "ERROR": 2}


@contextmanager
def _seams(lib, tr):
    """Traced runs only: span the front door's parse, dispatch and dumps
    steps and the coding calls its handlers make, by wrapping the names the
    cli and coding modules look up; restored when the job ends."""
    cli, coding = lib.cli, lib.coding
    saved = [(cli, "json", cli.json), (cli, "dispatch", cli.dispatch),
             (cli, "dumps", cli.dumps)]
    saved += [(coding, fn, getattr(coding, fn))
              for fn in ("kc_build", "g_to_machine", "complexity")]

    def wrap(name, fn):
        return lambda *a, **k: tr.call(name, fn, *a, **k)

    cli.json = SimpleNamespace(loads=wrap("cli.json_parse", json.loads),
                               load=wrap("cli.json_parse", json.load),
                               JSONDecodeError=json.JSONDecodeError)
    cli.dispatch = wrap("cli.dispatch", saved[1][2])
    cli.dumps = wrap("cli.dumps", saved[2][2])
    for mod, fn, orig in saved[3:]:
        setattr(mod, fn, wrap(f"coding.{fn}", orig))
    try:
        yield
    finally:
        for mod, name, orig in saved:
            setattr(mod, name, orig)


def invoke(lib, tr, argv, text):
    """cli.main(argv) in-process with stdin and stdout in memory."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        if tr.enabled:
            with _seams(lib, tr):
                status = tr.call("cli.main", lib.cli.main, argv)
        else:
            status = lib.cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return status, out


def run_job(lib, inp, ctx, tr):
    argv, text = inp
    status, out = invoke(lib, tr, argv, text)
    tr.count("cli.report_bytes", len(out))
    # Canonical dumps puts the top-level keys at an indent of two spaces.
    at = out.rfind('\n  "result": "')
    result = out[at + 14:out.index('"', at + 14)] if at >= 0 else None
    expect(STATUS.get(result) == status,
           f"exit status {status} for result {result}")
    return out.encode()


# ---------------------------------------------------------------------------
# JSON documents.

def _s(f) -> str:
    return str(Fraction(f))


def _pf(lib, rng, maxlen, count):
    return list(gen.prefix_free(lib, rng, maxlen, count).elements)


def _point(rng, head_max=2, period_max=2):
    return {"head": gen.bits(rng, rng.randint(0, head_max)),
            "period": gen.bits(rng, rng.randint(1, period_max))}


def _prefix(p, n):
    s = p["head"]
    while len(s) < n:
        s += p["period"]
    return s[:n]


def _doubler(p):
    return {"kind": "point-doubler", "point": p}


def _shifted(p):
    return {"kind": "blend", "terms": [["1/2", _doubler(p)],
                                       ["1/2", {"kind": "constant", "c": "1"}]]}


def _table(rng, depth, positive=False):
    values = gen.fair_values(rng, depth, positive)
    return {"depth": depth, "values": {s: _s(v) for s, v in values.items()}}


def _strategy(rng):
    kind = rng.choice(("doubler", "shifted", "table"))
    if kind == "table":
        return {"kind": "tabulated", "table": _table(rng, 5, positive=True)}
    return (_doubler if kind == "doubler" else _shifted)(_point(rng))


def _staged(lib, rng, maxlen, count, limit=Fraction(1)):
    while True:
        final = _pf(lib, rng, maxlen, count)
        if lib.space.measure(lib.space.PrefixFreeSet(final)) < limit:
            break
    rng.shuffle(final)
    return {"stages": [{"elements": final[: i + 1]} for i in range(len(final))]}


def _bounded(lib, rng, maxlen, count):
    while True:
        u = _pf(lib, rng, maxlen, count)
        if 0 < lib.space.measure(lib.space.PrefixFreeSet(u)) < 1:
            return u


def _kc_requests(rng, most):
    reqs, left = [], Fraction(1)
    for i in range(rng.randint(1, most)):
        k = rng.randint(1, 10)
        if Fraction(1, 2 ** k) <= left:
            reqs.append([k, format(i % 8, "03b")])
            left -= Fraction(1, 2 ** k)
    return reqs


def _ml_toward(p, n_max, start=0):
    return {"kind": "ML", "levels": {str(n): {"elements": [_prefix(p, n)]}
                                     for n in range(start, n_max + 1)}}


def job(sub, doc, *flags):
    return [sub, *flags], json.dumps(doc)


# One maker per template: (lib, rng) -> (argv, stdin text).

def m_measure(lib, rng):
    return job("measure", {"set": {"elements": _pf(lib, rng, 6, 8)}})


def m_reduce(lib, rng):
    return job("reduce", {"strings": gen.words(rng, 5, 8)})


def m_condition(lib, rng):
    return job("condition", {"set": {"elements": _pf(lib, rng, 6, 8)},
                             "sigma": gen.bits(rng, rng.randint(0, 3))})


def m_power(lib, rng):
    u = [w for w in _pf(lib, rng, 3, 3) if w]
    return job("power", {"set": {"elements": u}, "n": rng.randint(1, 4)})


def m_power_big(lib, rng):
    while True:
        u = _pf(lib, rng, 3, 6)
        if len(u) == 4:
            return job("power", {"set": {"elements": u}, "n": 7})


def m_covers(lib, rng):
    return job("covers", {"cover": {"elements": _pf(lib, rng, 3, 4)},
                          "covered": {"elements": _pf(lib, rng, 5, 4)}})


def m_tails(lib, rng):
    return job("tails", {"point": _point(rng, 4, 4)})


def m_member(lib, rng):
    return job("member", {"set": {"elements": _pf(lib, rng, 4, 6)},
                          "point": _point(rng)})


def m_fairness(lib, rng):
    table = _table(rng, 3)
    if rng.random() < 0.5:
        table["values"]["1"] = _s(Fraction(table["values"]["1"]) + Fraction(1, 8))
    return job("fairness", {"table": table})


def m_winning_set(lib, rng):
    doc = {"strategy": _strategy(rng), "q": rng.choice(("3/2", "2", "3")),
           "depth": rng.randint(3, 6)}
    if rng.random() < 0.5:
        return job("winning-set", doc, "--depth", str(rng.randint(3, 6)))
    return job("winning-set", doc)


def m_vk_verify(lib, rng):
    doc = {"table": _table(rng, 5, positive=True),
           "sigma": gen.bits(rng, rng.randint(0, 4)),
           "q": _s(Fraction(rng.randint(9, 32), 8))}
    if rng.random() < 0.5:
        return job("vk-verify", doc, "--q", _s(Fraction(rng.randint(9, 32), 8)))
    return job("vk-verify", doc)


def m_translate(lib, rng):
    return job("translate", {"strategy": _strategy(rng),
                             "sigma": gen.bits(rng, rng.randint(0, 3))})


def m_average(lib, rng):
    base = _shifted(_point(rng)) if rng.random() < 0.5 else \
        {"kind": "tabulated", "table": _table(rng, 4, positive=True)}
    return job("average", {"strategy": base, "level": rng.randint(1, 2)})


def m_reset(lib, rng):
    p, m = _point(rng), rng.randint(1, 3)
    return job("reset", {"strategy": _shifted(p), "q": _s(Fraction(2 ** m + 1, 2)),
                         "blocks": {"elements": [_prefix(p, m)]}})


def m_mixture(lib, rng):
    return job("mixture", {"d": {"kind": "constant", "c": "1"},
                           "d_e": _doubler(_point(rng)), "n_e": rng.randint(1, 4)})


def m_success_capital(lib, rng):
    return job("success-capital", {"strategy": _strategy(rng), "point": _point(rng),
                                   "depth": rng.randint(3, 8)})


def m_p1(case):
    def make(lib, rng):
        if case == "mlr":
            u = lib.space.reduce(gen.words(rng, 5, 3, minlen=3)).elements
            return job("p1", {"case": "mlr", "set": {"elements": list(u)},
                              "sigma": gen.bits(rng, rng.randint(0, 1))})
        if case == "cr":
            p, k = _point(rng), rng.randint(0, 1)
            return job("p1", {"case": "cr", "strategy": _doubler(p),
                              "q": rng.choice(("4", "8")), "sigma": _prefix(p, k)})
        return job("p1", {"case": "sr", "staged": _staged(lib, rng, 4, 3),
                          "sigma": gen.bits(rng, rng.randint(0, 2))}, "--case", "sr")
    return make


def m_p2(case):
    def make(lib, rng):
        if case == "mlr":
            u = _bounded(lib, rng, 4, 3)
            mu = lib.space.measure(lib.space.PrefixFreeSet(u))
            return job("p2", {"case": "mlr", "set": {"elements": u},
                              "q": _s((mu + 1) / 2)})
        if case == "cr":
            return job("p2", {"case": "cr", "strategy": _strategy(rng),
                              "q": rng.choice(("3/2", "2")),
                              "sigma": gen.bits(rng, rng.randint(0, 2)),
                              "depth": rng.randint(3, 5)})
        k = rng.randint(1, 3)
        return job("p2", {"case": "sr", "k": k, "depth": rng.randint(2, 4),
                          "staged": _staged(lib, rng, 4, 3, 1 - Fraction(1, 2 ** k))})
    return make


def m_p3(case):
    def make(lib, rng):
        if case == "mlr":
            sp = lib.space
            while True:
                u = _pf(lib, rng, 4, 3)
                sigma, k = gen.bits(rng, rng.randint(0, 2)), rng.randint(1, 3)
                cond = sp.condition(sp.PrefixFreeSet(u), sigma)
                if sp.measure(cond) < 1 - Fraction(1, 2 ** k):
                    break
            n_e = len(sigma) + k
            test = {"kind": "ML", "levels": {str(n_e): {"elements": [gen.bits(rng, n_e)]}}}
            return job("p3", {"case": "mlr", "set": {"elements": u}, "sigma": sigma,
                              "k": k, "test": test})
        if case == "cr":
            p = _point(rng)
            return job("p3", {"case": "cr", "strategy": {"kind": "constant", "c": "1"},
                              "q": rng.choice(("3/2", "2")), "sigma": _prefix(p, 1),
                              "d_e": _doubler(p), "depth": 5})
        return job("p3", {"case": "sr", "staged": _staged(lib, rng, 4, 2),
                          "other": _staged(lib, rng, 4, 2)})
    return make


def _lemma_doc(rng, case, escape):
    if escape:
        w = gen.complete_code(rng, 3, rng.randint(0, 3))
        points = [_point(rng) for _ in range(2)]
        if case == "cr":
            tests = [dict(_ml_toward(p, 12, start=1), martingale=_doubler(p))
                     for p in points]
        else:
            tests = [dict(_ml_toward(p, 16), kind="ML" if case == "mlr" else "Schnorr")
                     for p in points]
        return {"w": {"elements": w}, "tests": tests, "case": case, "stages": 2}
    p = _point(rng)
    stem = _prefix(p, 2 if case == "cr" else 1)
    w = sorted({stem + s for s in gen.words(rng, 2, rng.randint(1, 3), minlen=0)})
    w = [s for s in w if not any(s != t and s.startswith(t) for t in w)]
    if case == "cr":
        tests = [dict(_ml_toward(p, 12, start=1), martingale=_doubler(p))]
    else:
        tests = [{"kind": "ML" if case == "mlr" else "Schnorr",
                  "levels": {"1": {"elements": [stem]}}}]
    doc = {"w": {"elements": w}, "tests": tests, "case": case, "stages": 1}
    if case == "mlr":
        doc["k"] = 1
    return doc


def m_main_lemma(case, escape):
    def make(lib, rng):
        return job("main-lemma", _lemma_doc(rng, case, escape))
    return make


def m_verify_trace(lib, rng):
    doc = _lemma_doc(rng, "mlr", True)
    w = lib.serialize.parse_set(doc["w"])
    tests = [lib.serialize.parse_test(t) for t in doc["tests"]]
    trace, _ = lib.diagonal.run(w, lib.closure.MLRProvider(), tests, doc["stages"])
    return job("verify-trace", {"trace": lib.serialize.to_doc(trace), "w": doc["w"],
                                "tests": doc["tests"]})


def m_schnorr_merge(lib, rng):
    p, k = _point(rng), rng.randint(1, 2)
    levels = {str(n): {"elements": [_prefix(p, n)]} for n in range(3 * k + 3)}
    return job("schnorr-merge", {"test": {"kind": "Schnorr", "levels": levels},
                                 "K": k, "point": p})


def m_power_test(lib, rng):
    u = [w for w in _bounded(lib, rng, 3, 3) if w]
    return job("power-test", {"set": {"elements": u}, "N": rng.randint(2, 3)})


def _tail_cover(lib, rng, x):
    cuts = [t.prefix(rng.randint(1, 3)) for t in lib.space.tails(x)]
    return list(lib.space.reduce(cuts).elements)


def m_tails_to_power(lib, rng):
    p = _point(rng, 3, 3)
    x = lib.space.PeriodicPoint(p["head"], p["period"])
    return job("tails-to-power", {"set": {"elements": _tail_cover(lib, rng, x)},
                                  "point": p, "n": rng.randint(2, 4)})


def m_remark_bundle(lib, rng):
    while True:
        p = _point(rng, 2, 3)
        x = lib.space.PeriodicPoint(p["head"], p["period"])
        u = _tail_cover(lib, rng, x)
        if lib.space.measure(lib.space.PrefixFreeSet(u)) < 1:
            break
    points = [p] + [_point(rng) for _ in range(rng.randint(0, 2))]
    return job("remark-bundle", {"set": {"elements": u}, "points": points,
                                 "n": rng.randint(2, 3)})


def m_kc_build(lib, rng):
    return job("kc-build", {"requests": _kc_requests(rng, 16)})


def _machine(lib, rng):
    m = lib.coding.kc_build([tuple(r) for r in _kc_requests(rng, 8)])
    return lib.serialize.to_doc(m)


def m_complexity(lib, rng):
    return job("complexity", {"machine": _machine(lib, rng),
                              "sigma": format(rng.randrange(8), "03b")})


def m_machine_to_f(lib, rng):
    return job("machine-to-f", {"machine": _machine(lib, rng)})


def m_g_to_machine(lib, rng):
    values = {}
    for i in range(rng.randint(1, 8)):
        t = rng.randint(0, 6)
        values[format(i, "04b")] = Fraction(rng.randint(1, 2 ** t), 2 ** t)
    total = sum(values.values())
    c = max(0, lib.coding.ceil_log2(total))
    doc = {"g": {"values": [[k, _s(v)] for k, v in values.items()]}, "c": c}
    if rng.random() < 0.5:
        return job("g-to-machine", doc, "--c", str(c + 1))
    return job("g-to-machine", doc)


def m_flatten(lib, rng):
    if rng.random() < 0.5:
        return job("flatten", {"aggregate": {"values": [
            [i, _s(Fraction(rng.randint(1, 4), 16))] for i in sorted(rng.sample(range(40), 4))]}})
    stages, cur = [], {}
    for _ in range(rng.randint(2, 4)):
        for i in rng.sample(range(6), 2):
            cur[i] = cur.get(i, Fraction(0)) + Fraction(rng.randint(1, 3), 32)
        stages.append({"values": [[i, _s(v)] for i, v in sorted(cur.items())]})
    return job("flatten", {"stage_functions": stages})


def m_normalize(lib, rng):
    values = [[i, _s(Fraction(rng.randint(1, 4), 16))] for i in range(rng.randint(1, 4))]
    return job("normalize", {"f": {"values": values}, "N": rng.randint(1, 3)})


def m_b_set(lib, rng):
    n = rng.randint(0, 3)
    k = rng.randint(1, max(2, 4 - n))
    return job("b-set", {"n": n, "alpha": _s(Fraction(rng.randrange(1, 2 ** k, 2), 2 ** k))})


def m_series_to_open(lib, rng):
    values = [[n, _s(Fraction(rng.randint(0, 3), 4))] for n in range(4)]
    return job("series-to-open", {"f": {"values": values}})


def m_open_to_series(lib, rng):
    if rng.random() < 0.5:
        return job("open-to-series", {"set": {"elements": _pf(lib, rng, 6, 6)},
                                      "n": rng.randint(0, 2)})
    return job("open-to-series", {"staged": _staged(lib, rng, 4, 3), "n": 0,
                                  "c": rng.randint(1, 3)})


def m_vn_from_g(lib, rng):
    values = {gen.bits(rng, rng.randint(1, 5)): Fraction(rng.randint(1, 8), 8)
              for _ in range(rng.randint(1, 6))}
    return job("vn-from-g", {"g": {"values": [[k, _s(v)] for k, v in values.items()]},
                             "n": rng.randint(1, 8)})


def m_f_from_test(lib, rng):
    return job("f-from-test", {"test": _ml_toward(_point(rng), rng.randint(3, 8))})


def m_encode_series(lib, rng):
    exps = rng.choice(([1], [2], [2, 1], [3], [3, 1], [1, 2], [2, 2], [3, 2], [3, 2, 1]))
    weight = sum(Fraction(1, 2 ** a) for a in exps)
    return job("encode-series", {"exponents": exps, "q": _s((1 + 1 / weight) / 2)})


def m_extract_series(lib, rng):
    return job("extract-series", {"set": {"elements": _bounded(lib, rng, 5, 4)},
                                  "count": rng.randint(1, 3), "lmax": rng.randint(1, 3)})


def m_tree_embed(lib, rng):
    strategy = rng.choice(({"kind": "constant", "c": "1"}, _doubler(_point(rng)),
                           _shifted(_point(rng))))
    return job("tree-embed", {"strategy": strategy, "depth": rng.randint(2, 3)})


# Documented error paths the front door already handles: exit 2 with a
# typed error object.
def m_err_unknown(lib, rng):
    return job(rng.choice(("frobnicate", "measures", "p4")), {})


def m_err_parse(lib, rng):
    return job("measure", {"set": {"elements": ["01", rng.choice(("2", "0a", "1 "))]}})


def m_err_epsilon(lib, rng):
    return job("power", {"set": {"elements": [""]}, "n": rng.randint(2, 4)})


def m_err_weight(lib, rng):
    return job("kc-build", {"requests": [[1, "0"], [1, "1"], [rng.randint(1, 6), "00"]]})


def m_err_json(lib, rng):
    return ["measure"], rng.choice(('{"set": ', "{'set': 1}", '{"set": {"elements": [}}'))


KINDS = {
    "measure": m_measure, "reduce": m_reduce, "condition": m_condition,
    "power": m_power, "power_big": m_power_big, "covers": m_covers,
    "tails": m_tails, "member": m_member, "fairness": m_fairness,
    "winning_set": m_winning_set, "vk_verify": m_vk_verify,
    "translate": m_translate, "average": m_average, "reset": m_reset,
    "mixture": m_mixture, "success_capital": m_success_capital,
    "p1_mlr": m_p1("mlr"), "p1_cr": m_p1("cr"), "p1_sr": m_p1("sr"),
    "p2_mlr": m_p2("mlr"), "p2_cr": m_p2("cr"), "p2_sr": m_p2("sr"),
    "p3_mlr": m_p3("mlr"), "p3_cr": m_p3("cr"), "p3_sr": m_p3("sr"),
    "lemma_mlr_trace": m_main_lemma("mlr", True),
    "lemma_mlr_noescape": m_main_lemma("mlr", False),
    "lemma_sr_trace": m_main_lemma("sr", True),
    "lemma_sr_noescape": m_main_lemma("sr", False),
    "lemma_cr_trace": m_main_lemma("cr", True),
    "lemma_cr_noescape": m_main_lemma("cr", False),
    "verify_trace": m_verify_trace, "schnorr_merge": m_schnorr_merge,
    "power_test": m_power_test, "tails_to_power": m_tails_to_power,
    "remark_bundle": m_remark_bundle, "kc_build": m_kc_build,
    "complexity": m_complexity, "machine_to_f": m_machine_to_f,
    "g_to_machine": m_g_to_machine, "flatten": m_flatten,
    "normalize": m_normalize, "b_set": m_b_set,
    "series_to_open": m_series_to_open, "open_to_series": m_open_to_series,
    "vn_from_g": m_vn_from_g, "f_from_test": m_f_from_test,
    "encode_series": m_encode_series, "extract_series": m_extract_series,
    "tree_embed": m_tree_embed,
    "err_unknown": m_err_unknown, "err_parse": m_err_parse,
    "err_epsilon": m_err_epsilon, "err_weight": m_err_weight,
    "err_json": m_err_json,
}
KINDS = {name: Kind(make, run_job, VARIANTS) for name, make in KINDS.items()}
KINDS["power_big"] = Kind(m_power_big, run_job, 8)
# b-set at the finest alpha of each coordinate that stays near 34k generators.
KINDS["b_set_big"] = Kind([job("b-set", {"n": n, "alpha": a}) for n, a in
                           ((0, "63/64"), (1, "31/32"), (2, "15/16"))], run_job)

# The eleven listing-heavy jobs (three b-set, eight power) hold the tail.
# They run first, in a fixed order on fixed inputs, so the seed moves
# neither the tail nor the peak memory; the seed draws the rest.
HEAD = [("b_set_big", None), ("power_big", None)]
BODY = [(kind, 2 if kind.startswith("lemma_cr") else 6)
        for kind in KINDS if kind not in ("power_big", "b_set_big")]

# Malformed jobs the documented contract answers with exit 2 and a typed
# error object, but which escape cli.main as exceptions at the time this
# benchmark was written.  They run once per run, outside the timed loop.
CONTRACT = [
    ("missing document key", ["measure"], "{}"),
    ("power with n = -1", ["power"], '{"set": {"elements": ["0"]}, "n": -1}'),
    ("negative b-set index", ["b-set"], '{"n": -1, "alpha": "1/2"}'),
    ("bad sigma", ["condition"], '{"set": {"elements": ["0"]}, "sigma": "2"}'),
    ("non-object document", ["measure"], "[1, 2]"),
]


def contract_outcomes(lib) -> list[tuple[str, str]]:
    """(job, outcome) per contract job; outcome 'ok' when the documented
    exit 2 with a typed error object came back."""
    out = []
    for name, argv, text in CONTRACT:
        try:
            status, report = invoke(lib, NullTracer(), argv, text)
        except Exception as err:  # the defect being recorded
            out.append((name, f"{type(err).__name__} escaped cli.main"))
            continue
        try:
            doc = json.loads(report)
            ok = status == 2 and doc.get("result") == "ERROR" and doc["error"]["type"]
        except (ValueError, KeyError, TypeError):
            ok = False
        out.append((name, "ok" if ok else f"exit {status}, no typed error object"))
    return out
