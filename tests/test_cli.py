"""Batch front door: dispatch, determinism, exactness, error mapping."""

import decimal
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cantorlab import cli, closure
from cantorlab.cli import _HANDLERS, dispatch, main
from cantorlab.serialize import dumps, to_doc

from streams import (DOUBLER, ML_ZEROS, MORE, MORE_REPORT_BYTES_SHA256,
                     REPORT_BYTES_SHA256, SHIFTED, SMOKE, TRACE, more_runs, mutations,
                     report_digest, report_runs)
from util import time_limit


def run_cli(capsys, subcommand, doc, *flags):
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        status = main([subcommand, *flags])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr().out
    return status, json.loads(out)


class TestDispatch:
    def test_measure(self, capsys):
        status, rep = run_cli(capsys, "measure", {"set": {"elements": ["0", "10"]}})
        assert status == 0
        assert rep["output"]["measure"] == "3/4"
        assert rep["result"] == "PASS"

    def test_unknown_subcommand(self, capsys):
        status, rep = run_cli(capsys, "frobnicate", {})
        assert status == 2
        assert rep["error"]["type"] == "UnknownSubcommand"

    def test_parse_error(self, capsys):
        status, rep = run_cli(capsys, "measure", {"set": {"elements": ["2"]}})
        assert status == 2
        assert rep["error"]["type"] == "ParseError"

    def test_operation_error_named(self, capsys):
        status, rep = run_cli(capsys, "power",
                              {"set": {"elements": [""]}, "n": 2})
        assert status == 2
        assert rep["error"]["type"] == "PowerOfEpsilon"

    def test_schnorr_merge_fixture(self, capsys):
        levels = {str(n): {"elements": ["0" * n]} for n in range(6)}
        doc = {"test": {"kind": "Schnorr", "levels": levels}, "K": 1}
        status, rep = run_cli(capsys, "schnorr-merge", doc)
        assert status == 0
        assert rep["output"]["set"] == {"elements": ["00"]}
        assert rep["data"]["measure"] == "1/4"
        assert rep["result"] == "PASS"

    def test_exactness_no_decimals_by_default(self, capsys):
        status, rep = run_cli(capsys, "measure", {"set": {"elements": ["0"]}})
        assert "decimal" not in rep

    def test_decimal_echo_alongside_exact(self, capsys):
        status, rep = run_cli(capsys, "measure", {"set": {"elements": ["0"]}},
                              "--decimal")
        assert rep["output"]["measure"] == "1/2"
        assert rep["decimal"]["measure"] == 0.5

    def test_decimal_shadows_exact_rationals_only(self, capsys):
        """Bit strings that parse as numbers, a set's generators or a point's
        head and period, stay strings; a rational past the float range
        keeps its exact form instead of stopping the report; the rationals
        inside a domain object, a dyadic function's values and sum or a
        strategy's fields, shadow as floats."""
        _, rep = run_cli(capsys, "condition",
                         {"set": {"elements": ["01", "1"]}, "sigma": ""}, "--decimal")
        assert rep["decimal"] == {"set": {"elements": ["1", "01"]}}
        _, rep = run_cli(capsys, "tails", {"point": {"head": "1", "period": "01"}},
                         "--decimal")
        assert rep["decimal"]["tails"][0] == {"head": "1", "period": "01"}
        _, rep = run_cli(capsys, "measure", {"set": {"elements": ["1"]}}, "--decimal")
        assert rep["decimal"] == {"measure": 0.5}
        zero = {"head": "", "period": "0"}
        status, rep = run_cli(capsys, "success-capital",
                              {"strategy": {"kind": "point-doubler", "point": zero},
                               "point": zero, "depth": 1100}, "--decimal")
        capitals = rep["decimal"]["capitals"]
        assert status == 0
        assert capitals[1023] == 2.0 ** 1023 and capitals[1100] == str(2 ** 1100)
        _, rep = run_cli(capsys, "normalize", {"f": {"values": [[0, "1/4"]]}, "N": 1},
                         "--decimal")
        assert rep["output"]["f"] == {"values": [[0, "1"]], "sum": "1"}
        assert rep["decimal"]["f"] == {"values": [[0, 1.0]], "sum": 1.0}
        _, rep = run_cli(capsys, "reset", {"strategy": SHIFTED, "q": "3/2",
                                           "blocks": {"elements": ["0"]}}, "--decimal")
        strategy = rep["decimal"]["strategy"]
        assert strategy["q"] == 1.5 and strategy["blocks"] == {"elements": ["0"]}
        (w1, doubler), (w2, constant) = strategy["base"]["terms"]
        assert (w1, w2, constant["c"]) == (0.5, 0.5, 1.0)
        assert doubler["point"] == {"head": "", "period": "0"}

    def test_flag_overrides_document(self, capsys):
        doc = {"table": {"depth": 1, "values": {"": "1", "0": "2", "1": "0"}},
               "sigma": "", "q": "3"}
        status, rep = run_cli(capsys, "vk-verify", doc, "--q", "2")
        assert status == 0
        assert rep["parameters"]["q"] == "2"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        doc = {"exponents": [2, 3], "q": "2"}
        paths = []
        for i in range(2):
            inp = tmp_path / f"job{i}.json"
            out = tmp_path / f"out{i}.json"
            inp.write_text(json.dumps(doc))
            status = main(["encode-series", "--input", str(inp),
                           "--output", str(out)])
            assert status == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestMainLemma:
    def fixture_doc(self):
        levels = {str(n): {"elements": ["0" * n]} for n in range(7)}
        test = {"kind": "ML", "levels": levels}
        return {"w": {"elements": ["1"]}, "tests": [test, test],
                "case": "mlr", "q": "3/4", "k": 1, "stages": 2}

    def test_run_and_verify_roundtrip(self, capsys):
        status, rep = run_cli(capsys, "main-lemma", self.fixture_doc())
        assert status == 0
        assert rep["output"]["outcome"] == "trace"
        trace = rep["output"]["trace"]
        assert trace["stages"][-1]["sigma"] == "11"

        doc2 = {"trace": trace, "w": {"elements": ["1"]},
                "tests": self.fixture_doc()["tests"]}
        status2, rep2 = run_cli(capsys, "verify-trace", doc2)
        assert status2 == 0
        assert rep2["result"] == "PASS"

    def test_no_escape_outcome(self, capsys):
        doc = {"w": {"elements": ["0"]},
               "tests": [{"kind": "ML", "levels": {"1": {"elements": ["0"]}}}],
               "case": "mlr", "k": 1, "stages": 1}
        status, rep = run_cli(capsys, "main-lemma", doc)
        assert status == 0
        assert rep["output"]["outcome"] == "no-escape"
        assert rep["output"]["stage"] == 0
        assert rep["result"] == "PASS"

    @pytest.mark.parametrize("case", ["sr", "mlr"])
    def test_slack_checked_at_p3_in_every_bounded_case(self, case):
        """With k = 1 and mu(U | sigma) = 1/2 at the second stage, absorbing
        level 2 could fill [sigma]: both cases stop at P3's slack check."""
        doc = {"case": case, "k": 1, "w": {"elements": ["0"]}, "stages": 2,
               "tests": [{"kind": "ML", "levels": {"1": {"elements": ["00"]}}},
                         {"kind": "ML", "levels": {"2": {"elements": ["01"]}}}]}
        rep, status = dispatch("main-lemma", doc)
        assert status == 2
        assert rep["error"] == {"type": "SlackViolated",
                                "message": "mu(U|sigma) = 1/2 >= 1 - 2^-1"}

    def test_unset_or_zero_k_takes_the_least_slack(self):
        """In the main lemma an unset k and k = 0 both take the least slack
        at each stage; p3 takes k as given, so there k = 0 leaves none."""
        for case in ("sr", "mlr"):
            doc = {key: v for key, v in self.fixture_doc().items() if key != "k"}
            unset, status = dispatch("main-lemma", {**doc, "case": case})
            zero, _ = dispatch("main-lemma", {**doc, "case": case, "k": 0})
            assert status == 0 and dumps(unset["output"]) == dumps(zero["output"])
        rep, status = dispatch("p3", {"case": "mlr", "set": {"elements": []},
                                      "sigma": "", "k": 0, "test": ML_ZEROS})
        assert status == 2 and rep["error"]["type"] == "SlackViolated"


class TestMoreOps:
    @pytest.mark.parametrize("sub,doc,key", SMOKE + MORE)
    def test_smoke(self, capsys, sub, doc, key):
        status, rep = run_cli(capsys, sub, doc)
        assert status == 0, rep
        if key is not None:
            assert key in rep["output"]

    def test_kc_build_and_tree_embed(self, capsys):
        status, rep = run_cli(capsys, "kc-build",
                              {"requests": [[1, "0"], [2, "00"], [2, "01"]]})
        assert status == 0
        assert rep["output"]["machine"]["table"] == {"0": "0", "10": "00", "11": "01"}

        strategy = {"kind": "constant", "c": "1"}
        status2, rep2 = run_cli(capsys, "tree-embed",
                                {"strategy": strategy, "depth": 2})
        assert status2 == 0
        assert rep2["output"]["map"][""] == ""

    def test_dispatch_function_directly(self):
        rep, status = dispatch("measure", {"set": {"elements": []}})
        rep = to_doc(rep)
        assert status == 0 and rep["output"]["measure"] == "0"


# The interpreter's words for a value of the wrong shape, which no error
# report of the pinned streams may quote.
INTERPRETER_WORDS = ("is not iterable", "cannot unpack", "has no attribute",
                     "unhashable type", "values to unpack")


class TestFrontDoorContract:
    """Malformed jobs exit 2 with a typed error object, never a traceback."""

    @pytest.mark.parametrize("sub,text,error", [
        ("measure", "{}", "ParseError"),
        ("power", '{"set": {"elements": ["0"]}, "n": -1}', "ValueError"),
        ("b-set", '{"n": -1, "alpha": "1/2"}', "ValueError"),
        ("condition", '{"set": {"elements": ["0"]}, "sigma": "2"}', "ValueError"),
        ("complexity", '{"machine": {"table": {"0": "1"}}, "sigma": "2x"}', "ValueError"),
        ("measure", "[1, 2]", "ParseError"),
        ("measure", '{"set": {"elements": ["0"]}, "note": 1.5}', "ParseError"),
        ("winning-set", json.dumps({"strategy": DOUBLER, "q": "2", "depth": -1}),
         "ValueError"),
        ("p2", json.dumps({"case": "cr", "strategy": DOUBLER, "q": "2",
                           "sigma": "", "depth": -1}), "ValueError"),
        ("p2", json.dumps({"case": "sr", "staged": {"stages": [{"elements": ["00"]}]},
                           "k": 2, "depth": -1}), "ValueError"),
        ("success-capital", json.dumps({"strategy": DOUBLER, "depth": -1,
                                        "point": {"head": "", "period": "0"}}),
         "ValueError"),
        ("power-test", '{"set": {"elements": ["00"]}, "N": -1}', "ValueError"),
        ("tails-to-power", json.dumps({"set": {"elements": ["0"]}, "n": -1,
                                       "point": {"head": "", "period": "0"}}),
         "ValueError"),
        ("remark-bundle", '{"set": {"elements": ["0"]}, "n": -1}', "ValueError"),
        ("extract-series", '{"set": {"elements": ["0"]}, "count": -1, "lmax": 2}',
         "ValueError"),
        ("extract-series", '{"set": {"elements": ["0"]}, "count": 1, "lmax": -1}',
         "ValueError"),
        # Integer fields take JSON integers only: no booleans, no strings.
        ("winning-set", json.dumps({"strategy": DOUBLER, "q": "2", "depth": True}),
         "ParseError"),
        ("power", '{"set": {"elements": ["0"]}, "n": "2"}', "ParseError"),
        ("mixture", json.dumps({"d": DOUBLER, "d_e": DOUBLER, "n_e": True}),
         "ParseError"),
        ("mixture", json.dumps({"d": {"kind": "block-doubler", "exponents": ["1"],
                                      "q": "1"}, "d_e": DOUBLER, "n_e": 2}),
         "ParseError"),
        ("fairness", '{"table": {"depth": true, "values": {"": "1", "0": "1", "1": "1"}}}',
         "ParseError"),
        ("kc-build", '{"requests": [["1", "0"]]}', "ParseError"),
        # A JSON boolean is not a rational.
        ("b-set", '{"n": 0, "alpha": true}', "ParseError"),
        ("b-set", '{"n": 0, "alpha": false}', "ParseError"),
        # Boolean fields take JSON true and false only, not any truthy value.
        ("average", json.dumps({"strategy": SHIFTED, "level": 1, "shift": "false"}),
         "ParseError"),
        ("p1", json.dumps({"case": "cr", "strategy": DOUBLER, "q": "4", "sigma": "1",
                           "empty_marker": "no"}), "ParseError"),
        # A list field is a JSON list, not a string or an object.
        ("verify-trace", json.dumps({"trace": TRACE, "w": {"elements": ["1"]},
                                     "tests": {}}), "ParseError"),
        ("main-lemma", json.dumps({"w": {"elements": ["1"]}, "tests": "", "case": "mlr",
                                   "k": 1, "stages": 1}), "ParseError"),
        ("remark-bundle", '{"set": {"elements": ["0"]}, "points": {}}', "ParseError"),
        # k, c and the exponents are naturals.
        ("encode-series", '{"exponents": ["2", 3], "q": "2"}', "ParseError"),
        ("encode-series", '{"exponents": [null, 3], "q": "2"}', "ParseError"),
        ("encode-series", '{"exponents": [-1, 3], "q": "2"}', "ParseError"),
        ("p2", json.dumps({"case": "sr", "staged": {"stages": [{"elements": ["00"]}]},
                           "k": -1, "depth": 2}), "ParseError"),
        ("p3", json.dumps({"case": "mlr", "set": {"elements": []}, "sigma": "",
                           "k": -1}), "ParseError"),
        ("main-lemma", json.dumps({"w": {"elements": ["1"]}, "case": "sr", "k": -1,
                                   "stages": 1}), "ParseError"),
        ("open-to-series", json.dumps({"staged": {"stages": [{"elements": [""]}]},
                                       "n": 0, "c": -1}), "ParseError"),
        # So are open-to-series' n, main-lemma's stages and tree-embed's depth.
        ("open-to-series", json.dumps({"staged": {"stages": [{"elements": [""]}]},
                                       "n": -5, "c": 2}), "ParseError"),
        ("main-lemma", json.dumps({"w": {"elements": ["1"]}, "case": "mlr", "k": 1,
                                   "stages": -1}), "ParseError"),
        ("tree-embed", json.dumps({"strategy": {"kind": "constant", "c": "1"},
                                   "depth": -1}), "ParseError"),
        # A lone surrogate, which json.loads accepts, is no bit string, and the
        # report echoing it is still written.
        ("measure", r'{"set": {"elements": ["\ud800"]}}', "ParseError"),
        # A record's field of the wrong shape is refused, not read as empty.
        ("measure", '{"set": {"elements": ""}}', "ParseError"),
        ("measure", '{"set": {"elements": {}}}', "ParseError"),
        ("kc-build", '{"requests": ""}', "ParseError"),
        ("g-to-machine", '{"g": {"values": {}}, "c": 0}', "ParseError"),
        ("g-to-machine", '{"g": {"values": [["0", "1/2"]], "sum": "3"}, "c": 0}',
         "ParseError"),
        ("verify-trace", json.dumps({"trace": {**TRACE, "case": "nonsense"},
                                     "w": {"elements": ["1"]}}), "ParseError"),
    ])
    def test_malformed_job(self, capsys, monkeypatch, sub, text, error):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status = main([sub])
        rep = json.loads(capsys.readouterr().out)
        assert status == 2
        assert rep["result"] == "ERROR"
        assert rep["error"]["type"] == error and rep["error"]["message"]

    @pytest.mark.parametrize("strategy", [
        DOUBLER,
        {"kind": "mixture", "d": {"kind": "constant", "c": "1"}, "d_e": DOUBLER,
         "n_e": 2},
    ])
    def test_deep_search_skips_flat_subtrees(self, capsys, strategy):
        doc = {"strategy": strategy, "q": "2", "depth": 8}
        status, shallow = run_cli(capsys, "winning-set", doc)
        # A search that walks all 2^201 strings fails here, within a second.
        with time_limit(1.0, "depth-200 winning-set search"):
            status, deep = run_cli(capsys, "winning-set", {**doc, "depth": 200})
        assert status == 0 and deep["result"] == "PASS"
        want = {**shallow["output"]["winning_set"], "source_depth": 200}
        assert deep["output"]["winning_set"] == want
        assert want["generators"]["elements"] and not want["truncated"]

    def test_long_extraction_runs_in_linear_time(self):
        # About i^2/2 blocks precede block (i, 1): laying them out one by one
        # up to i = 3000 would take seconds and hundreds of megabytes.
        with time_limit(1.0, "extract-series over 3000 blocks"):
            rep, status = dispatch("extract-series", {"set": {"elements": ["00"]},
                                                      "count": 3000, "lmax": 1})
            rep = to_doc(rep)
        assert status == 0
        assert rep["output"]["block_lengths"] == ["infinity"] * 3000

    @pytest.mark.parametrize("depth", [600, 100_000])
    def test_deeply_nested_job(self, capsys, depth):
        """A job nested past the decoder's recursion, or past the depth check
        before the echo, is one ParseError object with exit 2: from stdin,
        as a document handed to dispatch, and in its own process."""
        text = '{"set": {"elements": ["0"]}, "x": ' + "[" * depth + "]" * depth + "}"
        nested = []
        for _ in range(depth - 1):
            nested = [nested]
        with time_limit(1.0, f"a job nested {depth} deep"):
            sys.stdin, stdin = io.StringIO(text), sys.stdin
            try:
                status = main(["measure"])
            finally:
                sys.stdin = stdin
            rep, direct = dispatch("measure", {"set": {"elements": ["0"]}, "x": nested})
        proc = run_process("measure", stdin=text)
        assert status == direct == proc.returncode == 2
        for got in (json.loads(capsys.readouterr().out), rep, json.loads(proc.stdout)):
            assert got == {"subcommand": "measure", "result": "ERROR",
                           "error": {"type": "ParseError",
                                     "message": got["error"]["message"]}}

    def test_depth_refused_before_a_float(self):
        """The one walk of the job refuses a float only once the whole
        document is known to be shallow enough."""
        nested = [1.5]
        for _ in range(150):
            nested = [nested]
        for job in ({"note": 1.5, "x": nested}, {"note": 1.5}):
            rep, status = dispatch("measure", {"set": {"elements": ["0"]}, **job})
            assert status == 2 and rep["error"]["type"] == "ParseError"
            assert rep["error"]["message"] == ("cannot serialize float" if len(job) == 1
                                               else "job document nested deeper than 100 levels")

    def test_parse_error_report_goes_to_output(self, capsys, tmp_path):
        inp = tmp_path / "job.json"
        out = tmp_path / "report.json"
        inp.write_text("[1, 2]")
        status = main(["measure", "--input", str(inp), "--output", str(out)])
        assert status == 2
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",
        pytest.param(b'{"n": ' + b"1" * 5000 + b"}", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"),
            reason="no limit on the digits of an int before Python 3.10.7")),
    ], ids=["not-utf-8", "too-many-digits"])
    def test_unreadable_input_file(self, capsys, tmp_path, content):
        inp = tmp_path / "job.json"
        inp.write_bytes(content)
        status = main(["b-set", "--input", str(inp)])
        rep = json.loads(capsys.readouterr().out)
        assert status == 2
        assert rep["result"] == "ERROR" and rep["subcommand"] == "b-set"
        assert rep["error"]["type"] == "ParseError" and rep["error"]["message"]

    @pytest.mark.parametrize("job", ['{"set": {"elements": ["0"]}}', "[1, 2]"])
    def test_output_that_cannot_be_opened(self, capsys, monkeypatch, tmp_path, job):
        """The report of the job is lost, and the error that lost it goes to
        stdout instead, with exit 2, whatever the job's own outcome."""
        out = tmp_path / "missing" / "report.json"
        monkeypatch.setattr("sys.stdin", io.StringIO(job))
        status = main(["measure", "--output", str(out)])
        rep = json.loads(capsys.readouterr().out)
        assert status == 2 and not out.parent.exists()
        assert rep == {"subcommand": "measure", "result": "ERROR",
                       "error": {"type": "FileNotFoundError",
                                 "message": rep["error"]["message"]}}
        assert str(out) in rep["error"]["message"]

    @pytest.mark.parametrize("key,value", [
        ("sigma", 1), ("sigma", None), ("sigma", "2"), ("tau", {}), ("tau", "1/0"),
        ("n_e", True), ("n_e", "1"), ("index", True), ("set", -1),
    ])
    def test_trace_stage_fields_are_typed(self, key, value):
        """index is an integer, set a set, sigma a bit string, tau one or
        null, n_e an integer or null: any other value is a ParseError naming
        the field, not a TypeError from the check that reads it or a boolean
        read as level 1."""
        first = {**TRACE["stages"][0], key: value}
        trace = {**TRACE, "stages": [first, *TRACE["stages"][1:]]}
        rep, status = dispatch("verify-trace", {"trace": trace, "w": {"elements": ["1"]},
                                                "tests": [ML_ZEROS, ML_ZEROS]})
        assert status == 2 and rep["error"]["type"] == "ParseError"
        assert f"field {key!r}" in rep["error"]["message"]

    @pytest.mark.parametrize("sub,doc,message", [
        ("measure", {"set": {"elements": ""}},
         "bad parameter 'set': field 'elements': expected a list"),
        ("measure", {"set": {}}, "bad parameter 'set': missing field 'elements'"),
        ("measure", {"set": {"elements": ["01", "2"]}}, "not a bit string: '2'"),
        ("p3", {"case": "mlr", "set": {"elements": []}, "sigma": "", "k": 1,
                "test": {"kind": "ML", "levels": {"1": {"elements": ""}}}},
         "bad parameter 'test': field 'levels': field 'elements': expected a list"),
        ("p3", {"case": "mlr", "set": {"elements": []}, "sigma": "", "k": 1,
                "test": {"kind": "ML", "levels": {"01": {"elements": []}}}},
         "index '01' is not written as a canonical natural"),
        ("verify-trace", {"trace": {**TRACE, "case": "nonsense"}, "w": {"elements": ["1"]}},
         "bad parameter 'trace': field 'case': must be one of mlr, cr, sr"),
        ("p1", {"case": [], "set": {"elements": ["00"]}, "sigma": "0"},
         "bad parameter 'case': must be one of mlr, cr, sr"),
        ("success-capital", {"strategy": {"kind": "block-doubler", "exponents": [1, 2],
                                          "q": "-4"},
                             "point": {"head": "", "period": "0"}, "depth": 4},
         "negative q"),
    ])
    def test_record_errors_name_parameter_and_field(self, sub, doc, message):
        """A record of the wrong shape is refused naming the job parameter and
        the fields down to the bad one; one its class refuses, in the class's
        words; a choice of another type, by its choices."""
        rep, status = dispatch(sub, doc)
        assert status == 2 and rep["error"] == {"type": "ParseError", "message": message}

    def test_single_mutations_keep_the_contract(self, capsys):
        """Every job one mutation away from a smoke job: stdout is one JSON
        object, 1 comes only with a failed check and 2 only with a typed
        error, never a TypeError worded by the interpreter."""
        count = 0
        for sub, doc, _ in SMOKE + MORE:
            for job in mutations(doc):
                count += 1
                status, rep = run_cli(capsys, sub, job)
                where = f"{sub} {json.dumps(job)}"
                assert isinstance(rep, dict) and status in (0, 1, 2), where
                if status == 1:
                    assert any(c["result"] == "FAIL" for c in rep["checks"]), where
                if status == 2:
                    assert rep["result"] == "ERROR", where
                    assert rep["error"]["type"] not in ("", "TypeError"), where
                    assert isinstance(rep["error"]["message"], str), where
        assert count > 6500

    def test_every_report_byte_for_byte(self):
        """The exit status and stdout bytes of every smoke and single-mutation
        job, hashed in order, equal those of the writer before exact-type
        dispatch: a change to fmt, to_doc or dumps that moves one byte of one
        report fails here.  No error report quotes the interpreter."""
        errors = []
        assert report_digest(report_runs(), errors=errors) == (REPORT_BYTES_SHA256, 4008)
        assert not [m for m in errors if any(words in m for words in INTERPRETER_WORDS)]

    def test_more_reports_byte_for_byte(self):
        """The same for what that stream leaves out: every MORE job and its
        single mutations, then every SMOKE and MORE job with --decimal."""
        errors = []
        assert report_digest(more_runs(), errors=errors) == (MORE_REPORT_BYTES_SHA256, 5114)
        assert not [m for m in errors if any(words in m for words in INTERPRETER_WORDS)]

    def test_reports_written_straight_from_the_values(self):
        """dispatch returns the values as the operations gave them; dumps
        writes each report byte for byte as json writes its to_doc document."""
        for sub, doc, _ in SMOKE + MORE:
            rep, status = dispatch(sub, doc)
            assert dumps(rep) == json.dumps(to_doc(rep), sort_keys=True, indent=2,
                                            allow_nan=False) + "\n", sub

    def test_exact_results_of_any_length(self, capsys):
        """A result past the interpreter's 4,300-digit cap on an int's text is
        written exactly, its float shadow too; the cap still guards the input
        of the next job."""
        job = {"set": {"elements": ["0" * 15000]}}
        with time_limit(1.0, "measure of a generator of length 15000"):
            status, rep = run_cli(capsys, "measure", job)
            shadowed, shadow = run_cli(capsys, "measure", job, "--decimal")
        power = str(decimal.Context(prec=5000).power(2, 15000))
        assert status == shadowed == 0 and rep["output"]["measure"] == f"1/{power}"
        assert shadow["output"] == rep["output"] and shadow["decimal"]["measure"] == 0.0
        # Past the float range too, the shadow keeps the exact rational.
        big = Fraction(2) ** 15000
        assert dumps(to_doc({"x": big}, cli._decimal)) == dumps({"x": big})
        if hasattr(sys, "get_int_max_str_digits"):
            cap = sys.get_int_max_str_digits()
            sys.stdin, stdin = io.StringIO('{"n": ' + "1" * 4301 + "}"), sys.stdin
            try:
                status = main(["b-set"])
            finally:
                sys.stdin = stdin
            rep = json.loads(capsys.readouterr().out)
            assert status == 2 and rep["error"]["type"] == "ParseError"
            assert "digits" in rep["error"]["message"]
            assert sys.get_int_max_str_digits() == cap > 0

    def test_test_indices_are_canonical(self, capsys):
        """Two keys for one level, or a key such as "1_0", is a ParseError
        naming the key, not a level silently dropped or renamed."""
        level = {"elements": ["0" * 12]}
        for keys in (["1", "01"], ["1_0"], [" 2 "]):
            job = {"test": {"kind": "ML", "levels": dict.fromkeys(keys, level)}}
            status, rep = run_cli(capsys, "f-from-test", job)
            assert status == 2 and rep["error"]["type"] == "ParseError"
            assert repr(keys[-1]) in rep["error"]["message"]

    @pytest.mark.parametrize("argv,named", [
        ([], "subcommand"),
        (["measure", "x"], "'x'"),
        (["measure", "--nope", "1"], "'--nope'"),
        (["winning-set", "--depth"], "'--depth'"),
        (["winning-set", "--depth", "x"], "'--depth'"),
        (["p2", "--case", "zz"], "'case'"),
        (["measure", "--decimal=1"], "'--decimal'"),
        (["measure", "--d", "1"], "'--d'"),
        (["measure", "--"], "unexpected argument '--'"),
        (["-", "measure"], "unexpected argument '-'"),
    ], ids=lambda v: " ".join(v) or "no-argument" if isinstance(v, list) else None)
    def test_malformed_argv(self, capsys, monkeypatch, argv, named):
        """A command line that does not parse is a ParseError report on
        stdout naming what is wrong, exit 2, with nothing on stderr."""
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"set": {"elements": []}})))
        status = main(argv)
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert status == 2 and err == ""
        assert rep["result"] == "ERROR" and rep["error"]["type"] == "ParseError"
        assert named in rep["error"]["message"]

    def test_flag_forms_give_one_report(self, capsys):
        job = {"strategy": DOUBLER, "q": "2", "depth": 1}
        reports = [run_cli(capsys, "winning-set", job, *flags)
                   for flags in (["--depth", "3"], ["--depth=3"], ["--dep", "3"])]
        assert reports[0][1]["parameters"]["depth"] == 3
        assert reports[1:] == reports[:1] * 2

    def test_help_names_every_subcommand_and_flag(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        assert main(["measure", "-h"]) == 0 and capsys.readouterr().out == text
        words = set(text.translate(str.maketrans(",[]", "   ")).split())
        assert set(_HANDLERS) <= words
        assert {f"--{name}" for name in ("input", "output", *cli._FLAGS, "decimal",
                                         "help")} <= words

    def test_flags_override_only_fields_the_subcommand_reads(self):
        flagged = {sub: sorted(op.flags) for sub, op in _HANDLERS.items() if op.flags}
        assert flagged == {
            "winning-set": ["depth", "q"], "vk-verify": ["q"], "reset": ["q"],
            "success-capital": ["depth"], "p1": ["case", "q"],
            "p2": ["case", "depth", "k", "q"],
            "p3": ["cap", "case", "depth", "k", "q"],
            "main-lemma": ["cap", "case", "depth", "k", "q", "stages"],
            "g-to-machine": ["c"], "open-to-series": ["c"], "encode-series": ["q"],
            "tree-embed": ["depth"],
        }


def test_case_tables_hold_one_row_per_closure_case():
    """p1, p2 and p3 each map every closure case, and nothing else, to an
    _Op row calling closure's function of that step and case; their flags
    are case and the flags of their rows."""
    found = []
    for sub in ("p1", "p2", "p3"):
        table = _HANDLERS[sub]
        if list(table.rows) != list(closure.PROVIDERS):
            found.append(f"{sub} has rows {list(table.rows)}")
        for case, op in table.rows.items():
            module, name = op.call
            if module is not closure or not name.startswith(f"{sub}_{case}") \
                    or not callable(getattr(closure, name, None)):
                found.append(f"{sub} {case} calls {op.call}")
        flags = {"case", *(flag for op in table.rows.values() for flag in op.flags)}
        if sorted(table.flags) != sorted(flags):
            found.append(f"{sub} flags {table.flags}")
    assert not found, found


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(*args, stdin=""):
    """python -m cantorlab.cli as its own process, cantorlab from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "cantorlab.cli", *args],
                          input=stdin.encode(), capture_output=True, env=env,
                          timeout=60)


class TestProcess:
    """The real __main__ entry writes the bytes an in-process main writes."""

    def test_measure_on_stdin(self, capsys):
        job = json.dumps({"set": {"elements": ["0", "10"]}})
        for flags in ((), ("--dec",)):  # sys.argv read, a flag by its prefix
            proc = run_process("measure", *flags, stdin=job)
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
            sys.stdin, stdin = io.StringIO(job), sys.stdin
            try:
                assert main(["measure", *flags]) == 0
            finally:
                sys.stdin = stdin
            assert proc.stdout == capsys.readouterr().out.encode()

    def test_b_set_with_files(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"n": 1, "alpha": "7/8"}))
        proc = run_process("b-set", "--input", str(job),
                           "--output", str(tmp_path / "process.json"))
        assert proc.returncode == 0 and proc.stdout == b"", proc.stderr
        assert main(["b-set", "--input", str(job),
                     "--output", str(tmp_path / "inprocess.json")]) == 0
        got = (tmp_path / "process.json").read_bytes()
        assert got == (tmp_path / "inprocess.json").read_bytes()
        assert json.loads(got)["result"] == "PASS"

    def test_no_argparse_imported(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", "import cantorlab.cli, sys; "
             "print('argparse' in sys.modules, 'gettext' in sys.modules)"],
            capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout == b"False False\n", proc.stderr

    def test_help(self):
        proc = run_process("--help")
        assert proc.returncode == 0
        assert b"usage: cantorlab" in proc.stdout and b"--decimal" in proc.stdout
