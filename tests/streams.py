"""The pinned report streams of the CLI front door, with no test runner.

SMOKE and MORE hold one well-formed job per subcommand branch; mutations
yields every job one mutation away from one of them.  report_runs and
more_runs are the two pinned streams, and report_digest hashes the exit
status and stdout bytes of each run through cli.main.  tests/test_cli.py
asserts the pins; run as a script, this prints both digests and counts,
and exits 1 when either digest differs from its pin:

    PYTHONPATH=src python tests/streams.py

With --lines, each stream's line is followed by one `index subcommand
status sha256[:12]` line per run (the hash is of its stdout), so the runs a
change moves are counted by diffing the output before and after it.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout

from cantorlab.cli import main


DOUBLER = {"kind": "point-doubler", "point": {"head": "", "period": "0"}}
SHIFTED = {"kind": "blend", "terms": [["1/2", DOUBLER], ["1/2", {"kind": "constant", "c": "1"}]]}
ML_ZEROS = {"kind": "ML",
            "levels": {str(n): {"elements": ["0" * n]} for n in range(5)}}


# One well-formed job per subcommand branch: (subcommand, document, output key).
SMOKE = [
    ("reduce", {"strings": ["0", "00"]}, "set"),
    ("condition", {"set": {"elements": ["00"]}, "sigma": "0"}, "set"),
    ("covers", {"cover": {"elements": ["0"]},
                "covered": {"elements": ["00"]}}, "covers"),
    ("tails", {"point": {"head": "0", "period": "1"}}, "tails"),
    ("member", {"set": {"elements": ["0"]},
                "point": {"head": "", "period": "0"}}, "member"),
    ("fairness", {"table": {"depth": 1,
                            "values": {"": "1", "0": "2", "1": "0"}}}, "fair"),
    ("winning-set", {"strategy": DOUBLER, "q": "2", "depth": 4}, "winning_set"),
    ("translate", {"strategy": DOUBLER, "sigma": "0"}, "strategy"),
    ("average", {"strategy": SHIFTED, "level": 1}, "strategy"),
    ("reset", {"strategy": SHIFTED, "q": "3/2",
               "blocks": {"elements": ["0"]}}, "strategy"),
    ("mixture", {"d": {"kind": "constant", "c": "1"}, "d_e": DOUBLER,
                 "n_e": 2}, "strategy"),
    ("success-capital", {"strategy": DOUBLER,
                         "point": {"head": "", "period": "0"},
                         "depth": 3}, "capitals"),
    ("p1", {"case": "mlr", "set": {"elements": ["00"]}, "sigma": "0"}, "set"),
    ("p1", {"case": "cr", "strategy": DOUBLER, "q": "4", "sigma": "0"}, "strategy"),
    ("p1", {"case": "sr", "staged": {"stages": [{"elements": ["00"]}]},
            "sigma": "0"}, "staged"),
    ("p2", {"case": "mlr", "set": {"elements": ["00"]}, "q": "3/4"}, "set"),
    ("p2", {"case": "cr", "strategy": DOUBLER, "q": "2", "sigma": "0",
            "depth": 3}, None),
    ("p2", {"case": "sr", "staged": {"stages": [{"elements": ["00"]}]},
            "k": 2, "depth": 2}, "set"),
    ("p3", {"case": "mlr", "set": {"elements": []}, "sigma": "", "k": 1,
            "test": ML_ZEROS}, "set"),
    ("p3", {"case": "cr", "strategy": {"kind": "constant", "c": "1"},
            "q": "3/2", "sigma": "", "d_e": DOUBLER, "depth": 5}, "winning_set"),
    ("p3", {"case": "sr", "staged": {"stages": [{"elements": ["00"]}]},
            "other": {"stages": [{"elements": ["11"]}]}}, "staged"),
    ("power-test", {"set": {"elements": ["00", "01", "10"]}, "N": 2}, "test"),
    ("tails-to-power", {"set": {"elements": ["0"]},
                        "point": {"head": "", "period": "0"}, "n": 3}, "factors"),
    ("remark-bundle", {"set": {"elements": ["0"]},
                       "points": [{"head": "", "period": "0"}], "n": 2}, None),
    ("complexity", {"machine": {"table": {"0": "1"}}, "sigma": "1"}, "complexity"),
    ("machine-to-f", {"machine": {"table": {"0": "1", "10": "1"}}}, "f"),
    ("g-to-machine", {"g": {"values": [["0", "1/2"]]}, "c": 0}, "machine"),
    ("flatten", {"stage_functions": [{"values": []},
                                     {"values": [[5, "1/4"]]}]}, "flat"),
    ("flatten", {"aggregate": {"values": [[0, "1/4"], [1, "1/4"]]}}, "g"),
    ("normalize", {"f": {"values": [[0, "1/4"]]}, "N": 1}, "f"),
    ("b-set", {"n": 0, "alpha": "1/2"}, "set"),
    ("series-to-open", {"f": {"values": [[0, "1/2"], [1, "1/2"]]}}, "set"),
    ("open-to-series", {"set": {"elements": ["0"]}, "n": 0}, "alpha"),
    ("open-to-series", {"staged": {"stages": [{"elements": [""]}]},
                        "n": 0, "c": 2}, "alpha"),
    ("vn-from-g", {"g": {"values": [["0", "1/2"]]}, "n": 1}, "set"),
    ("f-from-test", {"test": ML_ZEROS}, "f"),
    ("extract-series", {"set": {"elements": ["0"]}, "count": 1,
                        "lmax": 2}, "g"),
]


# The trace the first main-lemma job of MORE writes.
TRACE = {"case": "mlr", "stages": [
    {"index": 0, "sigma": "", "set": {"elements": []}, "n_e": 1, "tau": "1"},
    {"index": 1, "sigma": "1", "set": {"elements": ["0"]}, "n_e": 2, "tau": "1"},
    {"index": 2, "sigma": "11", "set": {"elements": ["0"]}, "n_e": None, "tau": None},
]}
CR_ZEROS = {"kind": "ML", "martingale": DOUBLER,
            "levels": {str(n): {"elements": ["0" * n]} for n in range(1, 4)}}
SCHNORR_ZEROS = {"kind": "Schnorr",
                 "levels": {str(n): {"elements": ["0" * n]} for n in range(6)}}

# A point, and a well-formed strategy of each kind no other job reads.
ZEROS = {"head": "", "period": "0"}
KINDS = [
    {"kind": "translated", "base": DOUBLER, "sigma": "0"},
    {"kind": "scaled", "base": DOUBLER, "factor": "1/2"},
    {"kind": "mixture", "d": {"kind": "constant", "c": "1"}, "d_e": DOUBLER, "n_e": 2},
    {"kind": "averaged", "base": SHIFTED, "level": 1},
    {"kind": "reset", "base": SHIFTED, "q": "3/2", "blocks": {"elements": ["0"]}},
    {"kind": "tabulated", "table": {"depth": 1, "values": {"": "1", "0": "2", "1": "0"}}},
    {"kind": "block-doubler", "exponents": [2, 3], "q": "2"},
]

# One well-formed job for each subcommand SMOKE leaves out, main-lemma in each
# closure case and in its no-escape branch, the optional boolean fields given
# a value of their own, and success-capital reading each strategy of KINDS,
# so every strategy field is read: (subcommand, document, output key).
MORE = [
    ("measure", {"set": {"elements": ["0", "10"]}}, "measure"),
    ("power", {"set": {"elements": ["0", "10"]}, "n": 2}, "set"),
    ("vk-verify", {"table": {"depth": 1, "values": {"": "1", "0": "2", "1": "0"}},
                   "sigma": "", "q": "2"}, None),
    ("main-lemma", {"w": {"elements": ["1"]}, "tests": [ML_ZEROS, ML_ZEROS],
                    "case": "mlr", "q": "3/4", "k": 1, "stages": 2}, "trace"),
    ("main-lemma", {"w": {"elements": ["1"]}, "tests": [CR_ZEROS], "case": "cr",
                    "depth": 4, "stages": 1}, "trace"),
    ("main-lemma", {"w": {"elements": ["1"]}, "tests": [SCHNORR_ZEROS], "case": "sr",
                    "k": 1, "stages": 1}, "trace"),
    ("main-lemma", {"w": {"elements": ["0"]},
                    "tests": [{"kind": "ML", "levels": {"1": {"elements": ["0"]}}}],
                    "case": "mlr", "k": 1, "stages": 1}, "sigma"),
    ("verify-trace", {"trace": TRACE, "w": {"elements": ["1"]},
                      "tests": [ML_ZEROS, ML_ZEROS]}, None),
    ("schnorr-merge", {"test": SCHNORR_ZEROS, "K": 1}, "set"),
    ("kc-build", {"requests": [[1, "0"], [2, "00"], [2, "01"]]}, "machine"),
    ("encode-series", {"exponents": [2, 3], "q": "2"}, "strategy"),
    ("tree-embed", {"strategy": {"kind": "constant", "c": "1"}, "depth": 2}, "map"),
    ("average", {"strategy": SHIFTED, "level": 1, "shift": False}, "strategy"),
    ("p1", {"case": "cr", "strategy": DOUBLER, "q": "4", "sigma": "0",
            "empty_marker": True}, "strategy"),
    *(("success-capital", {"strategy": strategy, "point": ZEROS, "depth": 2}, "capitals")
      for strategy in KINDS),
]


MUTANTS = [None, True, -1, 0, 2, "", "2", "1/0", [], {}, 1.5, [1], {"a": 1}]


def mutations(node):
    """Each document one mutation away from node: one key dropped, or one
    value, at any depth, replaced by one of MUTANTS."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield {k: v for k, v in node.items() if k != key}
            for new in [*MUTANTS, *mutations(value)]:
                yield {**node, key: new}
    elif isinstance(node, list):
        for i, value in enumerate(node):
            for new in [*MUTANTS, *mutations(value)]:
                yield node[:i] + [new] + node[i + 1:]


def report_runs() -> list:
    """Every SMOKE job and its single mutations, in order: (sub, job, flags)."""
    return [(sub, job, ()) for sub, doc, _ in SMOKE for job in [doc, *mutations(doc)]]


def more_runs() -> list:
    """What report_runs leaves out: every MORE job and its single mutations,
    then every SMOKE and MORE job with --decimal."""
    runs = [(sub, job, ()) for sub, doc, _ in MORE for job in [doc, *mutations(doc)]]
    return runs + [(sub, doc, ("--decimal",)) for sub, doc, _ in SMOKE + MORE]


# sha256 of the report_runs stream; it changes only when a report is meant
# to change.  First computed with the report path as it was before
# exact-type dispatch; re-pinned on purpose when JSON booleans stopped being
# read as rationals (26 runs became a ParseError), and again when SR's P3
# took MLR's slack check and the front door came to refuse negative k, c and
# exponents, list fields that are not JSON lists and mistyped trace stages
# (23 runs moved; CHANGES.md counts them by subcommand).  Re-pinned once
# more when complexity came to check its sigma: the jobs with sigma "2" and
# "1/0" moved from exit 0 to a ValueError with exit 2.  Re-pinned again when
# every field came to be read by its declared wire type: 70 runs whose blend
# strategy holds a terms list or pair of another shape (35 average, 35
# reset) now say "expected a list" or "expected a pair" where they quoted
# the interpreter or, in 4, read an empty blend; and the 2 open-to-series
# runs with n = -1 are refused as naturals.  Re-pinned when every record
# came to be read through the fields its class declares: 1,976 runs moved,
# each now an error report.  1,940 are malformed records, named by job
# parameter and field where they quoted the interpreter or said only
# "missing field"; 66 of them, and 2 remark-bundle runs that exited 1, had
# read a record's list from "" or {} (a set's elements, a series' values)
# and now exit 2.  The other 36 are p1-p3 runs whose case is a list or an
# object, refused by its choices where they said "unhashable type".  No
# error report quotes the interpreter; the stream is the same on Python
# 3.10 to 3.13.
REPORT_BYTES_SHA256 = "25d205f3c1e8d394f23d7816bab5613c0752e8cf3658e5815a0b5f0cf632d0bb"
# The same for more_runs, first computed before p1, p2 and p3 became case
# tables and to_doc took its records from one field table (with a trace of
# no stages already refused, the one job that then crashed), and re-pinned
# with the same two changes: the boolean change moved 11 of its runs, the
# second 160.  Re-pinned when a trace stage's index and set came to name
# their field in a ParseError: 115 verify-trace runs moved, 27 on index and
# 88 on set, each still a ParseError with exit 2.  Re-pinned with the wire
# types, which moved 47 runs to a ParseError with exit 2: 35 average runs on
# a blend's terms, 7 verify-trace runs whose stage is recorded under another
# index, 4 main-lemma runs with stages = -1 and 1 tree-embed run with
# depth = -1 (each of those 12 was exit 0); and extended by a success-capital
# job per strategy kind no other job read, 1,511 runs more.  Re-pinned with
# the declared record fields: 2,770 runs moved, each now an error report.
# 2,750 are malformed records (76 were exit 0 and 6 exit 1: a set's elements
# or kc-build's requests read from "" or {}, and 12 verify-trace runs whose
# trace case is not one of mlr, cr and sr); 9 kc-build runs with a negative
# length or a bad target now report the operation's ValueError, not a
# ParseError.  The other 20 are p1 and main-lemma runs whose case is a list
# or an object.  Re-pinned when a block doubler came to refuse q < 0: one
# run moved, #4989, a success-capital job with q = -1, which reported
# negative capitals with exit 0 and is now a ParseError with exit 2.
MORE_REPORT_BYTES_SHA256 = "9fd6ab119b6deb7171d058a229571d002d49883ce3bdda367703395e14d2ee8b"


def report_digest(runs, lines: list | None = None,
                  errors: list | None = None) -> tuple[str, int]:
    """sha256 of the exit status and stdout bytes of each (subcommand, job,
    flags) run through main, in order, and the number of runs; given a
    list, lines gets one `index subcommand status sha256[:12]` per run, and
    errors the message of each error report."""
    digest = hashlib.sha256()
    count = 0
    for sub, job, flags in runs:
        out = io.StringIO()
        sys.stdin, stdin = io.StringIO(json.dumps(job)), sys.stdin
        try:
            with redirect_stdout(out):
                status = main([sub, *flags])
        finally:
            sys.stdin = stdin
        text = out.getvalue().encode()
        digest.update(b"%d %d\n" % (status, len(text)) + text)
        if lines is not None:
            lines.append(f"{count} {sub} {status} {hashlib.sha256(text).hexdigest()[:12]}")
        if errors is not None and status == 2:
            errors.append(json.loads(text)["error"]["message"])
        count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    differs = False
    for name, runs, pin in (("report", report_runs(), REPORT_BYTES_SHA256),
                            ("more", more_runs(), MORE_REPORT_BYTES_SHA256)):
        lines = [] if "--lines" in sys.argv[1:] else None
        digest, count = report_digest(runs, lines)
        differs |= digest != pin
        print(name, digest, count, "pinned" if digest == pin else "differs")
        for line in lines or ():
            print(line)
    sys.exit(1 if differs else 0)
