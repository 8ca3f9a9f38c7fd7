"""Timing loop, span tracer and metric arithmetic shared by the workloads.

A workload is a fixed list of jobs built from the seed.  One run repeats
whole passes over that list in a closed loop (one process, one thread, each
job starts when the previous one has returned) until the run's seconds are
used up.  Each job's time is its mean over the passes; the median and the
tail are taken over those per-job means, so the percentile of the tail is
fixed by the list length.  Throughput is jobs run over the time they took.
Job times are host-normalized against an interleaved reference snippet (see
REF_NOMINAL_S).  What the reference does not cancel of the host's speed
phases, a mean over a whole run follows smoothly, where a median would jump
between phases from run to run.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("errors", "space", "reports", "coding", "martingales", "covers",
           "series", "closure", "diagonal", "serialize", "cli")

# Timed public functions per layer (module), as the benchmark calls them.
LAYERS = {
    "space": ("PrefixFreeSet", "measure", "condition", "covers", "union",
              "reduce", "power", "member"),
    "series": ("encode_series", "extract_series", "b_set", "series_to_open",
               "open_to_series_sup"),
    "martingales": ("winning_set", "verify_ville_kolmogorov", "reset",
                    "average_truncated", "mixture", "value"),
    "closure": ("p2_mlr", "p2_sr", "p3_mlr", "p3_cr"),
    "diagonal": ("run", "verify_trace"),
    "covers": ("schnorr_merge", "power_test", "tails_to_power"),
    "coding": ("kc_build", "g_to_machine", "complexity"),
    "cli": ("main", "json_parse", "dispatch", "dumps"),
}

# Extra per-layer figures: (name, unit, numerator count, denominator count).
# A ratio has a denominator count; a plain count has None.
EXTRAS = (
    ("space.gens_in", "count", "space.gens_in", None),
    ("series.gens_out", "count", "series.gens_out", None),
    ("series.extract_series.hit_ratio", "ratio",
     "series.extract_series.hits", "series.extract_series.asked"),
    ("martingales.winning_set.truncated_ratio", "ratio",
     "martingales.winning_set.truncated", "martingales.winning_set.searches"),
    ("diagonal.run.stages_ratio", "ratio",
     "diagonal.run.stages_done", "diagonal.run.stages_asked"),
    ("diagonal.run.no_escape", "count", "diagonal.run.no_escape", None),
    ("cli.report_bytes", "byte", "cli.report_bytes", None),
)

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"),
                (f"{name}.self_s", "s")]
    out += [(name, unit) for name, unit, _, _ in EXTRAS]
    out += [("trace.jobs_per_s", "1/s"), ("trace.overhead_frac", "ratio")]
    return out


class Mismatch(Exception):
    """A job's output broke an identity its construction certifies."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Job:
    """One unit of user work: fn(ctx, tr) returns the payload to digest.

    key names the catalogue entry ("kind/variant") whose golden digest the
    payload must match; ctx is shared by the jobs of one pass.
    """

    __slots__ = ("key", "fn", "warm")

    def __init__(self, key: str, fn, warm: bool = True):
        self.key = key
        self.fn = fn
        self.warm = warm


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    job = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    """In-memory spans at the benchmark's calls into each layer.

    A span is [name, start, end, parent span index, job id]; spans nest when
    a spanned call runs inside another (a seam patched for the CLI layer).
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.job = -1

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [calls, busy seconds, self seconds]."""
        totals = {name: [0, 0.0, 0.0] for name in span_names()}
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(self.spans):
            t = totals.setdefault(rec[0], [0, 0.0, 0.0])
            dur = rec[2] - rec[1]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
        return totals


def load_library() -> SimpleNamespace:
    """Import cantorlab afresh from the checkout's src/ (module code runs again)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "cantorlab" or m.startswith("cantorlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"cantorlab.{m}") for m in MODULES})


# Sets above this size enter a digest as (count, measure) only, so checking
# an output never forces a lazy set representation to list its generators.
LISTED_MAX = 4096


def canon(lib, payload):
    """Canonical document of a payload; Reports render through to_doc."""
    if isinstance(payload, lib.reports.Report):
        return payload.to_doc()
    if isinstance(payload, lib.space.PrefixFreeSet) and len(payload) > LISTED_MAX:
        return {"count": len(payload), "measure": str(lib.space.measure(payload))}
    if isinstance(payload, dict):
        return {str(k): canon(lib, v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [canon(lib, v) for v in payload]
    if isinstance(payload, bytes):
        return hashlib.sha256(payload).hexdigest()
    return lib.reports.fmt(payload)


def digest(lib, payload) -> str:
    text = lib.reports.dumps(canon(lib, payload))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Host-speed reference.  On a shared virtual machine the host's speed drifts
# by up to a third over seconds, alike for every pure-Python workload.  A
# fixed snippet of the string, sort, dict and Fraction work cantorlab does
# runs after every REF_EVERY_S of job time; each job's time is scaled by
# REF_NOMINAL_S over the snippet's local time, which cancels the drift.
# REF_NOMINAL_S is about
# the snippet's time on a shared 2-core Intel Xeon virtual machine with
# Python 3.11.7, so normalized times read as seconds there.
REF_NOMINAL_S = 250e-6
REF_EVERY_S = 0.02
_REF_WORDS = [format(i * 2654435761 % 65536, "016b")[: 4 + i % 12] for i in range(400)]


def _reference_work():
    kept = []
    for s in sorted(_REF_WORDS):
        if not (kept and s.startswith(kept[-1])):
            kept.append(s)
    total = Fraction(0)
    for s in kept[:40]:
        total += Fraction(1, 2 ** len(s))
    return total, {s: len(s) for s in _REF_WORDS}


def reference_seconds() -> float:
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class PassResult:
    """Raw and host-normalized job times of one pass, and its failures."""

    __slots__ = ("times", "norm", "failed", "errors")

    def __init__(self, n):
        self.times = [0.0] * n
        self.norm = [0.0] * n
        self.failed = 0
        self.errors: list[str] = []

    @property
    def seconds(self) -> float:
        return sum(self.norm)


def run_pass(lib, jobs, golden, tr, job_base=0) -> PassResult:
    """One closed-loop pass; a job fails on an escaping exception, a broken
    identity, or a payload digest different from the committed golden."""
    res = PassResult(len(jobs))
    ctx: dict = {}
    refs, ref_at = [reference_seconds()], [0.0]   # sample, job time before it
    busy = since = 0.0
    for i, job in enumerate(jobs):
        tr.job = job_base + i
        t0 = time.perf_counter()
        try:
            payload = job.fn(ctx, tr)
        except Exception as err:  # the job's outcome, not a harness fault
            payload = None
            res.errors.append(f"{job.key}: {type(err).__name__}: {err}")
        t1 = time.perf_counter()
        res.times[i] = t1 - t0
        if payload is None:
            res.failed += 1
        elif golden is not None and digest(lib, payload) != golden.get(job.key):
            res.failed += 1
            res.errors.append(f"{job.key}: digest differs from golden")
        busy += t1 - t0
        since += t1 - t0
        if since >= REF_EVERY_S or i == len(jobs) - 1:
            refs.append(reference_seconds())
            ref_at.append(busy)
            since = 0.0
    start = 0.0
    for i, t in enumerate(res.times):
        # Reference samples within one job length (at least two sampling
        # intervals) of the job, so a long job is scaled by the host's speed
        # around all of it, not only at its two ends.
        reach = max(t, 2 * REF_EVERY_S)
        lo = bisect.bisect_left(ref_at, start - reach)
        hi = bisect.bisect_right(ref_at, start + t + reach)
        local = refs[lo:hi]
        res.norm[i] = t * REF_NOMINAL_S * len(local) / sum(local)
        start += t
    return res


def tail_rank(n: int) -> int:
    """Index (sorted ascending) of the highest sample with ten beyond it."""
    return max(n - 11, 0)


def summarize_times(per_job: list[list[float]]) -> dict:
    """Throughput, median and tail over per-job mean times (seconds)."""
    means = sorted(statistics.fmean(ts) for ts in per_job)
    n = len(means)
    rank = tail_rank(n)
    return {
        "jobs_per_s": n / sum(means),
        "job_p50_ms": statistics.median(means) * 1e3,
        "job_tail_ms": means[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "tail_beyond": n - rank - 1,
        "jobs": n,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        rev = ref
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "cantorlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_revision": rev,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }
