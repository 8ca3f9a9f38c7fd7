"""cantorlab benchmark: seeded workloads, exact output gate, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-check
    python3 bench/run.py --write-golden

A workload run imports cantorlab from the checkout's src/, builds its job
list from the seed, measures whole passes for the given seconds and prints
its figures, then as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  A job whose output
breaks a certified identity or whose report digest differs from
bench/golden.json counts as failed, and the run then exits 1.

--all runs every workload, each in a fresh process, and prints one table.
--self-check runs each workload at a tiny size and checks metric names and
golden digests.  --write-golden records the digests of every catalogue
entry; run it only when a change is meant to alter reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cli_jobs  # noqa: E402
import closure_diag  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import sparse_blocks  # noqa: E402

WORKLOADS = {m.NAME: m for m in (sparse_blocks, closure_diag, cli_jobs)}
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
SETUP_REPEATS = 5


def load_golden(name: str) -> dict[str, str]:
    table = json.loads(GOLDEN.read_text())[name]
    return {f"{kind}/{v}": d for kind, ds in table.items() for v, d in enumerate(ds)}


def setup(mod, seed: int, tiny: bool):
    """Import, build the job list from the seed, warm up; returns (lib, jobs)."""
    lib = harness.load_library()
    # Tiny keeps the fixed head (later jobs read its outputs), one body job per kind.
    body = [(kind, 1) for kind, _ in mod.BODY] if tiny else mod.BODY
    jobs = gen.build_jobs(lib, mod.NAME, mod.KINDS, mod.HEAD, body, seed)
    # The interval partition fills lazily; touch every block the jobs use.
    for s in range(1, 9):
        for a in range(s):
            lib.series.PARTITION.block(a, s - a)
    seen = set()
    for job in jobs:
        kind = job.key.split("/")[0]
        if job.warm and kind not in seen:
            seen.add(kind)
            job.fn({}, harness.NullTracer())
    return lib, jobs


def reference_around(fn):
    """fn() timed raw and host-normalized by reference samples on both sides."""
    refs = [harness.reference_seconds() for _ in range(4)]
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    refs += [harness.reference_seconds() for _ in range(4)]
    return out, raw, raw * harness.REF_NOMINAL_S * len(refs) / sum(refs)


def measure(mod, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    setups, setups_raw = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        (lib, jobs), raw, norm = reference_around(lambda: setup(mod, seed, tiny))
        setups.append(norm)
        setups_raw.append(raw)
    golden = load_golden(mod.NAME)
    tracer = harness.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        # Cyclic garbage (union_generators leaves its output list in a
        # cycle) is freed between passes, so peak memory is that of one
        # pass, not of however many passes the run had time for.
        gc.collect()
        # Traced runs alternate untraced and traced passes, so the tracing
        # overhead is measured on the same machine state.
        tr = tracer if trace and len(passes) % 2 else harness.NullTracer()
        passes.append((harness.run_pass(lib, jobs, golden, tr, len(passes) * len(jobs)),
                       tr is tracer))
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
    plain = [p for p, traced in passes if not traced]
    result = {
        "workload": mod.NAME,
        "attempted": len(jobs) * len(passes),
        "failed": sum(p.failed for p, _ in passes),
        "errors": sorted({e for p, _ in passes for e in p.errors}),
        "passes": len(passes),
        "setup_s": statistics.median(setups),
        "setup_raw_s": statistics.median(setups_raw),
        "setups": len(setups),
        "times": summarize(plain, len(jobs), "norm"),
        "times_raw": summarize(plain, len(jobs), "times"),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    if trace:
        result["layers"] = per_layer(tracer, passes, len(jobs))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{mod.NAME}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"],
                       "spans": [[n, round(s - start, 7), round(e - start, 7), p, j]
                                 for n, s, e, p, j in tracer.spans]},
                      fh, separators=(",", ":"))
        result["spans_file"] = str(path.relative_to(BENCH.parent))
    if mod is cli_jobs:
        result["contract"] = cli_jobs.contract_outcomes(lib)
    return result


def summarize(passes, n_jobs: int, field: str) -> dict:
    per_job = [[getattr(p, field)[i] for p in passes] for i in range(n_jobs)]
    return harness.summarize_times(per_job)


def per_layer(tracer, passes, n_jobs: int) -> dict:
    """Per traced pass: calls, busy and self seconds per span, extra counts."""
    n = sum(1 for _, traced in passes if traced)
    out = {}
    for name, (calls, busy, self_s) in tracer.layer_totals().items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.busy_s"] = busy / n
        out[f"{name}.self_s"] = self_s / n
    counts = tracer.counts
    for name, _, num, den in harness.EXTRAS:
        if den is None:
            out[name] = counts.get(num, 0) / n
        else:
            out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    t_plain = statistics.median(p.seconds for p, traced in passes if not traced)
    t_traced = statistics.median(p.seconds for p, traced in passes if traced)
    out["trace.jobs_per_s"] = n_jobs / t_traced
    out["trace.overhead_frac"] = t_traced / t_plain - 1
    return out


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        units = dict(harness.per_layer_units())
        return {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()
                if k in units}
    t = result["times"]
    values = {"jobs_per_s": t["jobs_per_s"], "job_p50_ms": t["job_p50_ms"],
              "job_tail_ms": t["job_tail_ms"], "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": result["setup_s"]}
    return {k: {"value": values[k], "unit": u} for k, u in harness.END_TO_END}


def print_report(result: dict, seed: int, trace: bool) -> None:
    prov = harness.provenance(seed)
    t = result["times"]
    print(f"# workload {result['workload']}  seed {seed}  trace {int(trace)}  "
          f"passes {result['passes']}  jobs/pass {t['jobs']}")
    print(f"# machine: {prov['cores']} cores, {prov['cpu']}, Python {prov['python']}; "
          f"git {prov['git_revision']}; src sha256 {prov['src_sha256']}")
    raw = result["times_raw"]
    print("# times are host-normalized (see harness.REF_NOMINAL_S); raw wall "
          "clock in brackets")
    print(f"jobs_per_s    {t['jobs_per_s']:.4f} 1/s  [{raw['jobs_per_s']:.4f}]")
    print(f"job_p50_ms    {t['job_p50_ms']:.4f} ms  [{raw['job_p50_ms']:.4f}]")
    print(f"job_tail_ms   {t['job_tail_ms']:.4f} ms  [{raw['job_tail_ms']:.4f}]  "
          f"(p{t['tail_percentile']:.1f} of {t['jobs']} per-job means, "
          f"{t['tail_beyond']} beyond)")
    print(f"peak_rss_mb   {result['peak_rss_mb']:.2f} MB")
    print(f"setup_s       {result['setup_s']:.4f} s  [{result['setup_raw_s']:.4f}]  "
          f"(median of {result['setups']} set-ups)")
    print(f"failed_frac   {result['failed'] / result['attempted']:.6f}  "
          f"({result['failed']} of {result['attempted']} jobs)")
    if "contract" in result:
        bad = [c for c in result["contract"] if c[1] != "ok"]
        print(f"contract_failed_frac {len(bad) / len(result['contract']):.4f}  "
              f"({len(bad)} of {len(result['contract'])} malformed jobs miss the "
              f"documented exit 2 + typed error; run outside the timed loop)")
        for name, outcome in result["contract"]:
            print(f"#   contract {name}: {outcome}")
    if trace:
        layers = result["layers"]
        print(f"# tracing overhead {layers['trace.overhead_frac']:.4f} "
              f"(traced {layers['trace.jobs_per_s']:.4f} jobs/s); spans in "
              f"{result['spans_file']}")
        for name in harness.span_names():
            if layers[f"{name}.calls"]:
                print(f"#   {name:40s} calls {layers[name + '.calls']:10.1f}  busy "
                      f"{layers[name + '.busy_s']:.5f} s  self {layers[name + '.self_s']:.5f} s")
    for err in result["errors"][:20]:
        print(f"# FAILED {err}")


def run_one(args) -> int:
    mod = WORKLOADS[args.workload]
    trace = bool(args.trace)
    result = measure(mod, args.seed, args.seconds, trace)
    print_report(result, args.seed, trace)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics_of(result, trace)}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one table at the end."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            contract = [ln.split()[1] for ln in lines
                        if ln.startswith("contract_failed_frac")]
            rows.append((name, json.loads(lines[-1]), contract[0] if contract else "-"))
    if not args.trace:
        print(f"\n{'workload':15s}" + "".join(f"{m:>22s}" for m, _ in harness.END_TO_END)
              + f"{'failed_frac':>14s}{'contract_failed_frac':>22s}")
        for name, res, contract in rows:
            cells = "".join(f"{res['metrics'][m]['value']:>16.4f} {u:5s}"
                            for m, u in harness.END_TO_END)
            print(f"{name:15s}{cells}{res['failed'] / res['attempted']:>14.6f}{contract:>22s}")
    return status


def write_golden() -> int:
    """Digest every catalogue entry; any failing job aborts with its traceback."""
    table = {}
    for name, mod in WORKLOADS.items():
        lib = harness.load_library()
        jobs = gen.catalogue_jobs(lib, name, mod.KINDS, [k for k, _ in mod.HEAD])
        ctx = {}
        digests = {}
        for job in jobs:
            payload = job.fn(ctx, harness.NullTracer())
            kind = job.key.split("/")[0]
            digests.setdefault(kind, []).append(harness.digest(lib, payload))
        table[name] = digests
        print(f"{name}: {len(jobs)} catalogue entries")
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


def self_check() -> int:
    """Each workload at a tiny size, traced and untraced: names and digests."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name, mod in WORKLOADS.items():
        for trace in (0, 1):
            res = measure(mod, 1, 0, bool(trace), tiny=True)
            got = set(metrics_of(res, bool(trace)))
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metric names differ: "
                                f"{sorted(got ^ want[trace])}")
            problems += [f"{name}: {e}" for e in res["errors"]]
        print(f"self-check {name}: {res['attempted']} jobs")
    for p in problems:
        print(f"SELF-CHECK FAILED {p}")
    if not problems:
        print("self-check ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("run without -O: it strips the assert checks in cantorlab.coding",
              file=sys.stderr)
        return 2
    if not (harness.SRC / "cantorlab" / "__init__.py").is_file():
        print(f"no cantorlab sources under {harness.SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.self_check:
        return self_check()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all, --self-check or --write-golden")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
