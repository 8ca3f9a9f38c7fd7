"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--seeds 1-10] [--workloads a,b] [--seconds S]
                            [--record FILE]

Runs each workload once per seed, each run in a fresh process, and prints
per metric the median, the quartiles and the quartile distance as a share
of the median next to the metric's bound from BENCHMARK.json.  --record
writes every run's metrics, the summary and the machine to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, status = {}, {}, 0
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode:
                sys.stdout.write(proc.stdout + proc.stderr)
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, "attempted": res["attempted"],
                               "failed": res["failed"],
                               **{k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs[name]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "iqr_share": share, "bound": bound}
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:14s} {metric:12s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  iqr/median {share:.4f}  bound {bound}{flag}")
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"machine": harness.provenance(None), "seconds": args.seconds,
             "seeds": args.seeds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
