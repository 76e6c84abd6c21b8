"""Run every workload over several seeds, one process after another, and
print each end-to-end metric's median, quartiles and spread
((Q3 - Q1) / median), plus the failed share of operations.

    python3 bench/summary.py --seeds 1-10
    python3 bench/summary.py --seeds 1-10 --trace 3 --workloads theta2_generic

With ``--trace N`` the first N seeds also get a traced run, and the tracing
overhead (traced against untraced time in operations per round, medians
over those seeds) is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = HERE / "runs" / f"result-{workload}-{seed}-trace{trace}.json"
    return json.loads(detail.read_text())


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--trace", type=int, default=0, metavar="N")
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    for workload in args.workloads:
        runs = [run(workload, s, 0) for s in seeds]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:12} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  (bound {metric['bound']})")
        if args.trace:
            traced = [run(workload, s, 1) for s in seeds[:args.trace]]
            plain = statistics.median(r["busy_s"] / r["rounds"] for r in runs[:args.trace])
            with_spans = statistics.median(r["busy_s"] / r["rounds"] for r in traced)
            print(f"  tracing overhead: {plain:.4f} s -> {with_spans:.4f} s per round "
                  f"({(with_spans - plain) / plain:+.1%}), all correct: "
                  f"{all(r['correct'] for r in traced)}")


if __name__ == "__main__":
    main()
