"""Benchmark of cardminsat: one workload per process, one JSON line out.

    python3 bench/run.py --workload horn_w2a --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run writes its seeded inputs as files, times a cold set-up (import of
cardminsat plus loading the inputs through the program), then repeats
rounds of the workload's fixed operations, one after another, until
``--seconds`` have passed.  Every output is checked against reference.py.
Caches are cleared and ``gc.collect()`` runs before each round, so every
round does the same work.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the functions of the program are wrapped in spans and the
last line holds the per-layer metrics, while the spans go to
``bench/runs/trace-<workload>-<seed>.jsonl``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("abduction", "bruteforce", "classify", "cli", "coclones", "fileio", "formulas",
           "gauss", "reductions", "relations", "search", "solvers")


def import_program() -> types.SimpleNamespace:
    """Import cardminsat from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cardminsat")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cardminsat came from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"cardminsat.{m}")
                                    for m in MODULES})


def program_caches(P) -> list:
    """Every lru_cache of the program, so each round starts cold."""
    found = {}
    for mod in vars(P).values():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                found[id(val)] = val
    return list(found.values())


def measure(ops, seconds: float, caches) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed; each round's
    rate is its completed operations over the time spent in operations.
    Outputs that fail their check are listed in ``mismatches``."""
    clock = time.perf_counter
    times, rates, busy, mismatches = [], [], 0.0, []
    attempted = failed = rounds = 0
    start = clock()
    while rounds == 0 or clock() - start < seconds:
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        done, busy_before = len(times), busy
        for op in ops:
            attempted += 1
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:
                if op.known_fault is None or not isinstance(exc, op.known_fault):
                    raise
                busy += clock() - t0
                failed += 1
                continue
            dt = clock() - t0
            busy += dt
            try:
                op.check(out)
            except workloads.Mismatch as exc:
                mismatches.append(str(exc))
            times.append(dt)
        rates.append((len(times) - done) / (busy - busy_before))
        rounds += 1
    return {"times": times, "rates": rates, "busy": busy, "mismatches": mismatches,
            "attempted": attempted, "failed": failed, "rounds": rounds, "wall": clock() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.write(workdir)
        tracer = spans.Tracer() if args.trace else None
        gc.collect()
        t0 = time.perf_counter()
        P = import_program()
        if tracer:
            tracer.install(P)
        workload.load(P, workdir)
        setup_s = time.perf_counter() - t0
        setup_spans = len(tracer.spans) if tracer else 0
        ops = workload.ops(P)
        caches = program_caches(P)
        timed_from = len(tracer.spans) if tracer else 0
        gc.collect()
        res = measure(ops, args.seconds, caches)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for m in sorted(set(res["mismatches"])):
        print(f"output check failed: {m}", file=sys.stderr)
    correct = not res["mismatches"]
    if tracer:
        recorded = tracer.spans
        problems = spans.check_oracle_calls(recorded[timed_from:])
        for p in problems:
            print(f"trace check: {p}", file=sys.stderr)
        correct = correct and not problems
        values = spans.per_layer(recorded[:setup_spans], recorded[timed_from:], res["rounds"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER.items()}
        tracer.write(RUNS / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(res["rates"]),
            "op_p50_ms": statistics.median(res["times"]) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spans.BENCH["end_to_end"]}
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=res["rounds"], busy_s=res["busy"], wall_s=res["wall"])
    (RUNS / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
