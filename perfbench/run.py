"""Benchmark of ncfsieve: cold-start workloads with exact checks.

    python3 perfbench/run.py --workload csp-sweep --seed 1 --seconds 36 --trace 0

Every execution of a workload runs in a fresh interpreter (worker.py), so
every lru_cache in ncfsieve starts cold, as it does for each ncfsieve
invocation. Load is a closed loop with a single caller: the next execution
starts only after the previous one has exited, and nothing runs in
parallel, so the figures measure the program and not the scheduler.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over
the executions that fit in --seconds (at least one), setup_s also over
extra starts that stop after set-up. --trace 1 runs one untraced and one
traced execution and prints the per-layer metrics; the traced worker
writes its spans and per-layer table to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a readable table goes to stderr. The exit
code is 0 whenever a result is printed, and not 0 when the checkout holds
no ncfsieve sources or an execution dies.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REF_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("csp-sweep", "poly-large", "roundtrip")

SETUP_STARTS = 9  # set-up-only starts per untraced run, for the setup_s median
BUDGET_S = 170  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def execute(workload: str, seed: int, size: str, deadline: float, *,
            trace: bool = False, setup_only: bool = False) -> dict:
    """Start one worker and wait for it. setup_s runs from the start of the
    interpreter to its ``ready`` line, scaled to the reference speed by the
    probe the worker times right after set-up (see speed.py)."""
    alarm = max(1, math.ceil(deadline - perf_counter()))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--alarm", str(alarm)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    if first != b"ready\n" or rc != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with {rc}")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s * REF_PROBE_S / result["ready_probe_s"]
    return result


def untraced(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [execute(args.workload, args.seed, args.size, deadline,
                      setup_only=True)["setup_s"] for _ in range(SETUP_STARTS)]
    runs: list[dict] = []
    t0 = perf_counter()
    while True:
        runs.append(execute(args.workload, args.seed, args.size, deadline))
        elapsed = perf_counter() - t0
        mean = elapsed / len(runs)
        if elapsed + mean > args.seconds or perf_counter() + mean > deadline:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return metrics, runs


def traced(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = execute(args.workload, args.seed, args.size, deadline)
    run = execute(args.workload, args.seed, args.size, deadline, trace=True)
    metrics = dict(run["layers"])
    metrics["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
    runs = [plain, run]
    attempted = sum(r["attempted"] for r in runs)
    metrics["fail_ratio"] = sum(r["failed"] for r in runs) / attempted
    print(f"spans: {run['trace_file']}", file=sys.stderr)
    return metrics, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", dest="size", action="store_const", const="smoke",
                    default="full", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = perf_counter() + BUDGET_S

    if not (ROOT / "src" / "ncfsieve" / "__init__.py").is_file():
        print(f"error: no ncfsieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        metrics, runs = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for note in (n for r in runs for n in r["notes"]):
        print(f"check failed: {note}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} executions={len(runs)} "
          f"checks={attempted} failed={failed} raw wall_s="
          f"{[round(r['wall_raw_s'], 3) for r in runs]} probe_us="
          f"{[round(r['probe_us'], 1) for r in runs]}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
