"""Benchmark of the stab23 CLI verification suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload (see workloads.py), each in a fresh worker
process, until S seconds have passed; at least one round always runs and
every round is whole.  Each report is checked against the benchmark's own
computations (checks.py).  The last line of standard output is one JSON
object with `correct`, `attempted` and `failed` (counted in suite
commands) and `metrics`:

  --trace 0  wall_s, setup_s and peak_rss_mb, each the median over the run
  --trace 1  the per-layer metrics listed in BENCHMARK.json, from wrappers
             around the stab23 functions (tracer.py); a metric whose
             function no longer exists is left out

The workloads' inputs are the fixed windows of the verification protocol:
--seed is accepted for the command contract and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 12         # extra set-up-only starts per run, besides one per round
WORKER_TIMEOUT_S = 150
# One BLAS thread: the float64 products in F3Space then take the same
# single core in every run instead of competing for the second one.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(workload: str, trace: int, setup_only: bool = False) -> tuple:
    """Run one worker; return (seconds from spawn to its first suite, its result)."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--out", str(out), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **WORKER_ENV)
    # Let the worker cache bytecode in the checkout, as an installed CLI
    # has it: set-up is then the imports, not compiling stab23 every time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def per_layer_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stab23" / "cli.py").is_file():
        print(f"no stab23 sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from tracer import layer_metric
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    layer_names = per_layer_names() if args.trace else []

    setups = [spawn(args.workload, 0, setup_only=True)[0]
              for _ in range(0 if args.trace else SETUP_SAMPLES)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        setup_s, result = spawn(args.workload, args.trace)
        setups.append(setup_s)
        rounds.append(result)
        print(f"round {len(rounds)}: wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, setup {setup_s:.3f} s, "
              f"rss {result['peak_rss_mb']:.1f} MB, failed {result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
        for problem in result["problems"]:
            print(f"  check failed: {problem}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {}
        for name, unit in layer_names:
            values = [layer_metric(r["layers"], name) for r in rounds]
            if any(v is None for v in values):
                print(f"absent: {name} (its function is gone)", file=sys.stderr)
                continue
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
