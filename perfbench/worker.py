"""One round of a workload: its stab23 CLI suites, run in this process.

run.py starts one fresh interpreter per round, so each round pays the
interpreter start and the numpy, click and stab23 imports, as every CLI
run does.  The last line of standard output is one JSON object:

    ready        perf_counter() when the first suite starts (all that
                 --setup-only prints)
    wall_s       first suite start to last verdict
    cpu_s        processor time of this process over the same span
    peak_rss_mb  ru_maxrss of this process after the last verdict
    attempted, failed, problems, layers (traced rounds only)

Usage: python3 perfbench/worker.py --workload NAME --out DIR [--trace 0|1] [--setup-only]
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import stab23.cli  # noqa: E402  (numpy and click come with it)


def run_suite(argv, out: Path) -> bool:
    """Run one CLI suite in-process; True when it exits with code 0."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            stab23.cli.main(["--out", str(out), *argv], prog_name="stab23",
                            standalone_mode=False)
    except SystemExit as exc:
        ok = exc.code in (0, None)
    except Exception:  # a suite that crashes counts as failed; the round goes on
        traceback.print_exc()
        ok = False
    else:
        ok = True
    if not ok:
        print(f"suite {' '.join(argv)} failed:\n{captured.getvalue()[-2000:]}", file=sys.stderr)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(stab23.__file__).resolve().is_relative_to(SRC):
        print(f"stab23 imported from {stab23.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    suites = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    if args.setup_only:
        print(json.dumps({"ready": start}))
        return 0
    passed = [run_suite(s.argv, args.out / str(k)) for k, s in enumerate(suites)]
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for k, (suite, ok) in enumerate(zip(suites, passed)):
        if ok:
            report = json.loads((args.out / str(k) / suite.report).read_text())
            try:
                found = suite.check(report)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [f"malformed report: {exc!r}"]
            problems += [f"{' '.join(suite.argv)}: {p}" for p in found]
    result = {
        "ready": start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(suites),
        "failed": passed.count(False),
        "problems": problems,
    }
    if tracer:
        tracer.write(args.out / "trace.json")
        result["layers"] = tracer.aggregate()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
