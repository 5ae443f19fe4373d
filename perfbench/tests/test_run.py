"""The traced run's wrappers, and the benchmark's refusal outside a checkout.

Tracer tests run in a child interpreter, because installing the wrappers
rebinds stab23 module attributes for the rest of the process.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def run_child(code: str) -> dict:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_listed_layer_metric_is_traced():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = run_child(f"""
        import json
        from tracer import Tracer, layer_metric
        tracer = Tracer()
        tracer.install()
        agg = tracer.aggregate()
        print(json.dumps([n for n in {names!r} if layer_metric(agg, n) is None]))
    """)
    assert missing == []


def test_spans_counts_and_absent_functions():
    out = run_child("""
        import json
        import numpy as np
        import stab23.linalg as linalg, stab23.quotients as quotients
        del linalg.rref_f3, linalg.F3Space         # as if a later change removed them
        from tracer import Tracer, layer_metric
        tracer = Tracer()
        tracer.install()
        linalg.kernel(np.array([[1, 3, 0], [0, 0, 2]]), 2)
        fq = quotients.finite_quotient(1)
        fq.mul(np.arange(5), np.arange(5, 10))
        agg = tracer.aggregate()
        spans = [s for s in tracer.spans if tracer.names[s[0]] == "linalg.howell_zm"]
        print(json.dumps({
            "rref": layer_metric(agg, "linalg.rref_f3.calls"),
            "f3space": layer_metric(agg, "linalg.F3Space.self_s"),
            "howell_calls": layer_metric(agg, "linalg.howell_zm.calls"),
            "howell_cells": layer_metric(agg, "linalg.howell_zm.cells"),
            "howell_self_le_total": all(s[3] <= s[2] - s[1] for s in spans),
            "mul_elements": layer_metric(agg, "quotients.FiniteQuotient.mul.elements"),
            "fq_calls": layer_metric(agg, "quotients.finite_quotient.calls"),
        }))
    """)
    assert out["rref"] is None and out["f3space"] is None
    assert out["howell_calls"] == 1 and out["howell_cells"] == 3 * 5
    assert out["howell_self_le_total"]
    assert out["mul_elements"] == 5 and out["fq_calls"] == 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
