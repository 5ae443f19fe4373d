import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest
from click.testing import CliRunner

from stab23.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, tmp_path, args):
    return runner.invoke(main, ["--out", str(tmp_path)] + args, catch_exceptions=False)


def test_verify_relations_exit_zero(runner, tmp_path):
    r = invoke(runner, tmp_path, ["group", "verify-relations"])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output
    data = json.loads((tmp_path / "group-verify-relations.json").read_text())
    assert all(data["relations"].values())
    assert data["subgroup_orders"]["G24"] == 24


def test_subgroup_listing(runner, tmp_path):
    r = invoke(runner, tmp_path, ["group", "subgroup", "G24"])
    assert r.exit_code == 0
    data = json.loads((tmp_path / "group-subgroup-G24.json").read_text())
    assert data["order"] == 24
    assert len(data["elements"]) == 24


def test_quotient_report(runner, tmp_path):
    r = invoke(runner, tmp_path, ["group", "quotient", "--level", "1"])
    assert r.exit_code == 0
    data = json.loads((tmp_path / "group-quotient-1-1.json").read_text())
    assert data["order"] == 144


def test_invariants_pass(runner, tmp_path):
    r = invoke(runner, tmp_path, ["invariants", "--ring", "Srho", "--group", "C3", "--max-degree", "16"])
    assert r.exit_code == 0
    assert "PASS" in r.output


def test_chart_command_and_determinism(runner, tmp_path):
    args = ["--format", "json", "chart", "--group", "C3", "--stems", "-1..20"]
    r1 = invoke(runner, tmp_path, args)
    assert r1.exit_code == 0
    first = (tmp_path / "chart-C3.json").read_bytes()
    r2 = invoke(runner, tmp_path, args)
    assert r2.exit_code == 0
    assert (tmp_path / "chart-C3.json").read_bytes() == first


def test_chart_svg_written(runner, tmp_path):
    # a tame chart compares nothing (exit 3), but its reports are written;
    # the G24 chart has classes, one circle for each cell in the window
    for group, (lo, hi), code in [("SD16", (-1, 17), 3), ("G24", (-1, 73), 0)]:
        r = invoke(runner, tmp_path, ["--format", "svg", "chart", "--group", group, f"--stems={lo}..{hi}"])
        assert r.exit_code == code, r.output
        svg = (tmp_path / f"chart-{group}.svg").read_text()
        assert svg.startswith("<svg")
        cells = json.loads((tmp_path / f"chart-{group}.json").read_text())["cells"]
        drawn = [c for c in cells if lo <= c["t"] - c["s"] <= hi and c["s"] <= 14]
        assert svg.count("<circle") == len(drawn)
        assert bool(drawn) == (group == "G24")


@pytest.mark.parametrize(
    "args, report",
    [
        # below level 1 the subgroup images are not an independent count
        (["group", "quotient", "--level", "1/2"], "group-quotient-1-2"),
        # a tame chart has no engine cell and no generator list
        (["chart", "--group", "SD16", "--stems=-1..17"], "chart-SD16"),
        # no class lies in the engine window s <= 4, -30 <= t <= 42
        (["chart", "--group", "C6", "--stems=100..120"], "chart-C6"),
        # the tower's base charts do not reach the vanishing inputs
        (["chart", "--tower", "--stems=-4..10"], "chart-tower"),
        # no count to compare S(rho) invariants of G24 with
        (["invariants", "--ring", "Srho", "--group", "G24", "--max-degree", "12"], "invariants-Srho-G24"),
        # odd degrees only, where the tame pieces vanish
        (["invariants", "--ring", "tame", "--group", "SD16", "--max-degree", "3"], "invariants-tame-SD16"),
        # odd degrees only, where the model vanishes
        (["cohomology", "--group", "C3", "--smax", "2", "--tmin", "-5", "--tmax", "5"], "cohomology-C3"),
    ],
    ids=["quotient-1/2", "chart-SD16", "chart-C6-high", "tower-low", "invariants-Srho-G24",
         "invariants-tame-odd", "cohomology-odd"],
)
def test_a_run_that_compares_nothing_is_inconclusive(runner, tmp_path, args, report):
    r = invoke(runner, tmp_path, args)
    assert r.exit_code == 3, r.output
    assert "INCONCLUSIVE" in r.output
    assert "PASS" not in r.output
    assert json.loads((tmp_path / f"{report}.json").read_text())
    assert (tmp_path / f"{report}.txt").exists()


@pytest.mark.parametrize(
    "args, report",
    [
        (["chart", "--group", "SD16", "--stems=-1..17"], "chart-SD16"),
        (["chart", "--group", "C6", "--stems=100..120"], "chart-C6"),
    ],
    ids=["tame", "outside-the-engine-window"],
)
def test_chart_text_of_a_run_that_is_not_pass_states_its_verdict(runner, tmp_path, args, report):
    # the text report alone must not read like a PASS
    r = invoke(runner, tmp_path, args)
    assert r.exit_code == 3, r.output
    lines = (tmp_path / f"{report}.txt").read_text().splitlines()
    assert lines[-1] == "verdict: INCONCLUSIVE"
    assert "verdict: INCONCLUSIVE" in r.output.splitlines()


def test_chart_text_verdict_line_only_off_pass():
    from stab23 import charts, reportio

    chart, ok = charts.verify_chart("C3", (-1, 20))
    assert ok is True
    lines = reportio.render_chart_text(chart, True)
    assert not any(line.startswith("verdict:") for line in lines)
    assert reportio.render_chart_text(chart, False) == lines + ["verdict: FAIL"]
    assert reportio.render_chart_text(chart, None) == lines + ["verdict: INCONCLUSIVE"]


def test_cohomology_command(runner, tmp_path):
    r = invoke(
        runner,
        tmp_path,
        ["cohomology", "--group", "C3", "--smax", "3", "--tmin", "-12", "--tmax", "12"],
    )
    assert r.exit_code == 0
    assert "PASS" in r.output


def _cohomology_under_a_wrong_action(runner, tmp_path):
    from stab23 import cohomology as coh
    from stab23 import invariants as inv

    def clear():
        for f in (inv.verify_action_pinning, inv.gen_matrix, coh.invariant_cell):
            f.cache_clear()
        coh._C3_CELLS.clear()
        coh._SUBQUOTIENTS.clear()

    try:
        clear()
        r = invoke(runner, tmp_path, ["cohomology", "--group", "G24", "--smax", "2",
                                      "--tmin", "0", "--tmax", "4"])
    finally:
        clear()
    assert r.exit_code == 1, r.output
    assert "assertion failed: action pinning failed" in r.output
    assert "t s = s^2 t" in r.output


def test_cohomology_with_a_wrong_action_fails_the_pinning(runner, tmp_path, monkeypatch):
    # t acting as t^2 commutes with s: the pinning refuses it before any
    # generator matrix is built
    from stab23 import invariants as inv

    real = inv._apply_gen_3
    monkeypatch.setattr(inv, "_apply_gen_3", lambda gen, p: real("t2" if gen == "t" else gen, p))
    _cohomology_under_a_wrong_action(runner, tmp_path)


def test_cohomology_with_a_wrong_action_table_fails_the_pinning(runner, tmp_path, monkeypatch):
    # the same wrong t in the one action table, which the generator
    # matrices read too: the pinning still runs first
    from stab23 import invariants as inv

    monkeypatch.setitem(inv.GEN_ACTION, "t", inv.GEN_ACTION["t2"])
    _cohomology_under_a_wrong_action(runner, tmp_path)


def test_bad_config_rejected(runner, tmp_path):
    # a precision below the deepest level + 2 and a modulus exponent below 1
    # are usage errors, raised before any quotient is built (no traceback)
    for args in (
        ["--precision", "3", "group", "quotient", "--level", "2"],
        ["--precision", "4", "resolution", "--levels", "5/2", "--mod", "1"],
        ["--precision", "4", "sylow-cohomology", "--levels", "2,5/2"],
    ):
        r = invoke(runner, tmp_path, args)
        assert r.exit_code == 2, r.output
        assert "need precision >= level + 2" in r.output
    r = invoke(runner, tmp_path, ["resolution", "--levels", "2", "--mod", "0"])
    assert r.exit_code == 2, r.output
    assert "modulus exponent must be >= 1" in r.output
    assert not any(tmp_path.iterdir())
    # the precision is checked only against the levels a command reads
    r = invoke(runner, tmp_path, ["--precision", "3", "group", "verify-relations"])
    assert r.exit_code == 0, r.output


def test_every_driver_suite_parses(runner, tmp_path):
    # each argv of scripts/full_verification.py names options that exist;
    # --help stops after parsing, so nothing is computed
    spec = importlib.util.spec_from_file_location(
        "full_verification", Path(__file__).parent.parent / "scripts" / "full_verification.py"
    )
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    for suite in driver.SUITES:
        r = invoke(runner, tmp_path, suite + ["--help"])
        assert r.exit_code == 0, (suite, r.output)
    assert not any(tmp_path.iterdir())


def test_tower_chart_command(runner, tmp_path):
    r = invoke(runner, tmp_path, ["chart", "--tower", "--stems", "-4..28"])
    assert r.exit_code == 0
    data = json.loads((tmp_path / "chart-tower.json").read_text())
    assert data["vanishing_inputs"]["pi25_shifted_48"] == 0


def test_resolution_with_every_construction_refused_is_inconclusive(runner, tmp_path):
    r = invoke(runner, tmp_path, ["resolution", "--levels", "3/2", "--mod", "1"])
    assert r.exit_code == 3, r.output
    assert "INCONCLUSIVE" in r.output
    assert "PASS" not in r.output
    data = json.loads((tmp_path / "resolution.json").read_text())
    assert "construction_refused" in data["levels"]["3/2"]


def test_resolution_with_every_level_refused_is_inconclusive(runner, tmp_path):
    # the tower is built at the top level, so its refusal must not surface
    # as a failed assertion (exit 1) from the transition check
    r = invoke(runner, tmp_path, ["resolution", "--levels", "3/2,1", "--mod", "1"])
    assert r.exit_code == 3, r.output
    assert "INCONCLUSIVE" in r.output
    assert "assertion failed" not in r.output
    data = json.loads((tmp_path / "resolution.json").read_text())
    assert all("construction_refused" in v for v in data["levels"].values())
    assert "construction_refused" in data["transitions"]


def test_resolution_with_failed_composites_at_the_top_exits_1(runner, tmp_path, monkeypatch):
    # a broken identity is a failed assertion, never a refused construction
    from stab23 import resolution as res_mod

    monkeypatch.setattr(res_mod, "composite_checks", lambda cx: {"b1b2": False})
    r = invoke(runner, tmp_path, ["resolution", "--levels", "2,3/2", "--mod", "1"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: composites not zero" in r.output
    assert "INCONCLUSIVE" not in r.output


def test_resolution_with_refused_top_and_built_lower_level_fails(runner, tmp_path, monkeypatch):
    # the transitions are built from the top level; when only a lower
    # level was built they go unchecked, and the run must not PASS
    from stab23 import resolution as res_mod
    from stab23.errors import ConstructionRefused

    real = res_mod.construct_complex

    def refuse_top(ld, rng=None):
        if ld.fq.level == Fraction(5, 2):
            raise ConstructionRefused("no averaged generator found in chi kernel")
        return real(ld, rng)

    monkeypatch.setattr(res_mod, "construct_complex", refuse_top)
    r = invoke(runner, tmp_path, ["resolution", "--levels", "5/2,2", "--mod", "1"])
    assert r.exit_code == 1, r.output
    assert "transitions: not checked" in r.output
    assert "PASS" not in r.output
    data = json.loads((tmp_path / "resolution.json").read_text())
    assert data["levels"]["2"]["ok"] is True
    assert "construction_refused" in data["transitions"]


def test_sylow_cohomology_with_one_level_is_inconclusive(runner, tmp_path):
    # one level gives no inflation, so no image rank is checked
    r = invoke(runner, tmp_path, ["sylow-cohomology", "--levels", "2", "--nmax", "2"])
    assert r.exit_code == 3, r.output
    assert "INCONCLUSIVE" in r.output
    assert "PASS" not in r.output
    data = json.loads((tmp_path / "sylow-cohomology.json").read_text())
    assert data["raw_dims"] == {"2": [1, 2, 4]} and data["through_image_ranks"] == {}


def test_sylow_cohomology_from_the_trivial_group_passes(runner, tmp_path):
    # P(1/2) is trivial: its resolution has no rows above degree 0, and
    # inflation from it is the unit in degree 0 and zero above
    r = invoke(runner, tmp_path, ["sylow-cohomology", "--levels", "1/2,1", "--nmax", "4"])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output
    data = json.loads((tmp_path / "sylow-cohomology.json").read_text())
    assert data["raw_dims"]["1/2"] == [1, 0, 0, 0, 0]
    assert data["through_image_ranks"] == {"1/2": [1, 0, 0, 0, 0]}


@pytest.mark.parametrize(
    "args, option",
    [
        (["group", "subgroup", "FOO"], "NAME"),
        (["chart", "--group", "XX"], "--group"),
        (["cohomology", "--group", "SD16"], "--group"),
        (["invariants", "--ring", "tame", "--group", "C3"], "--group"),
        (["chart", "--tower", "--stems", "5"], "--stems"),
        (["group", "quotient", "--level", "7/3"], "--level"),
        (["resolution", "--levels", "2,2"], "--levels"),
        (["sylow-cohomology", "--levels", "2,2"], "--levels"),
        (["sylow-cohomology", "--nmax", "-1"], "--nmax"),
        (["--precision", "0", "group", "verify-relations"], "--precision"),
        (["invariants", "--max-degree", "-2"], "--max-degree"),
        (["cohomology", "--smax", "0"], "--smax"),
        (["cohomology", "--tmin", "10", "--tmax", "-10"], "--tmin"),
        (["chart", "--tower", "--group", "G24"], "--group"),
    ],
)
def test_malformed_input_is_a_usage_error(runner, tmp_path, args, option):
    # catch_exceptions=False: a traceback would fail the test
    r = invoke(runner, tmp_path, args)
    assert r.exit_code == 2, r.output
    assert f"Invalid value for '{option}'" in r.output
    assert not any(tmp_path.iterdir())


def test_resolution_builds_each_level_once(runner, tmp_path, monkeypatch):
    # the transition tower reuses the levels and the top complex of the
    # per-level loop instead of building them again
    from stab23 import resolution as res_mod

    built = {"prepare_level": [], "construct_complex": []}
    for name in built:
        real = getattr(res_mod, name)

        def counted(*args, real=real, name=name, **kwargs):
            built[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(res_mod, name, counted)
    r = invoke(runner, tmp_path, ["resolution", "--levels", "2,3/2", "--mod", "1"])
    assert r.exit_code == 0, r.output
    assert len(built["prepare_level"]) == 2
    assert [ld.fq.level for (ld,) in built["construct_complex"]] == [Fraction(2), Fraction(3, 2)]


def test_exactness_bound_is_a_resource_abort(runner, tmp_path):
    # the first elimination at level 1 is the Howell form of [aug^T | I]
    # on the six G24-cosets: 7 columns at m = 19 break the int64 bound
    # n * 3^(2m) < 2^63
    r = invoke(runner, tmp_path, ["resolution", "--levels", "1", "--mod", "19"])
    assert r.exit_code == 2, r.output
    assert "aborted: int64 bound n * 3^(2m) < 2^63 fails for n = 7 columns, m = 19" in r.output
    assert not any(tmp_path.iterdir())


def test_a_pool_that_does_not_generate_is_a_resource_abort(runner, tmp_path, monkeypatch):
    # without omega and phi the generator pool lies in the Sylow part, so
    # it cannot generate G(l), and the quotient report is not written
    from stab23 import quotients as q

    pool = q.FiniteQuotient._generator_pool
    monkeypatch.setattr(
        q.FiniteQuotient, "_generator_pool",
        lambda self: {k: v for k, v in pool(self).items() if k not in ("omega", "phi")},
    )
    r = invoke(runner, tmp_path, ["group", "quotient", "--level", "1"])
    assert r.exit_code == 2, r.output
    assert "aborted: generator pool failed to generate G(l)" in r.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 18.6 GiB for an array"), "aborted: Unable to allocate 18.6 GiB"),
    (MemoryError(), "aborted: out of memory"),
])
def test_memory_error_is_a_resource_abort(runner, tmp_path, monkeypatch, exc, line):
    # a window far below the model's degrees asks numpy for an 18.6 GiB
    # monomial matrix; the failed allocation is raised here, never made
    from stab23 import cohomology as coh

    def exhausted(*args):
        raise exc

    monkeypatch.setattr(coh, "verify_pattern", exhausted)
    r = invoke(runner, tmp_path, ["cohomology", "--group", "G24", "--tmin", "-100000",
                                  "--tmax", "-99990"])
    assert r.exit_code == 2, r.output
    assert line in r.output
    assert "Traceback" not in r.output
    assert not any(tmp_path.iterdir())


def test_resolution_eliminates_nothing_twice(runner, tmp_path, monkeypatch):
    # each complex owns the kernels and images of its boundaries, so no
    # kernel or image is computed twice on the same matrix
    from stab23 import linalg

    seen = []
    for name in ("kernel", "image"):
        real = getattr(linalg, name)

        def recorded(A, m, *dtype, real=real, name=name):
            a = np.ascontiguousarray(np.atleast_2d(np.asarray(A, dtype=np.int64)))
            seen.append(hashlib.sha1(f"{name} {m} {a.shape}".encode() + a.tobytes()).hexdigest())
            return real(A, m, *dtype)

        monkeypatch.setattr(linalg, name, recorded)
    r = invoke(runner, tmp_path, ["resolution", "--levels", "2,3/2", "--mod", "1"])
    assert r.exit_code == 0, r.output
    assert seen and len(set(seen)) == len(seen)


FIXTURES = Path(__file__).parent / "fixtures"

# (fixture stem, report name, argv): the benchmark suites and the group suites
GOLDEN = [
    ("resolution_mod1", "resolution", ["resolution", "--levels", "2,3/2,1", "--mod", "1"]),
    ("resolution_mod2", "resolution", ["resolution", "--levels", "2,3/2", "--mod", "2"]),
    # a refused level below the top, and a whole-range transition over
    # two steps
    ("resolution_mod1_from_5_2", "resolution", ["resolution", "--levels", "5/2,2,3/2", "--mod", "1"]),
    ("sylow_cohomology", "sylow-cohomology", ["sylow-cohomology", "--levels", "1,3/2,2", "--nmax", "3"]),
    ("invariants_SF_C3", "invariants-SF-C3",
     ["invariants", "--ring", "SF", "--group", "C3", "--max-degree", "36"]),
    ("cohomology_G24", "cohomology-G24",
     ["cohomology", "--group", "G24", "--smax", "8", "--tmin", "-24", "--tmax", "24"]),
    ("chart_G24", "chart-G24", ["chart", "--group", "G24", "--stems=-1..73"]),
    # both signs of the d5 coefficient
    ("chart_C3", "chart-C3", ["chart", "--group", "C3", "--stems=-1..38"]),
    ("chart_tower", "chart-tower", ["chart", "--tower", "--stems=-4..30"]),
    ("group_verify_relations", "group-verify-relations", ["group", "verify-relations"]),
    ("group_subgroup_G24", "group-subgroup-G24", ["group", "subgroup", "G24"]),
    ("group_quotient_2", "group-quotient-2-1", ["group", "quotient", "--level", "2"]),
    ("invariants_tame_SD16", "invariants-tame-SD16",
     ["invariants", "--ring", "tame", "--group", "SD16", "--max-degree", "24"]),
    ("invariants_tame_Q8", "invariants-tame-Q8",
     ["invariants", "--ring", "tame", "--group", "Q8", "--max-degree", "24"]),
    ("invariants_SrhoLoc_G24", "invariants-SrhoLoc-G24",
     ["invariants", "--ring", "SrhoLoc", "--group", "G24", "--max-degree", "24"]),
    # the substitution x3 -> -x1-x2 in the S(rho) matrices, and C3's
    # multiplication_kills
    ("invariants_Srho_C3", "invariants-Srho-C3",
     ["invariants", "--ring", "Srho", "--group", "C3", "--max-degree", "24"]),
    ("cohomology_C3", "cohomology-C3",
     ["cohomology", "--group", "C3", "--smax", "8", "--tmin", "-12", "--tmax", "12"]),
]


@pytest.mark.parametrize("stem, report, args", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_reports_match_the_golden_bytes(runner, tmp_path, stem, report, args):
    # the JSON and text reports, byte for byte
    r = invoke(runner, tmp_path, args)
    assert r.exit_code == 0, r.output
    for ext in ("json", "txt"):
        assert (tmp_path / f"{report}.{ext}").read_bytes() == (FIXTURES / f"{stem}.{ext}").read_bytes()


def test_no_suite_imports_numpy_ma(tmp_path):
    # the first call of np.unique, np.setdiff1d or np.isin imports numpy.ma,
    # about 12 ms and 1.7 MB of every CLI run; a resolution and a Sylow
    # suite run here in a fresh interpreter without loading it.  A numpy
    # whose own import loads numpy.ma (the 1.x series) leaves nothing to test
    code = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    print('numpy.ma at import')\n"
        "    sys.exit(0)\n"
        "from stab23.cli import main\n"
        "for argv in (['resolution', '--levels', '2,3/2', '--mod', '2'],\n"
        "             ['sylow-cohomology', '--levels', '1,3/2,2', '--nmax', '2']):\n"
        "    try:\n"
        f"        main(['--out', {str(tmp_path)!r}, *argv], standalone_mode=False)\n"
        "    except SystemExit as e:\n"
        "        assert not e.code, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    r = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stdout + r.stderr
    if r.stdout.splitlines()[-1] == "numpy.ma at import":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert r.stdout.splitlines()[-1] == "False"
