"""Each report check accepts a genuine report and rejects a corrupted one.

The fixtures are reports the stab23 CLI wrote for the benchmark's own
suites; every test corrupts one dim, rank, cell or verdict and expects
the matching check to name a problem.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load(name):
    return json.loads((HERE / "fixtures" / name).read_text())


RES1 = ("resolution-mod1.json", ["2", "3/2", "1"], 1)
RES2 = ("resolution-mod2.json", ["2", "3/2"], 2)


def res_check(fixture, levels, modulus, edit=None):
    report = load(fixture)
    if edit:
        edit(report)
    return checks.check_resolution(report, levels, modulus)


def sylow_check(edit=None):
    report = load("sylow-cohomology.json")
    if edit:
        edit(report)
    return checks.check_sylow(report, ["1", "3/2", "2"], 3)


def test_genuine_reports_pass():
    assert res_check(*RES1) == []
    assert res_check(*RES2) == []
    assert sylow_check() == []
    assert checks.check_invariants_sf_c3(load("invariants-SF-C3.json"), 36) == []
    assert checks.check_cohomology_g24(load("cohomology-G24.json"), 8, -24, 24) == []
    assert checks.check_chart_g24(load("chart-G24.json"), (-1, 73)) == []
    assert checks.check_tower(load("chart-tower.json")) == []


def test_workload_suites_match_fixture_parameters():
    argv = {s.argv for suites in WORKLOADS.values() for s in suites}
    assert ("resolution", "--levels", "2,3/2,1", "--mod", "1") in argv
    assert ("sylow-cohomology", "--levels", "1,3/2,2", "--nmax", "3") in argv


def test_independent_counts():
    assert [checks.quotient_order(lv) for lv in ("1", "3/2", "2")] == [144, 432, 3888]
    assert checks.target_dims(4) == [1, 2, 3, 4, 4]
    assert [checks.c3_orbits(d) for d in range(5)] == [1, 1, 2, 4, 5]
    assert checks.class_bidegree("D^-2*b^5*a") == (11, 16)


def _set(path, value):
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("fixture,edit", [
    (RES1, _set(["levels", "2", "dims"], [162, 243, 243, 161])),
    (RES1, _set(["levels", "2", "homology", "pos0"], [1])),
    (RES1, _set(["levels", "2", "homology", "coker_aug"], [1])),
    (RES1, _set(["levels", "2", "composites_zero", "b1_b2"], False)),
    (RES1, _set(["levels", "2", "nakayama", "stage2", "nakayama_consistent"], False)),
    (RES1, _set(["levels", "2", "ok"], False)),
    (RES1, _set(["transitions", "composite_zero", "pos2"], False)),
    (RES1, _set(["transitions", "chain_maps_ok"], False)),
    (RES1, _set(["transitions", "levels"], ["2", "1"])),
    (RES1, _set(["levels", "2"], {"construction_refused": "no generator"})),
    (RES2, _set(["levels", "2", "dims"], [162, 243, 242, 162])),
    (RES2, _set(["modulus"], 1)),
])
def test_resolution_rejects(fixture, edit):
    assert res_check(*fixture, edit=edit)


@pytest.mark.parametrize("edit", [
    _set(["raw_dims", "2", 1], 3),                      # H^1 against the Frattini rank
    _set(["raw_dims", "3/2", 0], 2),                    # H^0
    _set(["raw_dims", "1", 3], 5),                      # Kuenneth n+1
    _set(["target", 2], 4),                             # series coefficients
    _set(["through_image_ranks", "3/2", 2], 1),         # decreasing in the level
    _set(["through_image_ranks", "1", 3], 5),           # above the target
    _set(["through_image_ranks", "3/2", 1], 1),         # n = 1 short of the target
    _set(["through_image_ranks", "1", 1], 3),           # both: above, then decreasing
])
def test_sylow_rejects(edit):
    assert sylow_check(edit)


def test_invariants_rejects():
    report = load("invariants-SF-C3.json")
    bad = copy.deepcopy(report)
    bad["rows"][7]["rank"] += 1
    assert checks.check_invariants_sf_c3(bad, 36)
    bad = copy.deepcopy(report)
    del bad["rows"][-1]
    assert checks.check_invariants_sf_c3(bad, 36)


@pytest.mark.parametrize("change", ["rank", "drop", "extra", "move"])
def test_cohomology_rejects(change):
    report = load("cohomology-G24.json")
    cells = report["cells"]
    if change == "rank":
        cells[0]["rank"] = 2
    elif change == "drop":
        del cells[3]
    elif change == "extra":
        cells.append({"s": 2, "t": 0, "rank": 1, "torsion": "elementary", "pattern": 1})
    else:
        cells[0]["t"] += 2
    assert checks.check_cohomology_g24(report, 8, -24, 24)


def test_chart_rejects():
    report = load("chart-G24.json")
    report["cells"][0]["t"] += 24
    assert checks.check_chart_g24(report, (-1, 73))
    report = load("chart-G24.json")
    report["cells"][1]["classes"][0]["name"] = "D*x"
    assert checks.check_chart_g24(report, (-1, 73))


@pytest.mark.parametrize("edit", [
    _set(["vanishing_inputs", "pi25_shifted_48"], 1),
    _set(["vanishing_inputs", "pi26_shifted_48"], 1),
    _set(["vanishing_inputs", "pi27_G24_is_one_class"], [[1, "D*a", 1], [3, "b*a", 1]]),
    _set(["vanishing_inputs", "pi27_G24_is_one_class"], [[2, "b^2", 1]]),
])
def test_tower_rejects(edit):
    report = load("chart-tower.json")
    edit(report)
    assert checks.check_tower(report)
