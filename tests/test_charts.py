import pytest

import charts_oracle as oracle
from stab23 import charts
from stab23.charts import PosClass
from stab23.errors import CheckFailed


def _vanishes(chart, n) -> bool:
    """Stem n of an E-infinity chart is zero: no 0-line rank, no class."""
    return chart.zero_line.get(n, 0) == 0 and not chart.stem_entries(n)


@pytest.fixture(scope="module")
def g24_inf():
    return charts.e_infinity("G24", (-2, 118), s_max=20)


def test_bidegrees_of_named_classes():
    alpha = PosClass(1, 0, 0)
    beta = PosClass(0, 1, 0)
    assert (alpha.s, alpha.t, alpha.stem) == (1, 4, 3)
    assert (beta.s, beta.t, beta.stem) == (2, 12, 10)
    delta4 = PosClass(0, 0, 4)
    assert delta4.t == 24  # Delta


def test_e2_chart_has_expected_cells():
    ch = charts.e2_chart("G24", (-2, 45), s_max=12)
    cells = ch.cells()
    assert ("a", 1) in cells[(1, 4)]
    assert ("b", 1) in cells[(2, 12)]
    assert ch.zero_line[24] >= 1  # Delta on the 0-line
    assert ch.zero_line[2] == 0


def test_e2_chart_empty_window():
    ch = charts.e2_chart("G24", (5, 5), s_max=8)
    assert ch.classes == {} or all(c.stem == 5 for c in ch.classes)


def test_engine_cells_are_counted_outside_the_json():
    # the count survives the differentials but never enters the report
    inside = charts.e_infinity("C6", (-1, 20))
    assert inside.engine_checked > 0
    assert "engine_checked" not in str(inside.to_json())
    # every class of this window has t > 42, outside the engine's reach
    assert charts.e_infinity("C6", (100, 120)).engine_checked == 0
    assert charts.verify_chart("C6", (100, 120))[1] is None
    assert charts.verify_chart("SD16", (-1, 17))[1] is None


def test_names_follow_convention(g24_inf):
    names = {c.name("G24") for c in g24_inf.classes if 0 <= c.k <= 16}
    assert "a" in names and "D*a" in names
    assert any(n.startswith("b^") for n in names)


def test_einfinity_generator_list(g24_inf):
    assert charts.verify_einf_generator_list(g24_inf)


def test_beta5_dies(g24_inf):
    assert PosClass(0, 5, 0) not in g24_inf.classes
    assert PosClass(0, 5, 12) not in g24_inf.classes
    assert PosClass(0, 4, 0) in g24_inf.classes


def test_unit_choice_invariance():
    e2 = charts.e2_chart("G24", (-2, 40), s_max=12)
    base = charts.run_differentials(e2, (1, 1)).cells()
    for signs in ((1, -1), (-1, 1), (-1, -1)):
        assert charts.run_differentials(e2, signs).cells() == base


def test_total_rank_never_increases():
    e2 = charts.e2_chart("C3", (-2, 40), s_max=12)
    einf = charts.run_differentials(e2)
    assert sum(einf.classes.values()) <= sum(e2.classes.values())
    assert all(entry["page"] in (5, 9) for entry in einf.differentials)


@pytest.mark.parametrize("group", ["C3", "C6", "C12", "G12", "G24"])
def test_one_rule_per_differential_is_the_four_congruences(group):
    # a class dies as a target exactly when the source rule holds one
    # shift below it: the same E-infinity classes and differential log as
    # the separate target congruences, under every unit sign
    e2 = charts.e2_chart(group, (-1, 150), s_max=24)
    for signs in ((1, 1), (-1, 1)):
        einf = charts.run_differentials(e2, signs)
        assert (einf.classes, einf.differentials) == oracle.run_differentials(e2, signs)
    assert einf.differentials


def test_homotopy_vanishing_stems(g24_inf):
    assert _vanishes(g24_inf, 25)
    assert _vanishes(g24_inf, 26)
    assert not _vanishes(g24_inf, 27)
    assert g24_inf.stem_entries(27) == [(1, "D*a", 1)]
    assert _vanishes(g24_inf, 1)  # no odd-stem classes here


def test_pi25_vanishes_for_all_groups():
    for g in ("C3", "C6", "C12", "G12", "G24"):
        assert _vanishes(charts.e_infinity(g, (20, 30), s_max=16), 25), g
    for g in ("SD16", "Q8"):
        assert _vanishes(charts.e_infinity(g, (20, 30)), 25), g


def test_pi1_vanishes_for_tame_groups():
    for g in ("SD16", "Q8"):
        assert _vanishes(charts.e_infinity(g, (0, 4)), 1), g


def test_pi26_vanishes_when_minus_one_present():
    for g in ("C6", "C12", "G12", "G24", "SD16", "Q8"):
        assert _vanishes(charts.e_infinity(g, (22, 30), s_max=16), 26), g
    # negative control: C3 does not contain -1 and has pi26 nonzero
    assert not _vanishes(charts.e_infinity("C3", (22, 30), s_max=16), 26)


def test_pi0_matches_invariant_ring_rank():
    for g in ("C3", "C6", "C12", "G12", "G24", "SD16", "Q8"):
        ch = charts.e_infinity(g, (-1, 5), s_max=8)
        assert ch.zero_line[0] == charts.zero_line_rank(g, 0) >= 1


@pytest.mark.parametrize(
    "group,period",
    [("C3", 18), ("C6", 36), ("C12", 36), ("G12", 72), ("G24", 72), ("SD16", 16), ("Q8", 8)],
)
def test_periodicities(group, period):
    # verify_chart asserts the translation by one period on two periods
    assert charts.PERIODS[group] == period
    ok = charts.verify_chart(group, (-1, 2 * period + 2))[1]
    assert ok is (None if group in charts.TAME else True)


@pytest.mark.parametrize("group", charts.THREE_TORSION)
@pytest.mark.parametrize("start", [-1, 40, 100])
def test_periodicity_holds_on_user_windows(group, start):
    # the s_max = 24 truncation keeps each stem's classes up to the same
    # filtration after a translation, so no two-period window fails
    period = charts.PERIODS[group]
    assert charts.verify_chart(group, (start, start + 2 * period - 1))[1] is not False


def test_sd16_chart_concentrated_in_filtration_zero():
    ch = charts.e_infinity("SD16", (-1, 33))
    assert ch.classes == {}
    assert ch.zero_line[16] == 1 and ch.zero_line[4] == 1
    assert ch.zero_line[2] == 0


def test_tower_chart_layers_and_vanishing():
    tc = charts.tower_chart((-4, 30))
    assert tc["layers"] == [
        [{"group": g, "suspension": sh} for (g, sh) in layer] for layer in charts.RESOLUTION_LAYERS
    ]
    assert tc["tower_fibers"][0] == [{"group": "G24", "suspension": 44}]
    assert tc["reduced_tower_fibers"] == [
        [{"group": "G24", "suspension": 45}],
        [{"group": "SD16", "suspension": 38}],
        [{"group": "SD16", "suspension": 7}],
    ]
    v = tc["vanishing_inputs"]
    assert v["pi25_shifted_48"] == 0
    assert v["pi26_shifted_48"] == 0
    assert v["pi27_shifted_48"] == 0  # -21 = 51 mod 72: empty
    assert v["pi27_G24_is_one_class"] == [(1, "D*a", 1)]


def test_chart_json_round_trip(g24_inf):
    js = g24_inf.to_json()
    assert js["schema"] == charts.SCHEMA_VERSION
    assert any(cell["s"] == 1 and cell["t"] == 4 for cell in js["cells"])


def test_annotations_present(g24_inf):
    assert any("permanent cycle" in a for a in g24_inf.annotations)
    assert any("b^3" in a for a in g24_inf.annotations)


def _lose_the_period(c):
    # d9 on a third of the delta-powers it should leave the chart from
    return c.eps == 1 and c.k % 9 == 2


def test_periodicity_rejects_small_window(monkeypatch):
    # a window shorter than two periods is not compared, one of two is
    monkeypatch.setattr(charts, "_d9_kills", _lose_the_period)
    assert charts.verify_chart("C3", (27, 61))[1] is True
    with pytest.raises(CheckFailed, match="not 18-periodic"):
        charts.verify_chart("C3", (27, 62))
