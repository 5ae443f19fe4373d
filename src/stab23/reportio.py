"""Deterministic report writers: JSON is the contract, text and SVG render it."""

from __future__ import annotations

import json
from pathlib import Path


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, separators=(",", ": "))
        fh.write("\n")


def write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_VERDICT = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}


def render_relations_text(report: dict, ok, precision: int) -> list:
    """Text lines of a ``stabilizer.verify_relations`` report at precision N."""
    lines = [f"relations at N={precision}:"]
    lines += [f"  {'PASS' if v else 'FAIL'}  {k}" for k, v in report["relations"].items()]
    return lines + [f"  order {k} = {v}" for k, v in sorted(report["subgroup_orders"].items())]


def render_subgroup_text(report: dict, ok) -> list:
    """Text lines of a ``stabilizer.verify_subgroup`` report."""
    return [f"subgroup {report['name']}: {report['order']} elements"] + [
        f"  {e['a']} + ({e['b']})*S phi^{e['galois']}" for e in report["elements"]
    ]


def render_quotient_text(report: dict, ok) -> list:
    """Text lines of a ``quotients.verify_quotient`` report."""
    images = sorted(report["subgroup_image_orders"].items())
    return [
        f"quotient level {report['level']}: order {report['order']}",
        f"  sylow part {report['sylow_order']}, K part {report['k_order']}",
        "  subgroup image orders: " + ", ".join(f"{k}={v}" for k, v in images),
    ]


def render_invariants_text(report: dict, ok) -> list:
    """Text lines of an ``invariants.verify_invariants`` report."""
    lines = [f"invariants ring={report['ring']} group={report['group']}"]
    lines += [
        f"  t={r['degree']:>4}  rank {r['rank']}"
        + (f" (predicted {r['predicted']})" if "predicted" in r else "")
        for r in report["rows"]
    ]
    return lines + [f"comparison: {_VERDICT[ok]}"]


def render_cohomology_text(report: dict, ok) -> list:
    """Text lines of a ``cohomology.verify_pattern`` report: the verdict,
    then a chart with filtration vertical and stem horizontal."""
    win, cells = report["window"], report["cells"]
    lines = [
        f"cohomology {report['group']}: {len(cells)} nonzero cells, "
        f"pattern match {_VERDICT[ok]}"
    ]
    by_stem = {(c["s"], c["t"] - c["s"]): c["rank"] for c in cells}
    for s in range(win["smax"], 0, -1):
        row = [f"s={s:>2} |"]
        for n in range(win["tmin"] - win["smax"], win["tmax"] + 1):
            v = by_stem.get((s, n), 0)
            row.append(str(v) if 0 < v < 10 else ".")
        lines.append(" ".join(row))
    return lines


def render_tower_text(report: dict, ok) -> list:
    """Text lines of a ``charts.verify_tower`` report."""
    lo, hi = report["stems"]
    lines = [f"tower chart, stems {lo}..{hi}"]
    for i, layer in enumerate(report["layers"]):
        desc = " + ".join(f"S^{x['suspension']} E^h{x['group']}" for x in layer)
        lines.append(f"  resolution layer {i}: {desc}")
    lines.append(f"  vanishing inputs: {report['vanishing_inputs']}")
    return lines + [_VERDICT[ok]]


def render_resolution_text(report: dict, ok) -> list:
    """Text lines of a ``resolution.verify_tower`` report."""
    lines = [f"resolution at levels {', '.join(report['levels'])} mod 3^{report['modulus']}"]
    for lv, data in report["levels"].items():
        if "construction_refused" in data:
            lines.append(f"  level {lv}: construction refused ({data['construction_refused']})")
            continue
        hom = data["homology"]
        lines.append(
            f"  level {lv}: dims {data['dims']}, composites "
            f"{'ok' if all(data['composites_zero'].values()) else 'FAIL'}, "
            f"interior homology {hom['pos1']}/{hom['pos2']}/{hom['pos3']}"
        )
    transitions = report["transitions"]
    if transitions and "construction_refused" in transitions:
        lines.append("  transitions: not checked, the top level's construction was refused")
    elif transitions:
        lines.append(f"  transitions: per-step {transitions['step_zero']}")
        lines.append(f"  pro-trivial (eventually zero in range): {transitions['pro_trivial']}")
    return lines + [_VERDICT[ok]]


def render_sylow_text(report: dict, ok) -> list:
    """Text lines of a ``minres.verify_inflation`` report."""
    levels = list(report["raw_dims"])
    lines = [f"sylow cohomology dims, levels {', '.join(levels)}"]
    lines += [f"  P({lv}) raw dims: {dims}" for lv, dims in report["raw_dims"].items()]
    lines += [
        f"  stable image ranks {lv} -> {levels[-1]}: {ranks}"
        for lv, ranks in report["through_image_ranks"].items()
    ]
    lines.append(f"  detection target: {report['target']}")
    stabilized = {int(n): lv for n, lv in report["stabilization"].items()}
    lines.append(f"  observed stabilization levels: {stabilized}")
    return lines + [_VERDICT[ok]]


def render_chart_text(chart, ok) -> list:
    """Plain-text chart: filtration vertical, stem horizontal, and a
    verdict line when ``ok`` is not True (INCONCLUSIVE or FAIL)."""
    cells = chart.cells()
    if not cells:
        smax = 0
    else:
        smax = max(s for (s, _) in cells)
    lo, hi = chart.stem_range
    lines = [f"group {chart.group}  page {chart.page}  stems {lo}..{hi}"]
    counts = {}
    for (s, t), classes in cells.items():
        n = t - s
        if lo <= n <= hi:
            counts[(s, n)] = sum(d for _, d in classes)
    for s in range(min(smax, 12), -1, -1):
        row = [f"s={s:>2} |"]
        for n in range(lo, hi + 1):
            if s == 0:
                r = chart.zero_line.get(n, 0)
                row.append("o" if r else ".")
            else:
                c = counts.get((s, n), 0)
                row.append(str(c) if 0 < c < 10 else ("." if c == 0 else "#"))
        lines.append(" ".join(row))
    axis = ["      |"] + [("|" if n % 10 == 0 else " ") for n in range(lo, hi + 1)]
    lines.append(" ".join(axis))
    return lines if ok is True else lines + [f"verdict: {_VERDICT[ok]}"]


def render_chart_svg(chart) -> str:
    cells = chart.cells()
    lo, hi = chart.stem_range
    smax = max([s for (s, _) in cells] + [4])
    w, h, pad, step = (hi - lo + 2) * 14, (min(smax, 14) + 2) * 14, 20, 14
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 2 * pad}" '
        f'height="{h + 2 * pad}" font-size="8">',
        f'<text x="{pad}" y="12">{chart.group} page {chart.page} '
        f"stems {lo}..{hi}</text>",
    ]
    for (s, t), classes in sorted(cells.items()):
        n = t - s
        if not (lo <= n <= hi) or s > 14:
            continue
        x = pad + (n - lo) * step
        y = pad + h - (s + 1) * step
        dim = sum(d for _, d in classes)
        parts.append(f'<circle cx="{x}" cy="{y}" r="{2 + dim}" fill="black"/>')
        parts.append(
            f'<text x="{x + 4}" y="{y - 3}">{classes[0][0]}</text>'
        )
    for n in range(lo, hi + 1):
        if chart.zero_line.get(n, 0):
            x = pad + (n - lo) * step
            y = pad + h - step
            parts.append(f'<rect x="{x - 2}" y="{y - 2}" width="4" height="4"/>')
        if n % 10 == 0:
            parts.append(
                f'<text x="{pad + (n - lo) * step}" y="{pad + h + 12}">{n}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
