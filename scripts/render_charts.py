#!/usr/bin/env python3
"""Render E-infinity charts for every finite subgroup, text and SVG."""

import sys
from pathlib import Path

from stab23 import charts, reportio

WINDOWS = {
    "C3": (-1, 40),
    "C6": (-1, 75),
    "C12": (-1, 75),
    "G12": (-1, 75),
    "G24": (-1, 75),
    "SD16": (-1, 35),
    "Q8": (-1, 19),
}

if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "out/charts")
    out.mkdir(parents=True, exist_ok=True)
    for group, window in WINDOWS.items():
        ch, ok = charts.verify_chart(group, window)
        (out / f"{group}.svg").write_text(reportio.render_chart_svg(ch))
        reportio.write_text(out / f"{group}.txt", reportio.render_chart_text(ch, ok))
        reportio.write_json(out / f"{group}.json", ch.to_json())
        print(f"{group}: {len(ch.classes)} classes, files in {out}")
