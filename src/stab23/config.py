"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


def parse_level(text) -> Fraction:
    try:
        lv = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        lv = None
    if lv is None or lv.denominator not in (1, 2) or lv < Fraction(1, 2):
        raise ValueError(f"level must be a half-integer >= 1/2: {text}")
    return lv


def parse_levels(text: str) -> list:
    """Comma-separated distinct levels, e.g. ``2,3/2,1``."""
    levels = [parse_level(x) for x in str(text).split(",")]
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct: {text}")
    return levels


def parse_stems(text: str) -> tuple:
    lo, sep, hi = str(text).partition("..")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"stems must read LO..HI with integer ends: {text}") from None
    if hi < lo:
        raise ValueError("empty stem window")
    return lo, hi


@dataclass
class RunConfig:
    """The global options; each other option lives on the one command that
    reads it.  ``precision`` is read by the group suites, resolution and
    sylow-cohomology only: invariants, cohomology and chart run at fixed
    precisions, whatever it is."""

    precision: int = 8
    out_dir: Path = field(default_factory=lambda: Path("out"))
    fmt: str = "json"
