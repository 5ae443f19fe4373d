"""Command-line parsing and dispatch for the verification suites.

Every verdict is decided in the library; each command checks its
arguments and hands one library verdict to ``_run``.

Exit codes: 0 all assertions passed, 1 an exact assertion failed,
2 a resource bound (memory included) or precision instability aborted
the run, or an input was malformed (a usage error), 3 the run was
inconclusive because nothing could be verified.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import click

from . import charts as charts_mod
from . import cohomology as coh
from . import invariants as inv
from . import minres
from . import quotients
from . import reportio
from . import resolution as res_mod
from . import stabilizer as stab
from .config import RunConfig, parse_level, parse_levels, parse_stems
from .errors import CheckFailed, PrecisionUnstable, ResourceBoundExceeded


def _parsed(parse):
    """Click callback: a value the parser rejects is a usage error (exit 2)."""

    def callback(ctx, param, value):
        try:
            return parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from exc

    return callback


def _check_precision(cfg: RunConfig, levels) -> None:
    """A quotient at level l needs 3-adic precision at least l + 2."""
    if Fraction(cfg.precision) < max(levels) + 2:
        raise click.UsageError("need precision >= level + 2")


def _run(cfg: RunConfig, name: str, verify, render, svg=None) -> None:
    """Run one suite: ``verify()`` returns (report, ok) with ok True, False or
    None (inconclusive), ``render(report, ok)`` its text lines; a report
    that is not a dict is written by its ``to_json``, and ``svg`` renders
    it under ``--format svg``."""
    try:
        report, ok = verify()
    except (ResourceBoundExceeded, PrecisionUnstable, MemoryError) as exc:
        click.echo(f"aborted: {str(exc) or 'out of memory'}", err=True)
        sys.exit(2)
    except CheckFailed as exc:
        click.echo(f"assertion failed: {exc}", err=True)
        sys.exit(1)
    lines = render(report, ok)
    payload = report if isinstance(report, dict) else report.to_json()
    reportio.write_json(cfg.out_dir / f"{name}.json", payload)
    if cfg.fmt in ("text", "svg"):
        reportio.write_text(cfg.out_dir / f"{name}.txt", lines)
    if svg is not None and cfg.fmt == "svg":
        (cfg.out_dir / f"{name}.svg").write_text(svg(report))
    click.echo("\n".join(lines))
    if ok is None:
        click.echo(f"INCONCLUSIVE: {name} verified nothing", err=True)
        sys.exit(3)
    if not ok:
        click.echo(f"FAILED: {name}", err=True)
        sys.exit(1)


@click.group()
@click.option("--precision", default=8, show_default=True, type=click.IntRange(min=1),
              help="3-adic precision N of group, resolution and sylow-cohomology; "
                   "invariants, cohomology and chart run at fixed precisions")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["json", "text", "svg"]))
@click.option("--out", "out_dir", default="out", show_default=True)
@click.pass_context
def main(ctx, precision, fmt, out_dir):
    """Exact verification suites for the height-2, p=3 stabilizer algebra."""
    ctx.obj = RunConfig(precision=precision, out_dir=Path(out_dir), fmt=fmt)


@main.group()
def group():
    """Stabilizer group arithmetic suites."""


@group.command("verify-relations")
@click.pass_obj
def group_verify_relations(cfg: RunConfig):
    _run(cfg, "group-verify-relations", lambda: stab.verify_relations(cfg.precision),
         lambda report, ok: reportio.render_relations_text(report, ok, cfg.precision))


@group.command("subgroup")
@click.argument("name", metavar="NAME", type=click.Choice(list(stab.SUBGROUP_ORDERS)))
@click.pass_obj
def group_subgroup(cfg: RunConfig, name):
    _run(cfg, f"group-subgroup-{name}", lambda: stab.verify_subgroup(name, cfg.precision),
         reportio.render_subgroup_text)


@group.command("quotient")
@click.option("--level", default="2", show_default=True, callback=_parsed(parse_level),
              help="quotient level (half-integer); below 1 nothing is compared (exit 3)")
@click.pass_obj
def group_quotient(cfg: RunConfig, level):
    _check_precision(cfg, [level])
    _run(cfg, f"group-quotient-{level.numerator}-{level.denominator}",
         lambda: quotients.verify_quotient(level, cfg.precision), reportio.render_quotient_text)


@main.command()
@click.option("--ring", default="Srho", type=click.Choice(["SF", "Srho", "SrhoLoc", "tame"]))
@click.option("--group", "group_name", default="C3")
@click.option("--max-degree", default=48, show_default=True, type=click.IntRange(min=0))
@click.pass_obj
def invariants(cfg: RunConfig, ring, group_name, max_degree):
    """Invariant rings of the graded models, with Hilbert comparisons."""
    groups = inv.groups_for_ring(ring)
    if group_name not in groups:
        raise click.BadParameter(
            f"{group_name!r} is not one of {', '.join(groups)} for --ring {ring}",
            param_hint="'--group'",
        )
    _run(cfg, f"invariants-{ring}-{group_name}",
         lambda: inv.verify_invariants(ring, group_name, max_degree), reportio.render_invariants_text)


@main.command()
@click.option("--group", "group_name", default="G24", type=click.Choice(list(coh.VARIANT_OPS)))
@click.option("--smax", default=8, show_default=True, type=click.IntRange(min=1))
@click.option("--tmin", default=-24, show_default=True)
@click.option("--tmax", default=24, show_default=True)
@click.pass_obj
def cohomology(cfg: RunConfig, group_name, smax, tmin, tmax):
    """Cohomology tables against the transfer-cokernel patterns."""
    if tmin > tmax:
        raise click.BadParameter(f"{tmin} is above --tmax {tmax}", param_hint="'--tmin'")
    _run(cfg, f"cohomology-{group_name}",
         lambda: coh.verify_pattern(group_name, smax, tmin, tmax), reportio.render_cohomology_text)


@main.command()
@click.option("--levels", default="5/2,2,3/2", show_default=True, callback=_parsed(parse_levels))
@click.option("--mod", "modulus", default=1, show_default=True, help="modulus exponent m")
@click.pass_obj
def resolution(cfg: RunConfig, levels, modulus):
    """Finite-level resolution: construction, Nakayama, pro-triviality.

    Exit codes: 0 pass, 1 an exact assertion failed, 2 a resource or
    precision abort, 3 INCONCLUSIVE: no level could be constructed, so
    nothing was verified.
    """
    if modulus < 1:
        raise click.UsageError("modulus exponent must be >= 1")
    _check_precision(cfg, levels)
    _run(cfg, "resolution", lambda: res_mod.verify_tower(levels, modulus, cfg.precision),
         reportio.render_resolution_text)


@main.command()
@click.option("--group", "group_name", default=None,
              type=click.Choice(charts_mod.THREE_TORSION + charts_mod.TAME))
@click.option("--tower", is_flag=True)
@click.option("--stems", default="-1..73", show_default=True, callback=_parsed(parse_stems))
@click.pass_obj
def chart(cfg: RunConfig, group_name, tower, stems):
    """Spectral-sequence charts: E2 to E-infinity, or the tower layers."""
    if tower and group_name:
        raise click.BadParameter("the tower chart takes no group", param_hint="'--group'")
    if tower:
        _run(cfg, "chart-tower", lambda: charts_mod.verify_tower(stems), reportio.render_tower_text)
    elif not group_name:
        raise click.UsageError("need --group or --tower")
    else:
        _run(cfg, f"chart-{group_name}", lambda: charts_mod.verify_chart(group_name, stems),
             reportio.render_chart_text, reportio.render_chart_svg)


@main.command("sylow-cohomology")
@click.option("--levels", default="1,3/2,2", show_default=True, callback=_parsed(parse_levels))
@click.option("--nmax", default=4, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def sylow_cohomology(cfg: RunConfig, levels, nmax):
    """dim H^n of the 3-Sylow quotients, with inflation tracking; exit codes as
    for ``resolution``, and one level is INCONCLUSIVE (exit 3)."""
    _check_precision(cfg, levels)
    _run(cfg, "sylow-cohomology", lambda: minres.verify_inflation(levels, nmax, cfg.precision),
         reportio.render_sylow_text)


if __name__ == "__main__":
    main()
