"""Command-line orchestration for the verification suites.

Exit codes: 0 all assertions passed, 1 an exact assertion failed,
2 a resource bound or precision instability aborted the run, or an
input was malformed (a usage error), 3 the run was inconclusive because
nothing could be verified.
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
    """Click callback that parses an option and reports a bad value as a
    usage error (exit 2)."""

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


def _finish(cfg: RunConfig, name: str, payload: dict, lines: list) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    reportio.write_json(cfg.out_dir / f"{name}.json", payload)
    if cfg.fmt in ("text", "svg"):
        reportio.write_text(cfg.out_dir / f"{name}.txt", lines)
    click.echo("\n".join(lines))


def _run(cfg, name, fn):
    """Run one suite; its job returns ok as True, False or None (inconclusive)."""
    try:
        payload, lines, ok = fn()
    except (ResourceBoundExceeded, PrecisionUnstable) as exc:
        click.echo(f"aborted: {exc}", err=True)
        sys.exit(2)
    except (CheckFailed,) as exc:
        click.echo(f"assertion failed: {exc}", err=True)
        sys.exit(1)
    _finish(cfg, name, payload, lines)
    if ok is None:
        click.echo(f"INCONCLUSIVE: {name} verified nothing", err=True)
        sys.exit(3)
    if not ok:
        click.echo(f"FAILED: {name}", err=True)
        sys.exit(1)


@click.group()
@click.option("--precision", default=8, show_default=True, type=click.IntRange(min=1),
              help="3-adic precision N")
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
    def job():
        checks = stab.g2_relations_check(cfg.precision)
        orders = {
            name: len(stab.named_subgroup(name, cfg.precision))
            for name in ("G12", "G24", "SD16", "Q8", "C3")
        }
        ok = all(checks.values()) and all(
            orders[k] == stab.SUBGROUP_ORDERS[k] for k in orders
        )
        lines = [f"relations at N={cfg.precision}:"]
        lines += [f"  {'PASS' if v else 'FAIL'}  {k}" for k, v in checks.items()]
        lines += [f"  order {k} = {v}" for k, v in sorted(orders.items())]
        return {"relations": checks, "subgroup_orders": orders}, lines, ok

    _run(cfg, "group-verify-relations", job)


@group.command("subgroup")
@click.argument("name", metavar="NAME", type=click.Choice(list(stab.SUBGROUP_ORDERS)))
@click.pass_obj
def group_subgroup(cfg: RunConfig, name):
    def job():
        elems = stab.named_subgroup(name, cfg.precision)
        listing = [
            {
                "a": g.a.encode(),
                "b": g.b.encode(),
                "galois": g.galois,
                "det_split": stab.reduced_det(g),
            }
            for g in elems
        ]
        ok = len(elems) == stab.SUBGROUP_ORDERS[name] and all(
            e["det_split"][1] == 1 for e in listing
        )
        lines = [f"subgroup {name}: {len(elems)} elements"] + [
            f"  {e['a']} + ({e['b']})*S phi^{e['galois']}" for e in listing
        ]
        payload = {"name": name, "order": len(elems), "elements": listing}
        return payload, lines, ok

    _run(cfg, f"group-subgroup-{name}", job)


@group.command("quotient")
@click.option("--level", default="2", show_default=True, callback=_parsed(parse_level),
              help="quotient level (half-integer)")
@click.pass_obj
def group_quotient(cfg: RunConfig, level):
    _check_precision(cfg, [level])

    def job():
        fq = quotients.finite_quotient(level, cfg.precision)
        payload = fq.json_summary()
        expected = {"G24": 24, "SD16": 16, "C3": 3, "G12": 12, "Q8": 8}
        ok = all(
            payload["subgroup_image_orders"][k] == v
            for k, v in expected.items()
            if level >= 1
        )
        lines = [
            f"quotient level {level}: order {payload['order']}",
            f"  sylow part {payload['sylow_order']}, K part {payload['k_order']}",
            "  subgroup image orders: "
            + ", ".join(f"{k}={v}" for k, v in sorted(payload["subgroup_image_orders"].items())),
        ]
        return payload, lines, ok

    _run(cfg, f"group-quotient-{level.numerator}-{level.denominator}", job)


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

    def job():
        rows = []
        ok = True
        if ring == "tame":
            for t in range(-max_degree, max_degree + 1, 2):
                got = inv.tame_fixed_rank(group_name, t, u1_window=10, precision=5)
                want = inv.predicted_tame_rank(group_name, t, 10)
                ok = ok and got == want
                rows.append({"degree": t, "rank": got, "predicted": want})
        elif ring == "SrhoLoc":
            from .cohomology import GradedModel

            model = GradedModel("SrhoLoc", 4)
            for t in range(-max_degree, max_degree + 1, 2):
                got = inv.localized_fixed_rank(group_name, t, precision=4)
                row = {"degree": t, "rank": got, "rank_over": "Z3"}
                if group_name == "C3":
                    # numerator window: W-rank matches the presentation count
                    r = model.denominator(t)
                    row["hilbert"] = 2 * inv.hilbert_srho_c3(6 * r - t)
                    ok = ok and row["hilbert"] == got
                rows.append(row)
        else:
            for t in range(0, -max_degree - 1, -2):
                b = inv.invariant_basis(group_name, t, ring=ring, precision=6)
                row = {"degree": t, "rank": b.rank, "rank_over": b.rank_over}
                if group_name == "C3" and ring == "Srho":
                    row["hilbert"] = inv.hilbert_srho_c3(-t)
                    ok = ok and row["hilbert"] == b.rank
                if group_name == "C3" and ring == "SF":
                    row["burnside"] = inv.burnside_c3_rank_sf(-t // 2)
                    ok = ok and row["burnside"] == b.rank
                row["basis"] = [p.render() for p in b.basis[:4]]
                rows.append(row)
        lines = [f"invariants ring={ring} group={group_name}"] + [
            f"  t={r['degree']:>4}  rank {r['rank']}"
            + (f" (predicted {r['predicted']})" if "predicted" in r else "")
            for r in rows
        ] + [f"comparison: {'PASS' if ok else 'FAIL'}"]
        return {"ring": ring, "group": group_name, "rows": rows}, lines, ok

    _run(cfg, f"invariants-{ring}-{group_name}", job)


@main.command()
@click.option("--group", "group_name", default="G24", type=click.Choice(list(coh.VARIANT_OPS)))
@click.option("--smax", default=8, show_default=True)
@click.option("--tmin", default=-24, show_default=True)
@click.option("--tmax", default=24, show_default=True)
@click.pass_obj
def cohomology(cfg: RunConfig, group_name, smax, tmin, tmax):
    """Cohomology tables against the transfer-cokernel patterns."""

    def job():
        ok = True
        cells = []
        if group_name == "C3":
            table = coh.C3Table("SrhoLoc", 4)
            get = table.h_dim
        else:
            vt = coh.VariantTable(group_name, "SrhoLoc", 4)
            get = lambda s, t: vt.h_dim(s, t)  # noqa: E731
        for s in range(1, smax + 1):
            for t in range(tmin, tmax + 1, 2):
                got = get(s, t)
                want = coh.pattern_dim(group_name, s, t)
                ok = ok and got == want
                if got or want:
                    cells.append({"s": s, "t": t, "rank": got, "torsion": "elementary", "pattern": want})
        named = {
            "a": [1, -2], "b": [2, 0], "d": [0, -6],
            "alpha": [1, 4], "beta": [2, 12], "Delta": [0, 24], "delta": [0, 6],
        }
        lines = [
            f"cohomology {group_name}: {len(cells)} nonzero cells, "
            f"pattern match {'PASS' if ok else 'FAIL'}"
        ]
        # text chart: filtration vertical, stem horizontal
        by_stem = {}
        for c in cells:
            by_stem[(c["s"], c["t"] - c["s"])] = c["rank"]
        for s in range(smax, 0, -1):
            row = [f"s={s:>2} |"]
            for n in range(tmin - smax, tmax + 1):
                v = by_stem.get((s, n), 0)
                row.append(str(v) if 0 < v < 10 else ".")
            lines.append(" ".join(row))
        payload = {
            "group": group_name,
            "window": {"smax": smax, "tmin": tmin, "tmax": tmax},
            "cells": cells,
            "named_classes": named,
        }
        return payload, lines, ok

    _run(cfg, f"cohomology-{group_name}", job)


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

    def job():
        payload, ok = res_mod.verify_tower(levels, modulus, cfg.precision)
        return payload, reportio.render_resolution_text(payload, ok), ok

    _run(cfg, "resolution", job)


@main.command()
@click.option("--group", "group_name", default=None,
              type=click.Choice(charts_mod.THREE_TORSION + charts_mod.TAME))
@click.option("--tower", is_flag=True)
@click.option("--stems", default="-1..73", show_default=True, callback=_parsed(parse_stems))
@click.pass_obj
def chart(cfg: RunConfig, group_name, tower, stems):
    """Spectral-sequence charts: E2 to E-infinity, or the tower layers."""

    def tower_job():
        tc = charts_mod.tower_chart(stems)
        ok = (
            tc.vanishing_inputs["pi25_shifted_48"] == 0
            and tc.vanishing_inputs["pi26_shifted_48"] == 0
            and len(tc.vanishing_inputs["pi27_G24_is_one_class"]) == 1
        )
        lines = [f"tower chart, stems {stems[0]}..{stems[1]}"]
        for i, layer in enumerate(tc.layers):
            desc = " + ".join(f"S^{sh} E^h{g}" for g, sh in layer)
            lines.append(f"  resolution layer {i}: {desc}")
        lines.append(f"  vanishing inputs: {tc.vanishing_inputs}")
        lines.append("PASS" if ok else "FAIL")
        return tc.to_json(), lines, ok

    def chart_job():
        ch = charts_mod.e_infinity(group_name, stems)
        ok = True
        if group_name == "G24" and stems[0] <= -1 and stems[1] >= 113:
            ok = charts_mod.verify_einf_generator_list(ch)
        lines = reportio.render_chart_text(ch)
        payload = ch.to_json()
        if cfg.fmt == "svg":
            (cfg.out_dir / f"chart-{group_name}.svg").parent.mkdir(
                parents=True, exist_ok=True
            )
            (cfg.out_dir / f"chart-{group_name}.svg").write_text(
                reportio.render_chart_svg(ch)
            )
        return payload, lines, ok

    if tower:
        _run(cfg, "chart-tower", tower_job)
    else:
        if not group_name:
            raise click.UsageError("need --group or --tower")
        _run(cfg, f"chart-{group_name}", chart_job)


@main.command("sylow-cohomology")
@click.option("--levels", default="1,3/2,2", show_default=True, callback=_parsed(parse_levels))
@click.option("--nmax", default=4, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def sylow_cohomology(cfg: RunConfig, levels, nmax):
    """dim H^n of the 3-Sylow quotients, with inflation tracking; exit codes as
    for ``resolution``, and one level is INCONCLUSIVE (exit 3)."""
    _check_precision(cfg, levels)

    def job():
        payload, ok = minres.verify_inflation(levels, nmax, cfg.precision)
        return payload, reportio.render_sylow_text(payload, ok), ok

    _run(cfg, "sylow-cohomology", job)


if __name__ == "__main__":
    main()
