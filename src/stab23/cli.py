"""Command-line orchestration for the verification suites.

Exit codes: 0 all assertions passed, 1 an exact assertion failed,
2 a resource bound or precision instability aborted the run, or an
input was malformed (a usage error), 3 the run was inconclusive because
nothing could be verified.
"""

from __future__ import annotations

import sys

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
from .errors import CheckFailed, ConstructionRefused, PrecisionUnstable, ResourceBoundExceeded


def _parsed(parse):
    """Click callback that parses an option and reports a bad value as a
    usage error (exit 2)."""

    def callback(ctx, param, value):
        if value is None:
            return None
        try:
            return parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from exc

    return callback


def _validate(cfg: RunConfig) -> None:
    try:
        cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


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
@click.option("--precision", default=8, show_default=True, help="3-adic precision N")
@click.option("--mod", "modulus", default=1, show_default=True, help="modulus exponent m")
@click.option("--level", default="2", show_default=True, callback=_parsed(parse_level),
              help="quotient level (half-integer)")
@click.option("--max-degree", default=48, show_default=True)
@click.option("--stems", default="-1..73", show_default=True, callback=_parsed(parse_stems))
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["json", "text", "svg"]))
@click.option("--out", "out_dir", default="out", show_default=True)
@click.pass_context
def main(ctx, precision, modulus, level, max_degree, stems, fmt, out_dir):
    """Exact verification suites for the height-2, p=3 stabilizer algebra."""
    cfg = RunConfig(
        precision=precision,
        modulus=modulus,
        level=level,
        max_degree=max_degree,
        stems=stems,
        out_dir=Path(out_dir),
        fmt=fmt,
    )
    _validate(cfg)
    ctx.obj = cfg


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
@click.option("--level", default=None, callback=_parsed(parse_level))
@click.option("--mod", "modulus", default=None, type=int)
@click.pass_obj
def group_quotient(cfg: RunConfig, level, modulus):
    if level is not None:
        cfg.level = level
    if modulus is not None:
        cfg.modulus = modulus
    _validate(cfg)

    def job():
        fq = quotients.finite_quotient(cfg.level, cfg.precision)
        payload = fq.json_summary()
        expected = {"G24": 24, "SD16": 16, "C3": 3, "G12": 12, "Q8": 8}
        ok = all(
            payload["subgroup_image_orders"][k] == v
            for k, v in expected.items()
            if cfg.level >= 1
        )
        lines = [
            f"quotient level {cfg.level}: order {payload['order']}",
            f"  sylow part {payload['sylow_order']}, K part {payload['k_order']}",
            "  subgroup image orders: "
            + ", ".join(f"{k}={v}" for k, v in sorted(payload["subgroup_image_orders"].items())),
        ]
        return payload, lines, ok

    _run(cfg, f"group-quotient-{cfg.level.numerator}-{cfg.level.denominator}", job)


@main.command()
@click.option("--ring", default="Srho", type=click.Choice(["SF", "Srho", "SrhoLoc", "tame"]))
@click.option("--group", "group_name", default="C3")
@click.option("--max-degree", default=None, type=int)
@click.pass_obj
def invariants(cfg: RunConfig, ring, group_name, max_degree):
    """Invariant rings of the graded models, with Hilbert comparisons."""
    groups = inv.groups_for_ring(ring)
    if group_name not in groups:
        raise click.BadParameter(
            f"{group_name!r} is not one of {', '.join(groups)} for --ring {ring}",
            param_hint="'--group'",
        )
    if max_degree is not None:
        cfg.max_degree = max_degree

    def job():
        rows = []
        ok = True
        if ring == "tame":
            for t in range(-cfg.max_degree, cfg.max_degree + 1, 2):
                got = inv.tame_fixed_rank(group_name, t, u1_window=10, precision=5)
                want = inv.predicted_tame_rank(group_name, t, 10)
                ok = ok and got == want
                rows.append({"degree": t, "rank": got, "predicted": want})
        elif ring == "SrhoLoc":
            from .cohomology import GradedModel

            model = GradedModel("SrhoLoc", 4)
            for t in range(-cfg.max_degree, cfg.max_degree + 1, 2):
                got = inv.localized_fixed_rank(group_name, t, precision=4)
                row = {"degree": t, "rank": got, "rank_over": "Z3"}
                if group_name == "C3":
                    # numerator window: W-rank matches the presentation count
                    r = model.denominator(t)
                    row["hilbert"] = 2 * inv.hilbert_srho_c3(6 * r - t)
                    ok = ok and row["hilbert"] == got
                rows.append(row)
        else:
            for t in range(0, -cfg.max_degree - 1, -2):
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
@click.option("--mod", "modulus", default=None, type=int)
@click.pass_obj
def resolution(cfg: RunConfig, levels, modulus):
    """Finite-level resolution: construction, Nakayama, pro-triviality.

    Exit codes: 0 pass, 1 an exact assertion failed, 2 a resource or
    precision abort, 3 INCONCLUSIVE: no level could be constructed, so
    nothing was verified.
    """
    if modulus is not None:
        cfg.modulus = modulus
        _validate(cfg)
    lvls = sorted(levels, reverse=True)

    def job():
        per_level = {}
        ok = True
        lds, top_cx = [], None
        for lv in lvls:
            fq = quotients.finite_quotient(lv, cfg.precision)
            ld = res_mod.prepare_level(fq, cfg.modulus)
            lds.append(ld)
            try:
                cx = res_mod.construct_complex(ld)
            except ConstructionRefused as exc:
                # shallow levels can lack the sign-isotypic generator; this
                # is a reported outcome, the level still receives pushforwards
                per_level[str(lv)] = {"construction_refused": str(exc)}
                continue
            hom = res_mod.homology_cells(cx)
            naka = res_mod.splice_nakayama(ld, cx)
            level_ok = (
                all(cx.diagnostics["composites_zero"].values())
                and hom["pos0"] == []
                and hom["coker_aug"] == []
                and naka["stage1"]["ok"]
                and all(v["nakayama_consistent"] for v in naka.values())
            )
            ok = ok and level_ok
            if lv == lvls[0]:
                top_cx = cx
            per_level[str(lv)] = {
                "dims": list(cx.dims),
                "composites_zero": cx.diagnostics["composites_zero"],
                "tor0_dims": cx.diagnostics["tor0_dims"],
                "homology": {k: v for k, v in hom.items()},
                "nakayama": naka,
                "ok": level_ok,
            }
        transitions = None
        top = per_level[str(lvls[0])]
        if len(lvls) >= 2 and "construction_refused" in top:
            # the tower is built at the top level and pushed down, so a
            # refused top level leaves the transitions unchecked: that is
            # INCONCLUSIVE when no level was built, and FAIL otherwise,
            # since the requested tower check did not run
            transitions = {"construction_refused": top["construction_refused"]}
            ok = False
        elif len(lvls) >= 2:
            rep = res_mod.homology_pro_triviality(lds, top_cx)
            spans_full_level = lvls[0] - lvls[-1] >= 1
            transitions = {
                "levels": rep.levels,
                "chain_maps_ok": rep.chain_maps_ok,
                "step_zero": {f"{a}->{b}": v for (a, b), v in rep.step_zero.items()},
                "composite_zero": rep.composite_zero,
                "pro_trivial": rep.pro_trivial,
                "spans_full_level": spans_full_level,
            }
            ok = ok and rep.chain_maps_ok
            if spans_full_level and cfg.modulus == 1:
                # one full congruence step at modulus 3 must kill the
                # interior classes; shorter towers only report the data
                ok = ok and rep.pro_trivial
        lines = [f"resolution at levels {', '.join(str(l) for l in lvls)} mod 3^{cfg.modulus}"]
        for lv, data in per_level.items():
            if "construction_refused" in data:
                lines.append(f"  level {lv}: construction refused ({data['construction_refused']})")
                continue
            lines.append(
                f"  level {lv}: dims {data['dims']}, composites "
                f"{'ok' if all(data['composites_zero'].values()) else 'FAIL'}, "
                f"interior homology {data['homology']['pos1']}/"
                f"{data['homology']['pos2']}/{data['homology']['pos3']}"
            )
        if transitions and "construction_refused" in transitions:
            lines.append("  transitions: not checked, the top level's construction was refused")
        elif transitions:
            lines.append(f"  transitions: per-step {transitions['step_zero']}")
            lines.append(
                f"  pro-trivial (eventually zero in range): {transitions['pro_trivial']}"
            )
        if all("construction_refused" in d for d in per_level.values()):
            ok = None
        lines.append({True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[ok])
        payload = {"levels": per_level, "transitions": transitions, "modulus": cfg.modulus}
        return payload, lines, ok

    _run(cfg, "resolution", job)


@main.command()
@click.option("--group", "group_name", default=None,
              type=click.Choice(charts_mod.THREE_TORSION + charts_mod.TAME))
@click.option("--tower", is_flag=True)
@click.option("--stems", default=None, callback=_parsed(parse_stems))
@click.pass_obj
def chart(cfg: RunConfig, group_name, tower, stems):
    """Spectral-sequence charts: E2 to E-infinity, or the tower layers."""
    if stems is not None:
        cfg.stems = stems
        _validate(cfg)

    def tower_job():
        tc = charts_mod.tower_chart(cfg.stems)
        ok = (
            tc.vanishing_inputs["pi25_shifted_48"] == 0
            and tc.vanishing_inputs["pi26_shifted_48"] == 0
            and len(tc.vanishing_inputs["pi27_G24_is_one_class"]) == 1
        )
        lines = [f"tower chart, stems {cfg.stems[0]}..{cfg.stems[1]}"]
        for i, layer in enumerate(tc.layers):
            desc = " + ".join(f"S^{sh} E^h{g}" for g, sh in layer)
            lines.append(f"  resolution layer {i}: {desc}")
        lines.append(f"  vanishing inputs: {tc.vanishing_inputs}")
        lines.append("PASS" if ok else "FAIL")
        return tc.to_json(), lines, ok

    def chart_job():
        ch = charts_mod.e_infinity(group_name, cfg.stems)
        ok = True
        if group_name == "G24" and cfg.stems[0] <= -1 and cfg.stems[1] >= 113:
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
    lvls = sorted(levels)

    def job():
        fqs = {lv: quotients.finite_quotient(lv, cfg.precision) for lv in lvls}
        resolutions = {
            lv: minres.minimal_resolution(minres.sylow_group(fq), nmax) for lv, fq in fqs.items()
        }
        deepest = lvls[-1]
        target = minres.target_poincare_dims(nmax)
        through_ranks = {}
        for lv in lvls[:-1]:
            proj = minres.sylow_projection(fqs[deepest], fqs[lv])
            mats = minres.inflation_matrices(resolutions[deepest], resolutions[lv], proj, nmax)
            through_ranks[str(lv)] = [1] + [minres.rank_f3(m) for m in mats]
        raw = {str(lv): resolutions[lv].ranks for lv in lvls}
        # colimit monotonicity: through-image ranks are non-decreasing in the
        # level and bounded by (or flagged against) the detected target
        ok = True
        stabilized = {}
        seq = list(through_ranks.values())
        for n in range(nmax + 1):
            col = [v[n] for v in seq]
            ok = ok and all(a <= b for a, b in zip(col, col[1:]))
            hit = [i for i, v in enumerate(col) if v == target[n]]
            stabilized[n] = (
                str(lvls[hit[0]]) if hit and all(col[i] == target[n] for i in range(hit[0], len(col))) else "beyond tested range"
            )
            ok = ok and all(v <= target[n] for v in col)
        lines = [f"sylow cohomology dims, levels {', '.join(map(str, lvls))}"]
        for lv in lvls:
            lines.append(f"  P({lv}) raw dims: {resolutions[lv].ranks}")
        for lv, ranks in through_ranks.items():
            lines.append(f"  stable image ranks {lv} -> {deepest}: {ranks}")
        lines.append(f"  detection target: {target}")
        lines.append(f"  observed stabilization levels: {stabilized}")
        if not through_ranks:
            # one level: no inflation, so no rank was compared with anything
            ok = None
        lines.append({True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[ok])
        payload = {
            "raw_dims": raw,
            "through_image_ranks": through_ranks,
            "target": target,
            "stabilization": {str(k): v for k, v in stabilized.items()},
        }
        return payload, lines, ok

    _run(cfg, "sylow-cohomology", job)

if __name__ == "__main__":
    main()
