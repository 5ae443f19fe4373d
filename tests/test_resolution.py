import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import linalg_oracle as oracle
from stab23 import linalg
from stab23 import quotients as q
from stab23 import resolution as res
from stab23.errors import CheckFailed

N = 8


@pytest.fixture(scope="module")
def lvl2():
    fq = q.finite_quotient(2, N)
    ld = res.prepare_level(fq, 1)
    cx = res.construct_complex(ld)
    return fq, ld, cx


def test_chi_summand(lvl2):
    fq, ld, cx = lvl2
    rep = cx.diagnostics["chi_summand"]
    assert rep["idempotent"]
    assert rep["rank"] == fq.order // 16 == rep["rank_expected"]
    assert rep["chi_plus_tau_full"]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", [1, Fraction(3, 2), 2])
def test_chi_summand_matches_the_dense_oracle(level, m):
    # the table check against (1 - sigma)/2 gives the report the Howell
    # forms of the dense idempotent give
    ld = res.prepare_level(q.finite_quotient(level, N), m)
    got = res.verify_chi_summand(ld)
    assert got == oracle.verify_chi_summand_dense(ld)
    assert got["ok"] and got["rank"] == ld.fq.order // 16


@pytest.mark.parametrize("m", [1, 2])
def test_dense_chi_idempotent_is_one_minus_sigma_over_two(lvl2, m):
    fq, _, _ = lvl2
    ld = res.prepare_level(fq, m)
    n = ld.chi.cosets.size
    sigma = np.zeros((n, n), dtype=np.int64)
    sigma[ld.chi.sigma, np.arange(n)] = 1
    half = pow(2, -1, ld.M)
    want = half * (np.eye(n, dtype=np.int64) - sigma) % ld.M
    assert np.array_equal(oracle.chi_idempotent(ld), want)


@pytest.mark.parametrize("sign", [1, -1])
def test_chi_summand_fails_on_a_corrupted_translation_table(lvl2, monkeypatch, sign):
    # one column of the SD16 right-translation table, on Q8 or off it,
    # moved by one coset: the check fails, and the construction stops
    fq, _, _ = lvl2
    ld = res.prepare_level(fq, 1)
    k = int(np.flatnonzero(ld.sd16_sign == sign)[0])
    real = res._sd16_right

    def corrupted(ld):
        right = real(ld).copy()
        right[:, k] = np.roll(right[:, k], 1)
        return right

    monkeypatch.setattr(res, "_sd16_right", corrupted)
    rep = res.verify_chi_summand(ld)
    assert not rep["ok"] and not rep["idempotent"] and not rep["chi_plus_tau_full"]
    with pytest.raises(CheckFailed):
        res.construct_complex(ld)


def test_chi_summand_at_level_three(monkeypatch):
    # n = 13,122 Q8-cosets: the dense idempotent would be 13,122^2, and
    # the table check runs no elimination
    ld = res.prepare_level(q.finite_quotient(3, N), 1)

    def refused(*args, **kwargs):
        raise AssertionError("the chi check eliminated a matrix")

    for name in ("howell", "image", "free_rank", "span_log_size", "kernel"):
        monkeypatch.setattr(linalg, name, refused)
    rep = res.verify_chi_summand(ld)
    assert rep["ok"] and rep["rank"] == rep["rank_expected"] == 6561


def test_complex_keeps_its_kernels_and_images_read_only(lvl2):
    fq, ld, cx = lvl2
    for name in ("aug", "b1", "b2", "b3"):
        Z, H = cx.kernel(name), cx.image(name)
        assert cx.kernel(name) is Z and cx.image(name) is H
        # the kernel is the Howell form's rows, which span linalg.kernel's
        A = getattr(cx, name)
        assert np.array_equal(Z, linalg.kernel_and_image(A, cx.m)[0].rows)
        assert np.array_equal(Z, linalg.howell(linalg.kernel(A, cx.m), cx.m).rows)
        assert np.array_equal(H.rows, linalg.image(getattr(cx, name), cx.m).rows)
        for a in (Z, H.rows, getattr(cx, name)):
            with pytest.raises(ValueError):
                a[...] = 0


def test_complex_at_m2_reads_kernel_and_image_off_one_elimination(lvl2, monkeypatch):
    # at m >= 2 one Howell form of [A^T | I] gives the kernel, its Howell
    # form and the image of each boundary; the construction keeps those of
    # aug, b1 and b2, b3 is eliminated on first use, and homology_cells
    # eliminates no kernel again
    fq, _, _ = lvl2
    ld = res.prepare_level(fq, 2)
    calls = []
    real = linalg.howell

    def recorded(rows, m, *dtype):
        if m > 1:
            calls.append(np.asarray(rows) % 3**m)
        return real(rows, m, *dtype)

    monkeypatch.setattr(linalg, "howell", recorded)
    cx = res.construct_complex(ld)
    built = len(calls)
    for name in ("aug", "b1", "b2", "b3"):
        A = getattr(cx, name)
        Z, HK, H = cx.kernel(name), cx.kernel_form(name), cx.image(name)
        assert HK.rows is Z and cx.image(name) is H
        assert np.array_equal(H.rows, oracle.howell_unblocked(A.T, 2).rows)
        b, a = A.shape
        aug = oracle.howell_unblocked(np.hstack([A.T, np.eye(a, dtype=np.int64)]), 2)
        assert np.array_equal(Z, np.array([r[b:] for r in aug.rows if not r[:b].any()]))
        for rows in (Z, H.rows):
            with pytest.raises(ValueError):
                rows[...] = 0
    assert len(calls) == built + 1
    res.homology_cells(cx)
    kernels = [cx.kernel(name) for name in ("aug", "b1", "b2", "b3")]
    assert not any(c.shape == Z.shape and np.array_equal(c, Z) for c in calls for Z in kernels)


def test_level_three_halves_is_too_shallow():
    # the stage-2 coinvariants carry no sign-isotypic class at level 3/2;
    # the construction must refuse with a clear error rather than fake a map
    from stab23.errors import CheckFailed

    fq = q.finite_quotient(Fraction(3, 2), N)
    with pytest.raises(CheckFailed):
        res.construct_complex(res.prepare_level(fq, 1))


def test_term_dimensions(lvl2):
    fq, ld, cx = lvl2
    g = fq.order
    assert cx.dims == (g // 24, g // 16, g // 16, g // 24)


def test_composites_zero_independent_check(lvl2):
    # the boundaries are int8, and an int8 product wraps: multiply in int64
    fq, ld, cx = lvl2
    M = 3**cx.m
    aug, b1, b2, b3 = (a.astype(np.int64) for a in (cx.aug, cx.b1, cx.b2, cx.b3))
    assert not ((aug @ b1) % M).any()
    assert not ((b1 @ b2) % M).any()
    assert not ((b2 @ b3) % M).any()


def test_augmentation_of_coset_vector_is_one(lvl2):
    fq, ld, cx = lvl2
    e = np.zeros(cx.dims[0], dtype=np.int64)
    e[0] = 1
    assert (cx.aug @ e) % 3 == 1


def test_position0_homology_vanishes(lvl2):
    fq, ld, cx = lvl2
    h = res.homology_cells(cx)
    assert h["coker_aug"] == []
    assert h["pos0"] == []


def test_euler_characteristic_bookkeeping(lvl2):
    # chi of the terms (with the Z/3^m target) is m; the alternating sum of
    # homology log-sizes must agree, so interior homology cannot vanish
    fq, ld, cx = lvl2
    h = res.homology_cells(cx)
    m = cx.m
    terms = m * (1 - cx.dims[0] + cx.dims[1] - cx.dims[2] + cx.dims[3])
    assert terms == m
    hom = (
        sum(h["coker_aug"]) - sum(h["pos0"]) + sum(h["pos1"])
        - sum(h["pos2"]) + sum(h["pos3"])
    )
    assert hom == terms
    assert sum(h["pos1"]) > 0


def test_nakayama_at_every_splice(lvl2):
    # Nakayama: F3 (x) f is onto exactly when f is onto.  Both sides hold
    # at stage 1, and the verdicts must agree at the interior splices
    # where exactness genuinely fails
    fq, ld, cx = lvl2
    m = cx.m
    n1 = linalg.kernel(cx.aug, m)
    n2 = linalg.kernel(cx.b1, m)
    n3 = linalg.kernel(cx.b2, m)
    stage1 = res.nakayama_surjectivity(ld, cx.b1, n1, "c24")
    assert stage1["ok"] and stage1["f3_surjective"] and stage1["surjective"]
    for f, target, space in ((cx.b2, n2, "chi"), (cx.b3, n3, "chi")):
        rep = res.nakayama_surjectivity(ld, f, target, space)
        assert rep["nakayama_consistent"]


def test_nakayama_negative_control(lvl2):
    fq, ld, cx = lvl2
    target = linalg.kernel(cx.aug, cx.m)
    zero_map = np.zeros_like(cx.b1)
    rep = res.nakayama_surjectivity(ld, zero_map, target, "c24")
    assert not rep["f3_surjective"] and not rep["surjective"]
    assert rep["nakayama_consistent"]
    assert not rep["ok"]


def test_nakayama_consistency_fails_when_verdicts_disagree(lvl2, monkeypatch):
    fq, ld, cx = lvl2
    target = linalg.kernel(cx.aug, cx.m)
    H_IK, HN = res._tor0_data(ld, linalg.howell(target, cx.m), "c24")
    V3 = HN.rows
    assert H_IK.dim > 0
    # f maps onto a complement W of I_P N in N.  It is not a module map,
    # so W + I_P N = N while W != N: onto mod (3, I_P) but not onto
    W = []
    for v in V3:
        rows = np.vstack([H_IK.rows] + [np.atleast_2d(w) for w in W])
        if not linalg.span_contains(linalg.howell(rows, 1), v, 1):
            W.append(v)
    f = np.array(W, dtype=np.int64).T
    rep = res.nakayama_surjectivity(ld, f, target, "c24")
    assert (rep["f3_surjective"], rep["surjective"]) == (True, False)
    assert not rep["nakayama_consistent"] and not rep["ok"]
    # the other direction: b1 is onto N, and a coinvariant computation
    # that wrongly adds e_0 (outside N) makes F3 (x) b1 look not onto
    e0 = np.zeros((1, target.shape[1]), dtype=np.int64)
    e0[0, 0] = 1
    wrong = dataclasses.replace(HN, rows=np.vstack([V3, e0]))
    monkeypatch.setattr(res, "_tor0_data", lambda *a: (H_IK, wrong))
    rep = res.nakayama_surjectivity(ld, cx.b1, target, "c24")
    assert (rep["f3_surjective"], rep["surjective"]) == (False, True)
    assert not rep["nakayama_consistent"] and not rep["ok"]


@pytest.mark.parametrize("level", [Fraction(3, 2), Fraction(2)])
def test_coinvariant_span_needs_no_closure(lvl2, level):
    # the plain span of the (g - 1) V3 blocks against the old closure under
    # the group, for P and for G(l), on ker aug and on the chi kernels
    if level == 2:
        _, ld, cx = lvl2
        kernels = [(cx.kernel("aug"), "c24"), (cx.kernel("b1"), "chi"), (cx.kernel("b2"), "chi")]
    else:
        # the construction stops at N2 here, so build ker aug and ker b1 by hand
        ld = res.prepare_level(q.finite_quotient(level, N), 1)
        N1 = linalg.kernel(np.ones((1, ld.c24.size), dtype=np.int64), 1)
        c1 = res._pick_averaged_generator(ld, linalg.howell(N1, 1), "c24")[0]
        kernels = [(N1, "c24"), (linalg.kernel(res._boundary_on_pairs(ld, c1, "c24"), 1), "chi")]
    for Z, space in kernels:
        V3 = linalg.howell(Z % 3, 1).rows
        for gens in (ld.p_gens, ld.g_gens):
            plain = res._coinvariant_span(ld, V3, gens, space)
            acts = [ld.actions(g, space) for g in gens]
            closed = oracle.module_closure_f3(
                (linalg.signed_permute(V3, *a) - V3 for a in acts), acts, V3.shape[1]
            )
            assert 0 < plain.dim == closed.dim
            assert np.array_equal(closed.rows[np.argsort(closed.pivots)], plain.rows[np.argsort(plain.pivots)])


def test_homology_cells_reuses_the_kept_kernel_forms(lvl2, monkeypatch):
    # at m = 1 the Howell form of each kernel the construction kept comes
    # from its Tor0 data, and the factors are those of a fresh elimination
    _, _, cx = lvl2
    want = {}
    for pos, (ker, im) in enumerate((("aug", "b1"), ("b1", "b2"), ("b2", "b3"))):
        want[f"pos{pos}"] = linalg.quotient_invariants(cx.kernel(ker), cx.image(im).rows, 1)
    seen = []
    real = linalg.howell

    def recorded(rows, m, *dtype):
        seen.append(np.asarray(rows) % 3)
        return real(rows, m, *dtype)

    monkeypatch.setattr(linalg, "howell", recorded)
    hom = res.homology_cells(cx)
    assert {k: hom[k] for k in want} == want
    for name in cx.tor0:
        Z = cx.kernel(name) % 3
        assert not any(a.shape == Z.shape and np.array_equal(a, Z) for a in seen)


def _boundaries_are_equivariant(ld, cx) -> bool:
    """Oracle: each boundary commutes with every generator action, exactly."""
    for g in ld.g_gens:
        p24, _ = ld.actions(g, "c24")
        pchi, schi = ld.actions(g, "chi")
        for B, src, dst in ((cx.b1, "chi", "c24"), (cx.b2, "chi", "chi"), (cx.b3, "c24", "chi")):
            lhs = np.zeros_like(B)
            if dst == "c24":
                lhs[p24, :] = B                      # matrix of g o B
            else:
                lhs[pchi, :] = schi[:, None] * B
            rhs = B[:, p24] if src == "c24" else B[:, pchi] * schi[None, :]   # B o g
            if ((lhs - rhs) % ld.M).any():
                return False
    return True


def test_equivariance_of_boundaries(lvl2):
    fq, ld, cx = lvl2
    assert _boundaries_are_equivariant(ld, cx)


def test_tor0_dims_reported(lvl2):
    fq, ld, cx = lvl2
    tor = cx.diagnostics["tor0_dims"]
    assert tor["N1"] == 1
    assert tor["N2"] >= 1 and tor["N3"] >= 2  # finite-level dims can exceed 1, 2


def test_random_lift_gives_same_verdicts(lvl2):
    fq, ld, cx = lvl2
    rng = random.Random(20240817)
    cx2 = res.construct_complex(ld, rng=rng)
    assert res.homology_cells(cx) == res.homology_cells(cx2)
    assert cx2.diagnostics["composites_zero"] == cx.diagnostics["composites_zero"]
    n1 = linalg.kernel(cx2.aug, cx.m)
    assert res.nakayama_surjectivity(ld, cx2.b1, n1, "c24")["ok"]


def test_modulus_two(lvl2):
    fq, _, _ = lvl2
    ld2 = res.prepare_level(fq, 2)
    cx = res.construct_complex(ld2)
    assert all(cx.diagnostics["composites_zero"].values())
    h = res.homology_cells(cx)
    assert h["pos0"] == [] and h["coker_aug"] == []


def test_pushforward_is_chain_map_and_transitions(lvl2):
    fq2, ld2, cx2 = lvl2
    fq32 = q.finite_quotient(Fraction(3, 2), N)
    rep = res.homology_pro_triviality([ld2, res.prepare_level(fq32, 1)], cx2)
    assert rep["chain_maps_ok"]
    # one half-integer step: position 3 dies, interior positions may persist
    step = rep["step_zero"]["2->3/2"]
    assert step["pos3"] is True


def test_tower_computes_no_homology(lvl2, monkeypatch):
    # the transitions read kernels and images off the complexes; the
    # invariant factors of each complex in the tower are not needed
    fq2, ld2, cx2 = lvl2
    ld32 = res.prepare_level(q.finite_quotient(Fraction(3, 2), N), 1)

    def unexpected(cx):
        raise AssertionError("homology_cells called by the tower")

    monkeypatch.setattr(res, "homology_cells", unexpected)
    rep = res.homology_pro_triviality([ld2, ld32], cx2)
    assert rep["chain_maps_ok"] and "homology" not in rep


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "levels", [(2, Fraction(3, 2), 1), (Fraction(5, 2), 2, Fraction(3, 2))], ids=["2,3/2,1", "5/2,2,3/2"]
)
def test_pushforward_maps_compose(levels, m):
    # the projection over two steps is the product of the step maps, so
    # the whole-range transition reads it off the two ends
    l0, l1, l2 = (res.prepare_level(q.finite_quotient(lv, N), m) for lv in levels)
    steps = zip(res.pushforward_maps(l0, l1), res.pushforward_maps(l1, l2))
    for whole, (hi, lo) in zip(res.pushforward_maps(l0, l2), steps):
        assert np.array_equal(dense(whole, m), linalg.matmul_mod(dense(lo, m), dense(hi, m), m))


def dense(P, m):
    """The matrix of a pushforward map (targets, signs, n), mod 3^m."""
    targets, signs, n = P
    D = np.zeros((n, len(targets)), dtype=np.int64)
    D[targets, np.arange(len(targets))] = signs
    return D % 3**m


@pytest.mark.parametrize("m", [1, 2])
def test_push_and_pull_are_the_dense_products(m):
    # every column of the chain-map check and of the transitions, against
    # the dense matrices the pushforward maps stand for
    l0, l1 = (res.prepare_level(q.finite_quotient(lv, N), m) for lv in (2, Fraction(3, 2)))
    rng = np.random.default_rng(7 + m)
    for P in res.pushforward_maps(l0, l1):
        D = dense(P, m)
        n, k = D.shape
        X = rng.integers(0, 3**m, size=(k, 5)).astype(np.int8)
        Y = rng.integers(0, 3**m, size=(4, n)).astype(np.int8)
        assert np.array_equal(res._push(P, X, m), linalg.matmul_mod(D, X, m))
        assert np.array_equal(res._push(P, X[:, 0], m), linalg.matmul_mod(D, X[:, 0], m))
        assert np.array_equal(res._pull(Y, P, m), linalg.matmul_mod(Y, D, m))


def test_pushforward_with_a_corrupted_generator_raises(lvl2):
    # the pushed-down complex checks its generators and its own composites:
    # c2 + 1 is not Q8-invariant, and c2 + the average of a unit pair
    # vector is, with omega . c = -c, but lies outside ker b1
    _, ld2, cx2 = lvl2
    ld32 = res.prepare_level(q.finite_quotient(Fraction(3, 2), N), 1)
    P0, P1 = res.pushforward_maps(ld2, ld32)
    c2 = cx2.c_vectors["c2"]
    broken = SimpleNamespace(c_vectors=dict(cx2.c_vectors, c2=(c2 + 1) % 3))
    with pytest.raises(CheckFailed, match="not Q8-invariant"):
        res.pushforward_complex(broken, ld32, P0, P1)
    e = np.zeros(ld2.chi.size, dtype=np.int64)
    e[0] = 1
    off = res._sd16_average(ld2, e, "chi")
    assert linalg.matmul_mod(cx2.b1, off, 1).any()
    broken = SimpleNamespace(c_vectors=dict(cx2.c_vectors, c2=(c2 + off) % 3))
    with pytest.raises(CheckFailed, match="composites not zero"):
        res.pushforward_complex(broken, ld32, P0, P1)


@pytest.fixture(scope="module", params=[Fraction(2), Fraction(5, 2)], ids=["2", "5/2"])
def fq_pairs(request):
    return q.finite_quotient(request.param, N)


@pytest.mark.parametrize("m", [1, 2])
def test_boundary_on_pairs_matches_the_two_sided_definition(fq_pairs, m):
    # 2 g_p . c from one action table against (g_p - g_sigma(p)) . c from
    # two, for SD16-averages c of random vectors, which are Q8-invariant
    # with omega . c = -c; c + 1 is not, and raises
    ld = res.prepare_level(fq_pairs, m)
    rng = np.random.default_rng(11 + m)
    for space, n in (("c24", ld.c24.size), ("chi", ld.chi.size)):
        c = res._sd16_average(ld, rng.integers(0, ld.M, size=n), space)
        assert c.any()
        want = oracle.boundary_on_pairs_two_sided(ld, c, space)
        assert np.array_equal(res._boundary_on_pairs(ld, c, space), want)
        with pytest.raises(CheckFailed):
            res._boundary_on_pairs(ld, (c + 1) % ld.M, space)


# -- the complex in its storage type --------------------------------------------------

def all_int64(monkeypatch):
    """Run everything in int64, storage and working type alike."""
    monkeypatch.setattr(linalg, "residue_dtypes", lambda m: (np.int64, np.int64))


@pytest.mark.parametrize("m", [4, 5], ids=["int8", "int16"])
def test_tower_across_the_storage_boundary_matches_int64(monkeypatch, m):
    # m = 4 is the last modulus stored in int8, m = 5 the first in int16;
    # level 3/2 alone refuses at these moduli, so the tower starts at 2
    levels = [Fraction(2), Fraction(3, 2)]
    narrow = res.verify_tower(levels, m, N)
    all_int64(monkeypatch)
    assert narrow == res.verify_tower(levels, m, N)


@pytest.mark.parametrize("m", [1, 2])
def test_no_f3_space_outlives_its_construction_step(monkeypatch, m):
    # each generator pick hands over its Tor0 pair as rows, so the F3
    # spans it built are garbage once it returns: none is alive when an
    # elimination or a boundary of the construction starts
    live, made = weakref.WeakSet(), []
    init = linalg.F3Space.__init__

    def tracked(self, ncols):
        init(self, ncols)
        live.add(self)
        made.append(ncols)

    monkeypatch.setattr(linalg.F3Space, "__init__", tracked)
    seen = []

    def counted(fn):
        def entry(*args):
            gc.collect()
            seen.append((fn.__name__, len(live)))
            return fn(*args)
        return entry

    for name in ("_eliminate", "_boundary_on_pairs", "_boundary_on_cosets"):
        monkeypatch.setattr(res, name, counted(getattr(res, name)))
    res.construct_complex(res.prepare_level(q.finite_quotient(2, N), m))
    assert made
    steps = ["_eliminate", "_boundary_on_pairs"] * 2 + ["_eliminate", "_boundary_on_cosets"]
    assert seen == [(name, 0) for name in steps]


@pytest.mark.parametrize("m", [1, 2, 4])
def test_complex_arrays_are_narrow_and_read_only(m):
    ld = res.prepare_level(q.finite_quotient(2, N), m)
    cx = res.construct_complex(ld)
    store = linalg.residue_dtypes(m)[0]
    assert store is np.int8
    arrays = [cx.aug, cx.b1, cx.b2, cx.b3]
    for name in ("aug", "b1", "b2", "b3"):
        arrays += [cx.kernel(name), cx.image(name).rows]
    arrays += [a for rows, HN in cx.tor0.values() for a in (rows, HN.rows)]
    for a in arrays:
        assert a.dtype == store
        with pytest.raises(ValueError):
            a[...] = 0


def test_random_lift_at_m4_matches_int64(monkeypatch):
    # the rng path scales and adds int8 kernel rows of entries up to 80;
    # read in int8 they would wrap, so compare with the same draws in int64
    ld = res.prepare_level(q.finite_quotient(2, N), 4)
    cx = res.construct_complex(ld, rng=random.Random(4))
    all_int64(monkeypatch)
    ld64 = res.prepare_level(q.finite_quotient(2, N), 4)
    cx64 = res.construct_complex(ld64, rng=random.Random(4))
    for name in ("c1", "c2", "c3"):
        assert np.array_equal(cx.c_vectors[name], cx64.c_vectors[name])
    for name in ("b1", "b2", "b3"):
        assert np.array_equal(getattr(cx, name), getattr(cx64, name))
    assert cx64.b1.dtype == np.int64 and cx.b1.dtype == np.int8


# -- one F3 reduction per span ---------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 4])
def test_kernel_forms_are_howell_forms_and_give_the_tor0_forms(m):
    # every boundary's kernel form is the Howell form of its kernel rows;
    # at m = 1 it is the Tor0 form itself, and at m >= 2 the Tor0 form,
    # grown from its unit-pivot rows, is the RREF of the kernel mod 3
    cx = res.construct_complex(res.prepare_level(q.finite_quotient(2, N), m))
    for name in ("aug", "b1", "b2", "b3"):
        HK, want = cx.kernel_form(name), linalg.howell(cx.kernel(name), m)
        assert HK.rows is cx.kernel(name) and np.array_equal(HK.rows, want.rows)
        assert (HK.pivot_cols, HK.pivot_vals) == (want.pivot_cols, want.pivot_vals)
    for name, (_, HN) in cx.tor0.items():
        if m == 1:
            assert HN is cx.kernel_form(name) and HN.rows is cx.kernel(name)
        else:
            want = linalg.howell(cx.kernel(name) % 3, 1)
            assert np.array_equal(HN.rows, want.rows)
            assert (HN.pivot_cols, HN.pivot_vals) == (want.pivot_cols, want.pivot_vals)
    # at m >= 2 ker b2 has rows without a unit pivot, which the Tor0 form
    # eliminates on top of the unit ones
    assert (m > 1) == any(cx.kernel_form("b2").pivot_vals)


def test_kept_sylow_generators_are_a_minimal_generating_set(fq_pairs):
    # two of the six pooled generators of P(l), as Burnside's basis theorem
    # gives; they lie in P(l) and generate it, and no proper subset does
    ld = res.prepare_level(fq_pairs, 1)
    sylow = fq_pairs.sylow_indices()
    assert len(ld.p_gens) == 2 and set(ld.p_gens) <= set(fq_pairs.sylow_generators().values())
    assert np.isin(ld.p_gens, sylow).all()
    assert fq_pairs._closure_size(ld.p_gens) == len(sylow)
    for k in range(len(ld.p_gens)):
        for sub in itertools.combinations(ld.p_gens, k):
            assert fq_pairs._closure_size(list(sub)) < len(sylow)


def test_f3_pivot_count_of_the_resolution_workload(monkeypatch):
    # the pivots F3Space.add finds over the towers of the resolution
    # benchmark: each kernel, Tor0 form and Nakayama span is reduced once
    # (3,957 when the m = 1 kernels, the kept spans and the (3, I_G) span
    # were reduced again), so a re-elimination that comes back shows here
    found = []
    add = linalg.F3Space.add

    def counted(self, B):
        found.append(add(self, B))
        return found[-1]

    monkeypatch.setattr(linalg.F3Space, "add", counted)
    for levels, m in (([2, Fraction(3, 2), 1], 1), ([2, Fraction(3, 2)], 2)):
        assert res.verify_tower(levels, m, N)[1] is True
    assert sum(found) == 1960
