import math
import random
from pathlib import Path

import numpy as np
import pytest

from quadring import modmat
from quadring.errors import BudgetExceededError, DegenerateSectionError, InputError
from quadring.gfp import (
    PrimeField,
    canonical_point,
    enumerate_projective,
    projective_points_array,
    projective_size,
)
from quadring.quadform import GramMatrix, classify, fiber_classes
from quadring.netfib import (
    QuadricNet,
    corank_histogram_reduced,
    count_double_cover,
    count_reduced_family,
    count_reduced_family_dual,
    count_total_space,
    hyperbolic_reduce_family,
    lines_through_point,
    load_net,
    points_on_X,
    regularity_check,
    verify_relations,
)

from _util import fiber_list, form_values, forms_congruent, projective_rows_where, random_symmetric, record_scan_blocks

GOLDEN = Path(__file__).parent / "data" / "golden"

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)

PENCIL = QuadricNet(
    n=2,
    m=1,
    matrices=(GramMatrix.diagonal([1, 1, 1, 1]), GramMatrix.diagonal([0, 1, 2, 3])),
)


def test_net_validation():
    with pytest.raises(InputError):
        QuadricNet(n=2, m=1, matrices=(GramMatrix.diagonal([1, 1, 1, 1]),))
    with pytest.raises(InputError):
        QuadricNet(n=2, m=1, matrices=(GramMatrix.zero(3), GramMatrix.zero(3)))


def _fiber_by_sums(net, s, field):
    """Reference: the fiber Gram over s summed entry by entry in Python ints,
    at the canonical representative."""
    rep = canonical_point(s, field)
    size = net.fiber_size
    return GramMatrix.from_rows(
        [
            [sum(rep[k] * net.matrices[k].entries[i][j] for k in range(net.m + 1)) % field.p for j in range(size)]
            for i in range(size)
        ]
    )


def _reduced_fiber_by_sums(red, s, field):
    """Reference: the reduced fiber Gram over s, with the bilinear rows, the
    quadratic part and the restriction K^T M K summed in Python ints."""
    p = field.p
    rep = canonical_point(s, field)
    cols = red.n - red.k + 1
    lin = [
        [sum(rep[i] * red.bilinear[j][i][c] for i in range(red.m + 1)) % p for c in range(cols)]
        for j in range(red.k + 1)
    ]
    if modmat.rank_mod(lin, cols, field) < red.k + 1:
        raise DegenerateSectionError(f"section degenerates over base point {tuple(s)} at p={p}")
    gram = [
        [sum(rep[i] * red.quad[i].entries[a][b] for i in range(red.m + 1)) % p for b in range(cols)]
        for a in range(cols)
    ]
    basis = modmat.kernel_basis(lin, cols, field)
    return GramMatrix.from_rows(
        [
            [sum(ku[i] * gram[i][j] * kv[j] for i in range(cols) for j in range(cols)) % p for kv in basis]
            for ku in basis
        ]
    )


def _fiber_at(family, s, field):
    return dict(fiber_list(family.fibers(field)))[s]


def _huge_entry_net(net):
    """The net with 3*5*7*11*13 * 2^64 added to entry (1, 1) of M_0 and to
    the off-diagonal pair (2, 3) of M_2: the same net mod 3, 5, 7, 11 and 13,
    with entries far beyond int64."""
    shift = 3 * 5 * 7 * 11 * 13 * 2**64
    mats = [[list(row) for row in mat.entries] for mat in net.matrices]
    mats[0][1][1] += shift
    mats[2][2][3] += shift
    mats[2][3][2] += shift
    return QuadricNet(n=net.n, m=net.m, matrices=tuple(GramMatrix.from_rows(m) for m in mats))


def test_fiber_matrix_examples():
    net = QuadricNet(
        n=4,
        m=2,
        matrices=(
            GramMatrix.diagonal([1] * 6),
            GramMatrix.zero(6),
            GramMatrix.zero(6),
        ),
    )
    assert _fiber_at(net, (1, 0, 0), F7) == GramMatrix.diagonal([1] * 6)
    assert _fiber_at(PENCIL, (1, 1), F7) == GramMatrix.diagonal([1, 2, 3, 4])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_net_fibers_match_pointwise_sums(p, accepted_net, accepted_pencil):
    field = PrimeField(p)
    nets = [accepted_net.net, accepted_pencil.net, PENCIL, _huge_entry_net(accepted_net.net)]
    for net in nets:
        expected = [(s, _fiber_by_sums(net, s, field)) for s in enumerate_projective(net.m, field)]
        assert fiber_list(net.fibers(field)) == expected
    assert fiber_list(nets[-1].fibers(field)) == fiber_list(nets[0].fibers(field))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduced_fibers_match_pointwise_sums(p, accepted_net, accepted_pencil):
    field = PrimeField(p)
    reductions = [
        hyperbolic_reduce_family(result.net, [list(result.point)])
        for result in (accepted_net, accepted_pencil)
    ]
    reductions.append(
        hyperbolic_reduce_family(
            _net_with_planted_line(random.Random(5)), [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
        )
    )
    reductions.append(hyperbolic_reduce_family(_huge_entry_net(accepted_net.net), [list(accepted_net.point)]))
    for red in reductions:
        expected = [(s, _reduced_fiber_by_sums(red, s, field)) for s in enumerate_projective(red.m, field)]
        assert fiber_list(red.fibers(field)) == expected
    assert fiber_list(reductions[-1].fibers(field)) == fiber_list(reductions[0].fibers(field))


def test_fiber_classification_representative_independent():
    # summing at a non-canonical representative gives a congruent fiber
    for lam in range(2, 7):
        scaled = [
            [
                sum(
                    lam * s * m.entries[i][j]
                    for s, m in zip((1, 1), PENCIL.matrices)
                )
                % 7
                for j in range(4)
            ]
            for i in range(4)
        ]
        inv_scaled = classify(GramMatrix.from_rows(scaled), F7)
        inv = classify(_fiber_at(PENCIL, (1, 1), F7), F7)
        assert (inv_scaled.rank, inv_scaled.corank) == (inv.rank, inv.corank)


def test_pencil_stratification_over_f7():
    # discriminant lambda(lambda+mu)(lambda+2mu)(lambda+3mu): four simple roots
    hist = regularity_check(PENCIL, F7).corank_histogram
    assert hist == {0: 4, 1: 4}


def test_zero_net_flatness_violation():
    zero_net = QuadricNet(n=2, m=1, matrices=(GramMatrix.zero(4), GramMatrix.zero(4)))
    report = regularity_check(zero_net, F3)
    assert report.corank_histogram == {4: 4}
    assert not report.flat and not report.regular


def test_points_on_x_pencil_hasse_window():
    pts = points_on_X(PENCIL, F7)
    # genus-1 curve: sanity window around p+1
    assert abs(len(pts) - 8) <= 2 * math.floor(2 * math.sqrt(7))
    for pt in pts:
        assert all(mat.q(pt, F7) == 0 for mat in PENCIL.matrices)
    # canonical order, no duplicates
    assert len(set(pts)) == len(pts)


def test_points_on_x_diag_net_avoids_axis_points():
    # with M0 = identity, x_i^2 = 0 forces x_i = 0: no standard basis vector on X
    rng = random.Random(1)
    net = QuadricNet(
        n=4,
        m=2,
        matrices=(
            GramMatrix.diagonal([1] * 6),
            random_symmetric(rng, 6, p=7),
            random_symmetric(rng, 6, p=7),
        ),
    )
    for pt in points_on_X(net, F7):
        assert sum(1 for x in pt if x != 0) >= 2


def test_points_on_x_weil_window(accepted_net):
    pts = points_on_X(accepted_net.net, F5)
    assert abs(len(pts) - (25 + 1)) <= 22 * 5  # b2 = 22 for these surfaces


def test_points_on_x_jobs_partition_invariance(accepted_net):
    seq = points_on_X(accepted_net.net, F5, jobs=1)
    par = points_on_X(accepted_net.net, F5, jobs=3)
    assert seq == par


def test_points_on_x_scans_in_bounded_chunks(accepted_net, monkeypatch):
    # The scan solves for x5, so it walks P^4(F_17), 88,741 points: each
    # exactly once, as blocks (rows of P^2) x F_17^2 and the tail {0} x P^1,
    # in grids of at most CHUNK_ROWS cells, and split across threads to the
    # same list
    from quadring import gfp

    blocks = record_scan_blocks(monkeypatch)
    f17 = PrimeField(17)
    plane = projective_points_array(2, f17, hi=17**2)[:, 1:]  # F_17^2 in lex order
    seq = points_on_X(accepted_net.net, f17, jobs=1)
    head = [(h, s) for h, s in blocks if h.any()]
    (tail_h, tail_s), = [(h, s) for h, s in blocks if not h.any()]
    prefix = np.concatenate([h for h, _ in head])
    assert len(head) > 1
    assert np.array_equal(prefix, projective_points_array(2, f17))
    assert all(np.array_equal(s, plane) for _, s in head)
    assert tail_h.shape == (1, 3) and np.array_equal(tail_s, projective_points_array(1, f17))
    assert len(prefix) * 17**2 + 17 + 1 == projective_size(4, 17) > gfp.CHUNK_ROWS
    assert max(len(h) * len(s) for h, s in blocks) <= gfp.CHUNK_ROWS
    # threads append their blocks in any order: check cover and grid size
    blocks.clear()
    assert points_on_X(accepted_net.net, f17, jobs=3) == seq
    assert sum(len(h) * len(s) for h, s in blocks) == projective_size(4, 17)
    assert max(len(h) * len(s) for h, s in blocks) <= gfp.CHUNK_ROWS
    assert seq and all(mat.q(pt, f17) == 0 for pt in seq for mat in accepted_net.net.matrices)


def test_regularity_pencil_example():
    report = regularity_check(PENCIL, F7)
    assert report.regular and report.flat and not report.corank2_found
    assert report.corank_histogram == {0: 4, 1: 4}


def test_regularity_common_radical_vector_flagged():
    rng = random.Random(3)
    rows = random_symmetric(rng, 3, p=5).entries
    padded = tuple(tuple(list(r) + [0]) for r in rows) + ((0, 0, 0, 0),)
    net = QuadricNet(
        n=2, m=1, matrices=(GramMatrix(padded), GramMatrix.zero(4))
    )
    report = regularity_check(net, F5)
    assert not report.regular
    assert report.violations


def test_regularity_zero_fiber_scans_its_kernel_within_the_budget():
    # the golden net with M_2 = 0: the fiber over (0:0:1) is the zero
    # quadric, whose radical is all of P^5, so every point of X violates
    # regularity there; the scan of that kernel, solved for its last
    # coordinate, is charged to the budget for P^4
    net, _ = load_net(str(GOLDEN / "net_zero_fiber.json"))
    f13 = PrimeField(13)
    report = regularity_check(net, f13)
    assert not report.flat and not report.regular and report.corank2_found
    assert report.violations == tuple(((0, 0, 1), x) for x in points_on_X(net, f13))
    with pytest.raises(BudgetExceededError):
        regularity_check(net, f13, budget=projective_size(4, 13) - 1)


def _plane_pair_net() -> QuadricNet:
    # all three forms kill e0, e1 and their span: the line <e0, e1> lies in X
    rng = random.Random(11)
    mats = []
    for _ in range(3):
        m = [list(row) for row in random_symmetric(rng, 6, p=5).entries]
        for i in (0, 1):
            for j in (0, 1):
                m[i][j] = 0
        mats.append(GramMatrix.from_rows(m))
    return QuadricNet(n=4, m=2, matrices=tuple(mats))


def _lines_by_mask_walk(net, point, field):
    # every direction of P^n, lifted with 0 in the pivot slot, tested against
    # b(P, v'') = 0 and q(v'') = 0 for every form
    p = field.p
    rep = canonical_point(point, field)
    pivot = rep.index(1)
    rep_vec = np.array(rep, dtype=np.int64)

    def on_line(dirs):
        lifted = np.insert(dirs, pivot, 0, axis=1)
        mask = np.ones(len(dirs), dtype=bool)
        for mat in net.matrices:
            mask &= (lifted @ modmat.residues(mat.entries, field) @ rep_vec) % p == 0
            mask &= form_values(lifted, mat, field) == 0
        return mask

    return list(map(tuple, projective_rows_where(net.fiber_size - 2, field, on_line).tolist()))


def test_lines_through_point_plane_pair():
    found = lines_through_point(_plane_pair_net(), (1, 0, 0, 0, 0, 0), F5)
    assert found, "planted line was not detected"
    # the direction e1 (pivot 0 deleted) must be among them
    assert (1, 0, 0, 0, 0) in found


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lines_through_point_matches_the_mask_walk(p, accepted_net):
    field = PrimeField(p)
    net = _plane_pair_net()
    points = points_on_X(net, field)[::7] + [(1, 0, 0, 0, 0, 0)]
    for point in points:
        assert lines_through_point(net, point, field) == _lines_by_mask_walk(net, point, field)
    assert lines_through_point(net, (1, 0, 0, 0, 0, 0), field)
    net, point = accepted_net.net, accepted_net.point
    assert lines_through_point(net, point, field) == [] == _lines_by_mask_walk(net, point, field)


def test_lines_through_point_accepted_net_empty(accepted_net):
    assert lines_through_point(accepted_net.net, accepted_net.point, F5) == []


def test_lines_through_point_pencil_empty(accepted_pencil):
    assert lines_through_point(accepted_pencil.net, accepted_pencil.point, F7) == []


def test_lines_through_point_requires_membership():
    with pytest.raises(InputError):
        lines_through_point(PENCIL, (1, 0, 0, 0), F7)


def test_reduce_family_coordinate_description(accepted_net):
    net, point = accepted_net.net, accepted_net.point
    red = hyperbolic_reduce_family(net, [list(point)])
    assert red.pivots == (0,)
    for i, mat in enumerate(net.matrices):
        assert red.bilinear[0][i] == mat.entries[0][1:]
        assert red.quad[i].entries == tuple(r[1:] for r in mat.entries[1:])


def test_reduce_family_rejects_non_isotropic():
    with pytest.raises(InputError):
        hyperbolic_reduce_family(PENCIL, [[1, 0, 0, 0]])  # q0(e0) = 1 over Z


def test_reduced_fiber_corank_matches_net(accepted_net):
    net, point = accepted_net.net, accepted_net.point
    red = hyperbolic_reduce_family(net, [list(point)])
    net_rank, _ = fiber_classes(net.fibers(F5), 5)
    red_rank, _ = fiber_classes(red.fibers(F5), 5)
    assert np.array_equal(net.fiber_size - net_rank, red.fiber_size - red_rank)


def test_reduced_histograms_match(accepted_net):
    net, point = accepted_net.net, accepted_net.point
    red = hyperbolic_reduce_family(net, [list(point)])
    for p in (3, 5, 7):
        field = PrimeField(p)
        assert regularity_check(net, field).corank_histogram == corank_histogram_reduced(
            red, field
        )


def test_dual_fibration_counts_agree(accepted_net, accepted_pencil):
    for result in (accepted_net, accepted_pencil):
        red = hyperbolic_reduce_family(result.net, [list(result.point)])
        for p in (3, 5):
            field = PrimeField(p)
            assert count_reduced_family(red, field) == count_reduced_family_dual(red, field)


def test_pencil_reduced_count_equals_double_cover(accepted_pencil):
    red = hyperbolic_reduce_family(accepted_pencil.net, [list(accepted_pencil.point)])
    for p in (3, 5, 7, 11):
        field = PrimeField(p)
        assert count_reduced_family(red, field) == count_double_cover(
            accepted_pencil.net, field
        )


def test_double_cover_net_vs_reduction(accepted_net):
    red = hyperbolic_reduce_family(accepted_net.net, [list(accepted_net.point)])
    for p in (3, 5, 7):
        field = PrimeField(p)
        assert count_double_cover(accepted_net.net, field) == count_double_cover(
            red, field
        )


def test_double_cover_matches_discriminant_polynomial():
    from quadring.gfp import legendre_character
    from quadring.mpoly import determinant_of_linear_matrix

    # Gram size 4: the signed determinant is +det, so the cover count can be
    # recomputed from the discriminant polynomial of the pencil
    det_poly = determinant_of_linear_matrix([m.entries for m in PENCIL.matrices])
    for field in (F5, F7):
        total = 0
        branch = 0
        for s in enumerate_projective(1, field):
            ch = legendre_character(det_poly.evaluate(s, field), field)
            total += 1 + ch
            branch += ch == 0
        assert total == count_double_cover(PENCIL, field)
        assert branch == 4  # the four roots of the quartic discriminant


def test_double_cover_needs_even_size():
    odd = QuadricNet(
        n=1, m=1, matrices=(GramMatrix.diagonal([1, 1, 1]), GramMatrix.zero(3))
    )
    with pytest.raises(InputError):
        count_double_cover(odd, F5)


def test_degenerate_section_raises():
    # pencil through e0 where e0 hits a singular fiber: plant a fiber with
    # radical containing e0 by zeroing its whole first row/column
    rows1 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rows2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    net = QuadricNet(
        n=2, m=1, matrices=(GramMatrix.from_rows(rows1), GramMatrix.from_rows(rows2))
    )
    red = hyperbolic_reduce_family(net, [[1, 0, 0, 0]])
    with pytest.raises(DegenerateSectionError):
        count_reduced_family(red, F5)  # fiber (1:0) has B(s) = 0


def test_first_degenerate_section_names_its_base_point():
    # B(w) = (w0 + 2 w1) e_1 vanishes on the line w0 + 2 w1 = 0 of P^2: mod 5
    # at (1, 2, t) for every t and at (0, 0, 1); the first in canonical order
    # is (1, 2, 0), not the first point (1, 0, 0) of P^2
    rng = random.Random(2)
    mats = []
    for b in (1, 2, 0):
        m = [list(row) for row in random_symmetric(rng, 6, p=5).entries]
        m[0] = [0, b, 0, 0, 0, 0]
        for i in range(6):
            m[i][0] = m[0][i]
        mats.append(GramMatrix.from_rows(m))
    red = hyperbolic_reduce_family(QuadricNet(n=4, m=2, matrices=tuple(mats)), [[1, 0, 0, 0, 0, 0]])
    with pytest.raises(DegenerateSectionError, match=r"base point \(1, 2, 0\) at p=5$"):
        count_reduced_family(red, F5)


def _net_with_planted_line(rng):
    """A (4,2) net whose forms all vanish on span(e0, e1), regular with
    corank <= 1 at p = 5 (deterministic rejection scan)."""
    while True:
        mats = []
        for _ in range(3):
            m = [list(row) for row in random_symmetric(rng, 6).entries]
            for i in (0, 1):
                for j in (0, 1):
                    m[i][j] = 0
            mats.append(GramMatrix.from_rows(m))
        net = QuadricNet(n=4, m=2, matrices=tuple(mats))
        report = regularity_check(net, F5)
        if report.regular and report.flat and not report.corank2_found:
            return net


def test_line_reduction_count_shadow():
    # reducing along a line on X drops the fibers to dimension 0, and the
    # count shadow of the reduction relation with k = 1 reads
    # #Q = #P^2 #P^1 (1 + p^3) + #Qbar p^2, with #Qbar equal to the
    # double-cover count on both the net and the reduced family
    rng = random.Random(5)
    net = _net_with_planted_line(rng)
    red = hyperbolic_reduce_family(net, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    assert red.k == 1 and red.pivots == (0, 1)
    assert red.reduced_dim == 0
    for p in (3, 5, 7):
        field = PrimeField(p)
        reg = regularity_check(net, field)
        if not (reg.regular and reg.flat and not reg.corank2_found):
            continue
        qbar = count_reduced_family(red, field)
        q = count_total_space(net, field)
        shell = projective_size(2, p) * projective_size(1, p) * (1 + p**3)
        assert q == shell + qbar * p**2
        assert qbar == count_double_cover(net, field)
        assert qbar == count_double_cover(red, field)


def test_line_reduction_splitting_independence():
    # two different bases of the same isotropic plane produce fiberwise
    # congruent reduced forms and identical counts
    rng = random.Random(5)
    net = _net_with_planted_line(rng)
    red_a = hyperbolic_reduce_family(net, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    red_b = hyperbolic_reduce_family(net, [[2, 4, 0, 0, 0, 0], [2, -2, 0, 0, 0, 0]])
    assert red_b.pivots == (0, 1)
    for (sa, ga), (sb, gb) in zip(fiber_list(red_a.fibers(F5)), fiber_list(red_b.fibers(F5)), strict=True):
        assert sa == sb and forms_congruent(ga, gb, F5)
    assert count_reduced_family(red_a, F5) == count_reduced_family(red_b, F5)


def test_total_space_count_unconditional():
    # the scissor count of Q holds with no hypotheses, even at a bad prime
    for field in (F3, F5, F7):
        q = count_total_space(PENCIL, field)
        x = len(points_on_X(PENCIL, field))
        p = field.p
        assert q == projective_size(3, p) + x * p


def test_total_space_all_split_fibers():
    # deterministic scan for a pencil whose F5-fibers are all split of rank 4
    rng = random.Random(0)
    field = F5
    p = 5
    while True:
        m0 = random_symmetric(rng, 4, p=5)
        m1 = random_symmetric(rng, 4, p=5)
        net = QuadricNet(n=2, m=1, matrices=(m0, m1))
        rank, signed = fiber_classes(net.fibers(field), p)
        if (rank == 4).all() and (signed == 1).all():
            break
    expected_fiber = p**2 + p + 1 + p  # split quadric surface (p+1)^2
    assert count_total_space(net, field) == projective_size(1, p) * expected_fiber
    # with no branch points every base point has two preimages in the cover
    assert count_double_cover(net, field) == 2 * projective_size(1, p)


@pytest.mark.parametrize(
    "p,q,y,qbar,hist",
    [
        (41, 4990549521, 1749, 2969795, {0: 1680, 1: 43}),
        (53, 23025156814, 2962, 8202016, {0: 2807, 1: 56}),
    ],
)
def test_golden_net_fiber_counts_at_large_primes(p, q, y, qbar, hist):
    # values of the per-fiber Python classification (diagonalize, det_mod)
    net, point = load_net(str(GOLDEN / "net.json"))
    red = hyperbolic_reduce_family(net, [list(point)])
    field = PrimeField(p)
    assert count_total_space(net, field) == q
    assert count_double_cover(net, field) == y == count_double_cover(red, field)
    assert count_reduced_family(red, field) == qbar
    assert regularity_check(net, field).corank_histogram == hist == corank_histogram_reduced(red, field)


def test_verify_relations_42(accepted_net):
    reports = verify_relations(accepted_net.net, accepted_net.point, [3, 5, 7])
    for rep in reports:
        assert not rep.skipped
        assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}
        assert not rep.line_through_point_found
        assert rep.x_count == rep.y_count


def test_verify_relations_reduces_once(accepted_net, monkeypatch):
    # the reduction is over Z: one per net, not one per prime
    from quadring.netfib import relations

    calls = []
    original = relations.hyperbolic_reduce_family

    def counting(net, u_basis):
        calls.append(u_basis)
        return original(net, u_basis)

    monkeypatch.setattr(relations, "hyperbolic_reduce_family", counting)
    reports = verify_relations(accepted_net.net, accepted_net.point, [3, 5, 7])
    assert calls == [[list(accepted_net.point)]]
    assert all(rep.residuals["R2"] == 0 for rep in reports)


def test_verify_relations_pencil_shape(accepted_pencil):
    reports = verify_relations(accepted_pencil.net, accepted_pencil.point, [5, 7])
    for rep in reports:
        assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}


def test_verify_relations_canonical_pencil_skips_p3():
    reports = verify_relations(PENCIL, None, [3, 5, 7, 11, 13])
    by_p = {r.p: r for r in reports}
    assert by_p[3].skipped and "corank" in by_p[3].skip_reason
    for p in (5, 7, 11, 13):
        rep = by_p[p]
        assert not rep.skipped
        assert rep.residuals == {"R1": 0, "R3": 0, "R4": 0}


def test_verify_relations_rejects_unsupported_shape():
    odd = QuadricNet(
        n=3, m=1, matrices=(GramMatrix.diagonal([1] * 5), GramMatrix.zero(5))
    )
    with pytest.raises(InputError):
        verify_relations(odd, None, [5])


def test_verify_relations_rejects_point_off_x():
    with pytest.raises(InputError):
        verify_relations(PENCIL, (1, 0, 0, 0), [5])


def test_planted_line_sets_flag_but_counts_cancel():
    # a rational line through the base point on an otherwise clean net: the
    # flag must fire, yet all residuals stay zero.  In the fibration of the
    # reduced family over P^4 the line direction carries a P^2 fiber while
    # the projection contracts the line's p points, and the two effects
    # cancel exactly in the count, so R2 is blind to rational lines; only
    # the flag reports that the blowup model's hypothesis failed.
    rng = random.Random(0)
    while True:
        mats = []
        for _ in range(3):
            m = [list(row) for row in random_symmetric(rng, 6).entries]
            for i in (0, 1):
                for j in (0, 1):
                    m[i][j] = 0
            mats.append(GramMatrix.from_rows(m))
        net = QuadricNet(n=4, m=2, matrices=tuple(mats))
        report = regularity_check(net, F5)
        if report.regular and report.flat and not report.corank2_found:
            break
    rep = verify_relations(net, (1, 0, 0, 0, 0, 0), [5])[0]
    assert rep.line_through_point_found
    assert rep.flagged()
    assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}


def test_net_document_round_trip(accepted_net):
    doc = accepted_net.net.to_document(point=accepted_net.point)
    net2, point2 = QuadricNet.from_document(doc)
    assert net2 == accepted_net.net
    assert point2 == accepted_net.point
    bad = dict(doc)
    bad["matrices"] = [list(m) for m in doc["matrices"]]
    bad["matrices"][0][1] += 1  # breaks symmetry
    with pytest.raises(InputError):
        QuadricNet.from_document(bad)
