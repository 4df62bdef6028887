import math
import random

import pytest

from quadring.errors import DegenerateSectionError, InputError
from quadring.gfp import PrimeField, projective_size
from quadring.quadform import GramMatrix, classify
from quadring.netfib import (
    QuadricNet,
    corank_histogram_reduced,
    count_double_cover,
    count_reduced_family,
    count_reduced_family_dual,
    count_total_space,
    hyperbolic_reduce_family,
    lines_through_point,
    points_on_X,
    reduced_fiber_gram,
    regularity_check,
    verify_relations,
)

from _util import random_symmetric

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
    assert net.fiber_matrix((1, 0, 0), F7) == GramMatrix.diagonal([1] * 6)
    assert PENCIL.fiber_matrix((1, 1), F7) == GramMatrix.diagonal([1, 2, 3, 4])


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
        inv = classify(PENCIL.fiber_matrix((1, 1), F7), F7)
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
    # P^5(F_13) has 402,234 points, more than one chunk: the scan must
    # generate every row exactly once, never more than CHUNK_ROWS at a time,
    # and split across threads to the same list
    from quadring import gfp

    generated = []
    original = gfp.projective_points_array

    def spy(*args, **kwargs):
        rows = original(*args, **kwargs)
        generated.append(len(rows))
        return rows

    monkeypatch.setattr(gfp, "projective_points_array", spy)
    f13 = PrimeField(13)
    seq = points_on_X(accepted_net.net, f13, jobs=1)
    assert sum(generated) == projective_size(5, 13) > gfp.CHUNK_ROWS
    assert max(generated) <= gfp.CHUNK_ROWS
    generated.clear()
    assert points_on_X(accepted_net.net, f13, jobs=3) == seq
    assert sum(generated) == projective_size(5, 13)
    assert max(generated) <= gfp.CHUNK_ROWS
    assert seq and all(mat.q(pt, f13) == 0 for pt in seq for mat in accepted_net.net.matrices)


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


def test_lines_through_point_plane_pair():
    # all three forms kill e0, e1 and their span: the line <e0, e1> lies in X
    rng = random.Random(11)
    mats = []
    for _ in range(3):
        m = [list(row) for row in random_symmetric(rng, 6, p=5).entries]
        for i in (0, 1):
            for j in (0, 1):
                m[i][j] = 0
        mats.append(GramMatrix.from_rows(m))
    net = QuadricNet(n=4, m=2, matrices=tuple(mats))
    found = lines_through_point(net, (1, 0, 0, 0, 0, 0), F5)
    assert found, "planted line was not detected"
    # the direction e1 (pivot 0 deleted) must be among them
    assert (1, 0, 0, 0, 0) in found


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
    from quadring.gfp import enumerate_projective

    for s in enumerate_projective(2, F5):
        c_net = classify(net.fiber_matrix(s, F5), F5).corank
        c_red = classify(reduced_fiber_gram(red, s, F5), F5).corank
        assert c_net == c_red


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
    from quadring.gfp import enumerate_projective, legendre_character
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
    assert red.gram_size == 2 and red.reduced_dim == 0
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
    from quadring.gfp import enumerate_projective
    from quadring.quadform import forms_congruent

    rng = random.Random(5)
    net = _net_with_planted_line(rng)
    red_a = hyperbolic_reduce_family(net, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    red_b = hyperbolic_reduce_family(net, [[2, 4, 0, 0, 0, 0], [2, -2, 0, 0, 0, 0]])
    assert red_b.pivots == (0, 1)
    for s in enumerate_projective(2, F5):
        ga = reduced_fiber_gram(red_a, s, F5)
        gb = reduced_fiber_gram(red_b, s, F5)
        assert forms_congruent(ga, gb, F5)
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
        fibers = [
            classify(net.fiber_matrix(s, field), field)
            for s in [(1, t) for t in range(5)] + [(0, 1)]
        ]
        if all(f.rank == 4 and f.signed_disc_character == 1 for f in fibers):
            break
    expected_fiber = p**2 + p + 1 + p  # split quadric surface (p+1)^2
    assert count_total_space(net, field) == projective_size(1, p) * expected_fiber
    # with no branch points every base point has two preimages in the cover
    assert count_double_cover(net, field) == 2 * projective_size(1, p)


def test_verify_relations_42(accepted_net):
    reports = verify_relations(accepted_net.net, accepted_net.point, [3, 5, 7])
    for rep in reports:
        assert not rep.skipped
        assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}
        assert not rep.line_through_point_found
        assert rep.x_count == rep.y_count


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
