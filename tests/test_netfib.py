import dataclasses
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadring import modmat, quadform
from quadring.cli import main
from quadring.errors import BudgetExceededError, DegenerateSectionError, InputError
from quadring.gfp import (
    PrimeField,
    canonical_point,
    enumerate_projective,
    projective_points_array,
    projective_size,
)
from quadring.quadform import GramMatrix, classify, double_cover_count, fiber_classes, quadric_points, zeros_on_span
from quadring.netfib import family, reduction
from quadring.netfib.family import proportional_zeros
from quadring.netfib import (
    QuadricNet,
    count_double_cover,
    count_reduced_family,
    count_total_space,
    hyperbolic_reduce_family,
    lines_through_point,
    load_net,
    points_on_X,
    regularity_check,
    verify_relations,
)

from _util import corank_histogram_reduced, count_reduced_family_dual, determinant_of_linear_matrix, diagonal_gram, fiber_list, form_values, forms_congruent, gram_from_array, inverse_vandermonde_by_elimination, kernel_array, legendre_character, lift, list_kernel_basis, list_rank, projective_rows_where, random_invertible, random_symmetric, record_scan_blocks, reduced_fibers, split_mod_p, unimodular_pair, moved_net, zero_gram

GOLDEN = Path(__file__).parent / "data" / "golden"

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)

PENCIL = QuadricNet(
    n=2,
    m=1,
    matrices=(diagonal_gram([1, 1, 1, 1]), diagonal_gram([0, 1, 2, 3])),
)


def test_net_validation():
    with pytest.raises(InputError):
        QuadricNet(n=2, m=1, matrices=(diagonal_gram([1, 1, 1, 1]),))
    with pytest.raises(InputError):
        QuadricNet(n=2, m=1, matrices=(zero_gram(3), zero_gram(3)))


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
    """Reference: the reduced fiber Gram over s from the net and U mod p,
    with the bilinear rows b_s(u, .) on the coordinates off U's pivots mod
    p and the restriction of M(s) to their kernel summed in Python ints."""
    fiber = _fiber_by_sums(red.net, s, field)
    u_rows, kept = split_mod_p(red, field)
    lin = [[fiber.b(u, lift([c], [1], red.n + 2), field) for c in kept] for u in u_rows]
    if list_rank(lin, len(kept), field) < red.k + 1:
        raise DegenerateSectionError(f"section degenerates over base point {tuple(s)} at p={field.p}")
    basis = [lift(kept, v, red.n + 2) for v in list_kernel_basis(lin, len(kept), field)]
    return GramMatrix.from_rows([[fiber.b(x, y, field) for y in basis] for x in basis])


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
            diagonal_gram([1] * 6),
            zero_gram(6),
            zero_gram(6),
        ),
    )
    assert _fiber_at(net, (1, 0, 0), F7) == diagonal_gram([1] * 6)
    assert _fiber_at(PENCIL, (1, 1), F7) == diagonal_gram([1, 2, 3, 4])


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
    moved, point = load_net(str(GOLDEN / "net_moved.json"))  # pivot entry 3
    reductions.append(hyperbolic_reduce_family(moved, [list(point)]))
    reductions.append(hyperbolic_reduce_family(_huge_entry_net(accepted_net.net), [list(accepted_net.point)]))
    for red in reductions:
        expected = [(s, _reduced_fiber_by_sums(red, s, field)) for s in enumerate_projective(red.m, field)]
        assert fiber_list(reduced_fibers(red, field)) == expected
    assert fiber_list(reduced_fibers(reductions[-1], field)) == fiber_list(reduced_fibers(reductions[0], field))


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
        assert classify(GramMatrix.from_rows(scaled), F7)[0] == classify(_fiber_at(PENCIL, (1, 1), F7), F7)[0]


def test_pencil_stratification_over_f7():
    # discriminant lambda(lambda+mu)(lambda+2mu)(lambda+3mu): four simple roots
    hist = regularity_check(PENCIL, F7).corank_histogram
    assert hist == {0: 4, 1: 4}


def test_zero_net_flatness_violation():
    zero_net = QuadricNet(n=2, m=1, matrices=(zero_gram(4), zero_gram(4)))
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
            diagonal_gram([1] * 6),
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


@st.composite
def _planted_net(draw):
    """A random (4,2) or (2,1) net of residues mod p <= 23 with a planted
    point P of X at a random pivot, and one of: nothing more, a rational
    line <P, w> inside X, or P in the radical of M_0, so that the linear
    forms b_j(P, .) lose rank."""
    n, m = draw(st.sampled_from([(4, 2), (2, 1)]))
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]))
    plant = draw(st.sampled_from(["point", "line", "rank drop"]))
    size, residue = n + 2, st.integers(0, p - 1)
    pivot = draw(st.integers(0, size - 1))
    point = np.array([0] * pivot + [1] + [draw(residue) for _ in range(size - pivot - 1)], dtype=np.int64)
    mats = []
    for _ in range(m + 1):
        upper = np.array([[draw(residue) if j >= i else 0 for j in range(size)] for i in range(size)], dtype=np.int64)
        mats.append(upper + np.triu(upper, 1).T)
    if plant == "rank drop":  # T P = 0 for T = I - P e_pivot^T, so M_0 P = 0
        t = np.eye(size, dtype=np.int64)
        t[:, pivot] -= point
        mats[0] = t.T @ mats[0] @ t % p
    if plant == "line":  # canonical w with w_pivot = 0: q(w) = b(P, w) = 0
        other = draw(st.integers(0, size - 1).filter(lambda i: i != pivot))
        w = np.array([0] * other + [1] + [draw(residue) for _ in range(size - other - 1)], dtype=np.int64)
        w[pivot] = 0
        for mat in mats:
            mat[other, other] -= w @ mat @ w
            mat[pivot, other] -= point @ mat @ w
            mat[other, pivot] = mat[pivot, other]
    for mat in mats:
        mat[pivot, pivot] -= point @ mat @ point
    net = QuadricNet(n=n, m=m, matrices=tuple(gram_from_array(mat % p) for mat in mats))
    return net, tuple(point.tolist()), PrimeField(p), plant


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_planted_net())
def test_points_on_x_by_projection_match_the_solved_scan(planted):
    # the projection from P against the solved scan of P^n, through a
    # planted line (p points per direction); a rank drop of b(P, .) puts P
    # in a fiber's radical, which the projection refuses and the
    # regularity scan reports
    net, point, field, plant = planted
    expected = points_on_X(net, field)
    lines = lines_through_point(net, point, field)
    kept = [i for i in range(net.fiber_size) if i != point.index(1)]
    polar = [[row[i] for i in kept] for row in (np.array([m.entries for m in net.matrices]) @ point).tolist()]
    projects = list_rank(polar, len(kept), field) == net.m + 1
    assert not projects or plant != "rank drop"  # the others may drop by chance
    assert lines or plant != "line"
    if not projects:
        with pytest.raises(DegenerateSectionError, match="lies in the radical of a fiber"):
            points_on_X(net, field, point=point)
        # the regularity scan stops at its first violation, so it is asked
        # even where every point of X lies in every radical (a net that
        # vanishes mod 23, #P^m #X pairs in all)
        assert regularity_check(net, field).regular is False
        return
    assert points_on_X(net, field, point=point) == expected
    assert points_on_X(net, field, jobs=2, point=point, lines=lines) == expected
    walked = projective_size(net.n - 1, field.p)
    assert points_on_X(net, field, budget=walked, point=point) == expected
    with pytest.raises(BudgetExceededError):
        points_on_X(net, field, budget=walked - 1, point=point)


def test_points_on_x_by_projection_solve_linear_cells(monkeypatch):
    # the solved minor h_0 q_1 - h_1 q_0 has the t^2 coefficient
    # h_0 a_1 - h_1 a_0, which vanishes on a hyperplane of the walk; there
    # the minor is linear in t, and at h_0 = h_1 = 0 every t is a root
    from quadring.netfib import family

    net, point = load_net(str(GOLDEN / "net.json"))
    original = family.quadratic_roots
    linear, every = [], []

    def spy(a, b, c, p):
        linear.append(((a == 0) & (b != 0)).sum())
        every.append(((a == 0) & (b == 0) & (c == 0)).sum())
        return original(a, b, c, p)

    monkeypatch.setattr(family, "quadratic_roots", spy)
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        assert points_on_X(net, field, point=point) == points_on_X(net, field)
        assert sum(linear) > 0 and sum(every) > 0
        linear.clear()
        every.clear()


def test_points_on_x_by_projection_need_a_point_on_x():
    with pytest.raises(InputError, match="does not lie on the base locus"):
        points_on_X(PENCIL, F7, point=(1, 0, 0, 0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(3, 6), p=st.sampled_from([3, 5, 7, 11]), jobs=st.integers(1, 2))
def test_proportional_zeros_match_the_in_memory_scan(data, size, p, jobs):
    # oracle: every row of P^(N-1), the values of the k forms against the
    # head h = (y_0, .., y_(k-1)) scaled by the value at its pivot; without
    # t^2 terms the solved minor is linear in t at every u, and a zero form
    # makes a minor vanish at every t
    field = PrimeField(p)
    k = data.draw(st.integers(2, size - 1))
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=k * size * size, max_size=k * size * size))
    upper = np.array(entries, dtype=np.int64).reshape(k, size, size)
    mats = np.triu(upper) + np.swapaxes(np.triu(upper, 1), 1, 2)
    if data.draw(st.booleans()):
        mats[:, -1, -1] = 0
    if data.draw(st.booleans()):
        mats[data.draw(st.integers(0, k - 1))] = 0
    rows = projective_points_array(size - 1, field)
    values = np.stack([form_values(rows, gram_from_array(m), field) for m in mats], axis=1)
    head = rows[:, :k]
    factor = values[np.arange(len(rows)), (head != 0).argmax(axis=1)]
    on = head.any(axis=1) & ((values - head * factor[:, None]) % p == 0).all(axis=1)
    points = projective_size(size - 2, p)
    found, scale = proportional_zeros(mats, field, budget=points, jobs=jobs)
    assert np.array_equal(found, rows[on]) and np.array_equal(scale, factor[on])
    with pytest.raises(BudgetExceededError):
        proportional_zeros(mats, field, budget=points - 1)


def test_proportional_zeros_need_fewer_forms_than_variables():
    with pytest.raises(InputError):
        proportional_zeros(np.zeros((3, 3, 3), dtype=np.int64), F7)
    with pytest.raises(InputError):
        proportional_zeros(np.zeros((1, 3, 3), dtype=np.int64), F7)


def test_regularity_pencil_example():
    report = regularity_check(PENCIL, F7)
    assert report.regular and report.flat and not report.corank2_found
    assert report.corank_histogram == {0: 4, 1: 4}


def test_regularity_common_radical_vector_flagged():
    rng = random.Random(3)
    rows = random_symmetric(rng, 3, p=5).entries
    padded = tuple(tuple(list(r) + [0]) for r in rows) + ((0, 0, 0, 0),)
    net = QuadricNet(
        n=2, m=1, matrices=(GramMatrix(padded), zero_gram(4))
    )
    assert not regularity_check(net, F5).regular


def test_regularity_zero_fiber_scans_its_kernel_within_the_budget():
    # the golden net with M_2 = 0: the fiber over (0:0:1) is the zero
    # quadric, whose radical is all of P^5, so every point of X violates
    # regularity there; the scan of that kernel, solved for its last
    # coordinate, is charged to the budget for P^4
    net, _ = load_net(str(GOLDEN / "net_zero_fiber.json"))
    f13 = PrimeField(13)
    report = regularity_check(net, f13)
    assert not report.flat and not report.regular and report.corank2_found
    assert list(family._violations(net, f13, 2_000_000)) == [((0, 0, 1), x) for x in points_on_X(net, f13)]
    with pytest.raises(BudgetExceededError):
        regularity_check(net, f13, budget=projective_size(4, 13) - 1)


def _violations_by_one_span_per_fiber(net, field):
    # one `zeros_on_span` on the list oracle's kernel of each degenerate
    # fiber, in walk order
    size = net.fiber_size
    return [
        (s, u)
        for rows, grams in net.fibers(field)
        for s, gram in zip(map(tuple, rows.tolist()), grams.tolist())
        if list_rank(gram, size, field) < size
        for u in map(tuple, zeros_on_span(net.residues(field), kernel_array(gram, size, field), field).tolist())
    ]


@st.composite
def _degenerate_net(draw):
    """A random net of residues mod p <= 13 on 2 to 5 variables over P^1 or
    P^2, and one of: nothing more, a planted point P of X in the radical of
    M_0 (the fiber over e_0), M_0 with the last two coordinates in its
    radical (corank >= 2), or that line inside X as well."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    plant = draw(st.sampled_from(["none", "radical", "corank 2", "line"]))
    size, residue = n + 2, st.integers(0, p - 1)
    mats = []
    for _ in range(m + 1):
        upper = np.array([[draw(residue) if j >= i else 0 for j in range(size)] for i in range(size)], dtype=np.int64)
        mats.append(upper + np.triu(upper, 1).T)
    point = None
    if plant == "radical":  # T P = 0 for T = I - P e_pivot^T, so M_0 P = 0
        pivot = draw(st.integers(0, size - 1))
        point = np.array([0] * pivot + [1] + [draw(residue) for _ in range(size - pivot - 1)], dtype=np.int64)
        t = np.eye(size, dtype=np.int64)
        t[:, pivot] -= point
        mats[0] = t.T @ mats[0] @ t % p
        for mat in mats:
            mat[pivot, pivot] -= point @ mat @ point
        point = tuple(point.tolist())
    if plant in ("corank 2", "line"):
        mats[0][-2:], mats[0][:, -2:] = 0, 0
    if plant == "line":
        for mat in mats:
            mat[-2:, -2:] = 0
    net = QuadricNet(n=n, m=m, matrices=tuple(gram_from_array(mat % p) for mat in mats))
    return net, PrimeField(p), plant, point


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_degenerate_net())
def test_batched_corank_1_radicals_match_one_span_per_fiber(degenerate):
    # the corank-1 radicals tested in one batch and the larger kernels
    # scanned one at a time give the violations of one scan per fiber, in
    # walk order
    net, field, plant, point = degenerate
    report = regularity_check(net, field)
    violations = list(family._violations(net, field, 2_000_000))
    assert violations == _violations_by_one_span_per_fiber(net, field)
    assert report.regular == (violations == [])
    e0 = (1,) + (0,) * net.m
    if plant == "radical":
        assert (e0, point) in violations
    if plant in ("corank 2", "line"):
        assert report.corank2_found
    if plant == "line":
        assert sum(s == e0 for s, _ in violations) >= field.p + 1


def test_regularity_budget_does_not_depend_on_the_first_violation():
    # M(1:0) = diag(1, 1, 1, 0) has e_3 in its radical and on X: the first
    # violation in walk order.  M(0:1) = diag(1, 0, 0, 0), last in walk
    # order, has a kernel of dimension 3, whose scan walks P^1.  The scan
    # stops at the first violation, yet every larger kernel's space is
    # charged to the budget first
    net = QuadricNet(n=2, m=1, matrices=(diagonal_gram([1, 1, 1, 0]), diagonal_gram([1, 0, 0, 0])))
    assert next(family._violations(net, F5, 6)) == ((1, 0), (0, 0, 0, 1))
    assert not regularity_check(net, F5, budget=6).regular
    with pytest.raises(BudgetExceededError, match=r"P\^1\(F_5\), which has 6 points, over the budget of 5"):
        regularity_check(net, F5, budget=5)


def test_regularity_check_without_degenerate_fibers(monkeypatch):
    # det(s M_0 + t M_1) = 3 s^2 - t^2 has no zero on P^1(F_5), 3 being no
    # square mod 5: the kernel stack is empty
    net = QuadricNet(n=0, m=1, matrices=(diagonal_gram([1, 3]), GramMatrix.from_rows([[0, 1], [1, 0]])))
    stacks = []
    original = modmat.kernel_stack

    def recording(mats, p):
        stacks.append(len(mats))
        return original(mats, p)

    monkeypatch.setattr(modmat, "kernel_stack", recording)
    report = regularity_check(net, F5)
    assert report.regular and report.flat and not report.corank2_found
    assert report.corank_histogram == {0: 6}
    assert stacks == [0]
    # det(s M_0 + t M_1) = -s^2 - t^2 vanishes at (1, 2) and (1, 3), -1 being
    # 2^2 mod 5, where its gradient (-2s, -2t) does not: two corank-1 fibers
    # whose radicals lie off X, and still no kernel to take
    net = QuadricNet(n=0, m=1, matrices=(diagonal_gram([1, -1]), GramMatrix.from_rows([[0, 1], [1, 0]])))
    report = regularity_check(net, F5)
    assert report.regular and report.flat and not report.corank2_found
    assert report.corank_histogram == {0: 4, 1: 2}
    assert stacks == [0, 0]


def test_regularity_check_scans_no_span_on_the_golden_net(monkeypatch):
    # every degenerate fiber of the golden net at p = 23 has corank 1, so
    # the batched test decides them all
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return zeros_on_span(*args, **kwargs)

    monkeypatch.setattr(family, "zeros_on_span", counting)
    net, _ = load_net(str(GOLDEN / "net.json"))
    family.fiber_table.cache_clear()
    report = regularity_check(net, PrimeField(23))
    assert report.regular and report.corank_histogram[1] > 0 and not report.corank2_found
    assert calls == []


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_unimodular_maps_keep_the_reduction(data, accepted_net, accepted_pencil):
    # x -> T x moves the point to T^-1 P, whose pivot entry may vanish mod p;
    # the reduction at every p must not see it.  The operations mix the
    # first three coordinates, where they move the point e0 most
    result = data.draw(st.sampled_from([accepted_net, accepted_pencil]))
    size = result.net.fiber_size
    pairs = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda ij: ij[0] != ij[1])
    ops = data.draw(st.lists(st.tuples(pairs, st.integers(-3, 3)).map(lambda op: (*op[0], op[1])), max_size=8))
    t, t_inv = unimodular_pair(ops, size)
    point = [sum(a * x for a, x in zip(row, result.point)) for row in t_inv]
    red = hyperbolic_reduce_family(result.net, [list(result.point)])
    moved = hyperbolic_reduce_family(moved_net(result.net, t), [point])
    for p in (3, 5, 7, 11, 13):
        field = PrimeField(p)
        expected = (count_reduced_family(red, field), count_double_cover(red, field), corank_histogram_reduced(red, field))
        assert (count_reduced_family(moved, field), count_double_cover(moved, field), corank_histogram_reduced(moved, field)) == expected


def test_reduce_family_rejects_non_isotropic():
    with pytest.raises(InputError):
        hyperbolic_reduce_family(PENCIL, [[1, 0, 0, 0]])  # q0(e0) = 1 over Z


def test_reduced_fiber_corank_matches_net(accepted_net):
    net, point = accepted_net.net, accepted_net.point
    red = hyperbolic_reduce_family(net, [list(point)])
    net_rank, *_ = fiber_classes(net.fibers(F5), net.fiber_size, 5)
    red_rank, *_ = fiber_classes(reduced_fibers(red, F5), red.fiber_size, 5)
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
    # the moved golden net's point (3, 1, 0, 0, 0, 0) has its pivot mod 3 at 1
    moved = load_net(str(GOLDEN / "net_moved.json"))
    for net, point in ((accepted_net.net, accepted_net.point), (accepted_pencil.net, accepted_pencil.point), moved):
        red = hyperbolic_reduce_family(net, [list(point)])
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
        n=1, m=1, matrices=(diagonal_gram([1, 1, 1]), zero_gram(3))
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
    # is (1, 2, 0), not the first point (1, 0, 0) of P^2.  The error is not
    # cached, so each count raises it again
    rng = random.Random(2)
    mats = []
    for b in (1, 2, 0):
        m = [list(row) for row in random_symmetric(rng, 6, p=5).entries]
        m[0] = [0, b, 0, 0, 0, 0]
        for i in range(6):
            m[i][0] = m[0][i]
        mats.append(GramMatrix.from_rows(m))
    red = hyperbolic_reduce_family(QuadricNet(n=4, m=2, matrices=tuple(mats)), [[1, 0, 0, 0, 0, 0]])
    reduction._reduced_classes.cache_clear()
    for count in (count_reduced_family, count_double_cover, count_reduced_family):
        with pytest.raises(DegenerateSectionError, match=r"base point \(1, 2, 0\) at p=5$"):
            count(red, F5)
    info = reduction._reduced_classes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_planted_line_reduced_grams_match_pointwise_sums(p):
    # k = 1: two bilinear rows per fiber.  At p = 13 the section degenerates,
    # and both routes name the same first base point.
    red = hyperbolic_reduce_family(
        _net_with_planted_line(random.Random(5)), [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    )
    field = PrimeField(p)
    try:
        expected = [(s, _reduced_fiber_by_sums(red, s, field)) for s in enumerate_projective(red.m, field)]
    except DegenerateSectionError as exc:
        with pytest.raises(DegenerateSectionError, match=re.escape(str(exc)) + "$"):
            fiber_list(reduced_fibers(red, field))
        return
    assert fiber_list(reduced_fibers(red, field)) == expected


def test_reduced_family_counts_call_no_kernel_basis(monkeypatch):
    # the reduced counts read the net's table and take no kernel
    net, point = load_net(str(GOLDEN / "net.json"))
    red = hyperbolic_reduce_family(net, [list(point)])
    calls = []
    original = modmat.kernel_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modmat, "kernel_basis", counting)
    family.fiber_table.cache_clear()  # a cached table would skip the net's walk
    field = PrimeField(53)
    assert count_reduced_family(red, field) == 8202016
    assert count_double_cover(red, field) == 2962
    assert calls == []


def test_the_rank_check_reduces_integers_of_any_size():
    # u_rows are integers over Z: an entry past 2^63 enters the split as its
    # residue mod p, so 53 * 2^64 times the point is 0 mod 53 and a unit
    # multiple of it mod 41
    net, point = load_net(str(GOLDEN / "net.json"))
    red = hyperbolic_reduce_family(net, [list(point)])
    (row,) = red.u_rows
    big = 53 * 2**64
    vanishing = dataclasses.replace(red, u_rows=(tuple(big * x for x in row),))
    with pytest.raises(InputError, match="isotropic basis degenerates mod 53"):
        count_reduced_family(vanishing, PrimeField(53))
    assert count_reduced_family(vanishing, PrimeField(41)) == 2969795
    shifted = dataclasses.replace(red, u_rows=((row[0] + big,) + row[1:],))
    assert count_reduced_family(shifted, PrimeField(53)) == 8202016


@pytest.mark.parametrize("command", ["count", "reduce"])
def test_each_family_is_classified_once_per_chunk(capsys, monkeypatch, command):
    # regularity, Q, Y and Qbar (count), or Qbar and both Y (reduce), read
    # the net's one table.  It eliminates its 7^2 node fibers once and then
    # only the singular points of its discriminant, none at p = 23, though
    # 23 fibers are degenerate; the reduction shifts that table and
    # classifies nothing of its own
    calls = []
    original = quadform._rank_and_det

    def counting(grams, p):
        calls.append(len(grams))
        return original(grams, p)

    for module in (quadform, family):
        monkeypatch.setattr(module, "_rank_and_det", counting)
    family.fiber_table.cache_clear()
    assert main([command, "--net", str(GOLDEN / "net.json"), "--primes", "23"]) == 0
    assert "SKIPPED" not in capsys.readouterr().out
    assert family.fiber_table.cache_info().misses == 1
    net, _ = load_net(str(GOLDEN / "net.json"))
    table = family.fiber_table(net, PrimeField(23))
    assert calls == [49, 0] and len(table[2]) == 0
    assert int((table[0] < net.fiber_size).sum()) == 23


def test_a_passing_prime_eliminates_no_degenerate_fiber(monkeypatch):
    # where the regularity scan passes, no rational fiber has corank >= 2 or
    # a radical on X, so the discriminant's gradient vanishes at none of its
    # zeros: the table eliminates its 7^2 node fibers and an empty stack
    calls = []
    original = quadform._rank_and_det

    def counting(grams, p):
        calls.append(len(grams))
        return original(grams, p)

    monkeypatch.setattr(family, "_rank_and_det", counting)
    monkeypatch.setattr(quadform, "_rank_and_det", counting)
    passed = Counter()
    for name in ("net", "net_moved", "net_plane_pair", "net_zero_fiber"):
        net, _ = load_net(str(GOLDEN / f"{name}.json"))
        for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            family.fiber_table.cache_clear()
            calls.clear()
            try:
                report = regularity_check(net, PrimeField(p))
            except BudgetExceededError:  # past 37 the zero fiber's kernel walks more of P^4 than the budget
                continue
            if report.skip_reason is None:
                assert calls == [49, 0], (name, p)
                passed[name] += 1
    assert passed == {"net": 13, "net_moved": 13, "net_plane_pair": 13}


def test_count_splits_v_once_per_prime(capsys):
    # the line scan, the X count by projection and the reduced family read
    # one `split_at` per prime
    family.split_at.cache_clear()
    reduction._reduced_classes.cache_clear()
    assert main(["count", "--net", str(GOLDEN / "net.json"), "--primes", "23,29"]) == 0
    info = family.split_at.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_regularity_check_takes_the_kernels_from_one_elimination(monkeypatch):
    # the plane-pair net has rational regularity violations at p = 3; the
    # batched kernels give the same violations, in the same order, as one
    # kernel per degenerate fiber in walk order
    net, _ = load_net(str(GOLDEN / "net_plane_pair.json"))
    expected = _violations_by_one_span_per_fiber(net, F3)

    def no_kernel_basis(*args):
        raise AssertionError("regularity_check called kernel_basis")

    monkeypatch.setattr(modmat, "kernel_basis", no_kernel_basis)
    family.fiber_table.cache_clear()
    assert expected and list(family._violations(net, F3, 2_000_000)) == expected
    assert not regularity_check(net, F3).regular


def test_fiber_table_is_read_only():
    # at p = 7 > N the golden net's 7 degenerate fibers are smooth points of
    # its discriminant, so its table keeps no rows; the walk at p = 5 < N
    # keeps every degenerate fiber
    net, _ = load_net(str(GOLDEN / "net.json"))
    table = family.fiber_table(net, F7)
    assert table[2].shape == (0, 3) and table[3].shape == (0, 6, 6)
    assert int((table[0] < net.fiber_size).sum()) == 7
    assert family.fiber_table(net, PrimeField(7)) is table
    walked = family.fiber_table(net, F5)
    assert len(walked[2]) == len(walked[3]) == int((walked[0] < net.fiber_size).sum()) > 0
    for array in (*table, *walked):
        assert not array.flags.writeable
        if len(array):
            with pytest.raises(ValueError):
                array[0] = 0


@pytest.mark.parametrize("p, qbar, y", [(3, 190, 20), (5, 956, 30), (41, 2969795, 1749), (53, 8202016, 2962)])
def test_reduced_classes_are_kept_for_one_family_at_one_prime(p, qbar, y):
    # Qbar and the reduced Y read one cached split and section test; an
    # equal family built again hits the cache, and the arrays are shared,
    # so read-only.  The moved net's point has pivot entry 3
    net, point = load_net(str(GOLDEN / "net_moved.json"))
    red, again = (hyperbolic_reduce_family(net, [list(point)]) for _ in range(2))
    assert red == again and red is not again
    field = PrimeField(p)
    reduction._reduced_classes.cache_clear()
    assert count_reduced_family(red, field) == qbar
    assert count_double_cover(again, PrimeField(p)) == y
    info = reduction._reduced_classes.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    classes = reduction._reduced_classes(again, field)
    assert classes is reduction._reduced_classes(red, field)
    for array in classes:
        with pytest.raises(ValueError):
            array[0] = 0


@st.composite
def _net_with_a_planted_span(draw):
    """A reduction at a prime 3..13 of a random integer net of shape (4,2),
    (2,1), (4,1) or (6,2) whose forms all vanish on U = <e_0, .., e_k>,
    k = 0 or 1, moved by a unimodular change of coordinates.  Row 0 of
    every Gram is a combination of the same r random rows, 0 <= r <= m+1,
    so below m+1 the section degenerates over a linear space of base points
    of dimension m - r, over all of P^m at r = 0."""
    n, m = draw(st.sampled_from([(4, 2), (2, 1), (4, 1), (6, 2)]))
    k, size = draw(st.integers(0, int(n >= 4))), n + 2
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    polar = [[0] * (k + 1) + [rng.randint(-9, 9) for _ in range(size - k - 1)] for _ in range(draw(st.integers(0, m + 1)))]
    mats = []
    for _ in range(m + 1):
        mat = [list(row) for row in random_symmetric(rng, size).entries]
        mat[1][1] = 0  # and row 0 below: U x U is zero for k = 0 and 1
        row = [sum(rng.randint(-9, 9) * x for x in column) for column in zip(*polar)] if polar else [0] * size
        for i, x in enumerate(row):
            mat[0][i] = mat[i][0] = x
        mats.append(GramMatrix.from_rows(mat))
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(lambda ij: ij[0] != ij[1])
    ops = draw(st.lists(st.tuples(pairs, st.integers(-2, 2)).map(lambda op: (*op[0], op[1])), max_size=6))
    t, t_inv = unimodular_pair(ops, size)
    span = [[row[i] for row in t_inv] for i in range(k + 1)]  # T^-1 e_i
    red = hyperbolic_reduce_family(moved_net(QuadricNet(n=n, m=m, matrices=tuple(mats)), t), span)
    return red, PrimeField(draw(st.sampled_from([3, 5, 7, 11, 13])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_net_with_a_planted_span())
def test_reduced_classes_are_the_nets_less_the_hyperbolic_planes(planted):
    # the reduced counts read the net's table, each rank less 2(k+1); the
    # oracle walks and classifies the reduced fibers themselves.  Where the
    # section degenerates both name the same first base point
    red, field = planted
    p, size = field.p, red.fiber_size
    family.fiber_table.cache_clear()
    try:
        rank, signed, _, _ = fiber_classes(reduced_fibers(red, field), size, p)
    except DegenerateSectionError as exc:
        for count in (count_reduced_family, count_double_cover):
            with pytest.raises(DegenerateSectionError, match=re.escape(str(exc)) + "$"):
                count(red, field)
        return
    got = reduction._reduced_classes(red, field)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, (rank, signed), strict=True))
    assert count_reduced_family(red, field) == quadric_points(size, rank, signed, p)
    assert count_double_cover(red, field) == double_cover_count(size, rank, signed)
    net_rank = family.fiber_table(red.net, field)[0]
    assert corank_histogram_reduced(red, field) == dict(Counter((red.net.fiber_size - net_rank).tolist()))


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
    for (sa, ga), (sb, gb) in zip(fiber_list(reduced_fibers(red_a, F5)), fiber_list(reduced_fibers(red_b, F5)), strict=True):
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
        rank, signed, _, _ = fiber_classes(net.fibers(field), 4, p)
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
        (101, 1082855644314, 10302, 106151708, {0: 10203, 1: 100}),
        (211, 89088362789672, 44600, 2001013226, {0: 44501, 1: 232}),
        (1009, 1057324425671865181, 1018801, 1038546173671, {0: 1018034, 1: 1057}),
    ],
)
def test_golden_net_fiber_counts_at_large_primes(p, q, y, qbar, hist):
    # values of the per-fiber Python classification (diagonalize, det_mod) at
    # 41 and 53, of the walk that classified every fiber at 101 and 211, and
    # of the net's table and the reduction's own kernel walk at 1009.  The
    # library reads both families off the net's table from its discriminant;
    # the walks, the oracles here, take seconds at 1009
    net, point = load_net(str(GOLDEN / "net.json"))
    red = hyperbolic_reduce_family(net, [list(point)])
    field = PrimeField(p)
    assert count_total_space(net, field) == q
    assert count_double_cover(net, field) == y == count_double_cover(red, field)
    assert count_reduced_family(red, field) == qbar
    assert regularity_check(net, field).corank_histogram == hist
    if p > 211:
        return
    assert corank_histogram_reduced(red, field) == hist
    rank, signed, _, _ = fiber_classes(net.fibers(field), net.fiber_size, p)
    assert (quadric_points(net.fiber_size, rank, signed, p), double_cover_count(net.fiber_size, rank, signed)) == (q, y)
    assert dict(Counter((net.fiber_size - rank).tolist())) == hist


@pytest.mark.parametrize("p, y", [(401, 162303), (1009, 1018801)])
def test_golden_net_double_cover_at_primes_past_the_walk(p, y):
    # values of the walk that classified every fiber; the net's table from
    # its discriminant makes them cheap enough to pin
    net, _ = load_net(str(GOLDEN / "net.json"))
    assert count_double_cover(net, PrimeField(p)) == y


def _plant_fiber(rng: random.Random, n: int, m: int, field: PrimeField, plant: str, w) -> QuadricNet:
    """A random (n, m) net mod p with the fiber M(w) planted: of corank 1,
    of corank 1 with its radical on every quadric, of corank 2 or more, or
    zero; or with a kernel vector common to every matrix, so that det M(w)
    vanishes identically mod p; or none."""
    p, size = field.p, n + 2
    mats = [np.array(random_symmetric(rng, size, p=p).entries, dtype=np.int64) for _ in range(m + 1)]
    if plant == "common kernel":  # A^T M A kills A^-1 e_0 when M kills e_0
        a = np.array(random_invertible(rng, size, field), dtype=np.int64)
        for mat in mats:
            mat[0, :] = mat[:, 0] = 0
        mats = [a.T @ mat @ a % p for mat in mats]
    elif plant != "none":
        rank = {"corank 1": size - 1, "radical on X": size - 1, "corank 2+": rng.randint(1, size - 2), "zero fiber": 0}[plant]
        a = np.array(random_invertible(rng, size, field), dtype=np.int64)
        diag = np.diag([rng.randrange(1, p) if i < rank else 0 for i in range(size)])
        if plant == "radical on X":  # q_j(A^-1 e_last) = 0 for every j, and M(w) kills it
            for mat in mats:
                mat[-1, -1] = 0
            mats = [a.T @ mat @ a % p for mat in mats]
        pivot = int(np.flatnonzero(w)[0])  # w_pivot = 1
        mats[pivot] = (a.T @ diag @ a - sum(x * mat for i, (x, mat) in enumerate(zip(w, mats)) if i != pivot)) % p
    return QuadricNet(n=n, m=m, matrices=tuple(gram_from_array(mat % p) for mat in mats))


@st.composite
def _net_with_a_planted_fiber(draw):
    """A random (4,2), (2,1), (4,1), (6,2) or (3,2) net mod a prime
    N < p <= 53, with one fiber planted by `_plant_fiber` at a base point w
    drawn from a drawn pivot block j: w_0 = .. = w_(j-1) = 0 and w_j = 1
    past j = 0."""
    n, m = draw(st.sampled_from([(4, 2), (2, 1), (4, 1), (6, 2), (3, 2)]))
    size = n + 2
    p = draw(st.sampled_from([q for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53) if q > size]))
    field = PrimeField(p)
    plant = draw(st.sampled_from(["none", "corank 1", "radical on X", "corank 2+", "zero fiber", "common kernel"]))
    pivot = draw(st.integers(0, m))
    start = projective_size(m, p) - projective_size(m - pivot, p)  # the points of pivot blocks 0..j-1
    w = projective_points_array(m, field)[start + draw(st.integers(0, p ** (m - pivot) - 1))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _plant_fiber(rng, n, m, field, plant, w), tuple(w.tolist()), field, plant


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_net_with_a_planted_fiber())
@example((_plant_fiber(random.Random(101), 4, 2, PrimeField(101), "corank 2+", (0, 1, 7)), (0, 1, 7), PrimeField(101), "corank 2+"))
def test_net_table_from_the_discriminant_matches_the_classified_walk(planted):
    net, w, field, plant = planted
    p, size = field.p, net.fiber_size
    family.fiber_table.cache_clear()
    table = family.fiber_table(net, field)
    rank, signed, rows, grams = fiber_classes(net.fibers(field), size, p)
    for got, want in zip(table[:2], (rank, signed), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the table keeps the walk's fibers of corank >= 2 and those whose
    # radical lies on X, where the discriminant's gradient vanishes; for odd
    # N it keeps every degenerate fiber, whose rank N - 1 is even
    kernel_rank, kernels = modmat.kernel_stack(grams, p)
    radical = kernels.sum(axis=1)  # the nonzero row of a corank-1 kernel
    values = np.einsum("fa,jab,fb->fj", radical, net.residues(field), radical) % p
    kept = (kernel_rank < size - 1) | ~values.any(axis=1) | (size % 2 == 1)
    for got, want in zip(table[2:], (rows[kept], grams[kept]), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    at_w = table[0][projective_points_array(net.m, field).tolist().index(list(w))]
    corank = {"none": None, "corank 1": 1, "radical on X": 1, "zero fiber": size}.get(plant)
    assert corank is None or at_w == size - corank
    assert plant != "corank 2+" or at_w <= size - 2
    assert plant != "radical on X" or list(w) in table[2].tolist()
    assert plant != "common kernel" or (table[0] < size).all()
    # the interpolated discriminant is det(sum w_i M_i) mod p
    coeffs = family._discriminant(net, field)
    det = determinant_of_linear_matrix([mat.entries for mat in net.matrices])
    assert {tuple(e): int(coeffs[tuple(e)]) for e in np.argwhere(coeffs).tolist()} == {
        e: c % p for e, c in det.terms.items() if c % p
    }


def test_discriminant_gradient_at_the_largest_prime():
    # the discriminant and its partials at p = 2^31 - 1, where `matmul_mod`
    # takes its split product, against the exact determinant of the golden
    # net and its derivative in Python ints
    net, _ = load_net(str(GOLDEN / "net.json"))
    p = 2**31 - 1
    field = PrimeField(p)
    det = determinant_of_linear_matrix([mat.entries for mat in net.matrices])
    coeffs = family._discriminant(net, field)
    assert {tuple(e): int(coeffs[tuple(e)]) for e in np.argwhere(coeffs).tolist()} == {
        e: c % p for e, c in det.terms.items() if c % p
    }
    rng = random.Random(31)
    rows = [[1, rng.randrange(p), rng.randrange(p)] for _ in range(4)] + [[0, 1, p - 1], [0, 0, 1], [1, 0, 0]]
    expected = [
        [
            sum(c * e[i] * math.prod(x ** (d - (l == i)) for l, (x, d) in enumerate(zip(w, e))) for e, c in det.terms.items() if e[i]) % p
            for i in range(net.m + 1)
        ]
        for w in rows
    ]
    powers = np.array([[[pow(x, k, p) for k in range(net.fiber_size + 1)] for x in w] for w in rows], dtype=np.int64)
    got = family._gradient(coeffs, powers, p)
    assert got.dtype == np.int64 and got.tolist() == expected


def test_inverse_vandermonde_in_closed_form_matches_the_elimination():
    for size in range(2, 9):
        for p in [q for q in range(size + 1, 54) if all(q % d for d in range(2, q))] + [1009, 2**31 - 1]:
            field = PrimeField(p)
            got = family._inverse_vandermonde(size, field)
            assert got.dtype == np.int64 and np.array_equal(got, inverse_vandermonde_by_elimination(size, field))


@pytest.mark.parametrize("p, x", [(101, 10302), (211, 44600)])
def test_golden_net_x_by_projection_at_large_primes(p, x):
    # #X by projection from the point against #Y from the classified
    # fibers, which shares no code with it (R4 = #X - #Y = 0)
    net, point = load_net(str(GOLDEN / "net.json"))
    field = PrimeField(p)
    assert len(points_on_X(net, field, budget=projective_size(3, p), point=point)) == x
    assert count_double_cover(net, field) == x


def test_verify_relations_42(accepted_net):
    reports = verify_relations(accepted_net.net, accepted_net.point, [3, 5, 7])
    for rep in reports:
        assert not rep.skipped
        assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}
        assert not rep.line_through_point_found
        assert rep.x_count == rep.y_count


def test_verify_relations_without_a_point_is_charged_p4():
    # without a point the X scan is the solved scan of P^4:
    # #P^4(F_37) = 1,926,221 fits the default budget, #P^4(F_41) = 2,896,405
    # does not, and with the point P^3(F_41) fits
    net, point = load_net(str(GOLDEN / "net.json"))
    (report,) = verify_relations(net, None, [37])
    assert report.point is None and report.x_count == report.y_count == 1439
    assert set(report.residuals.values()) == {0}
    with pytest.raises(BudgetExceededError, match=r"P\^4\(F_41\), which has 2896405 points, over the budget of 2000000"):
        verify_relations(net, None, [41])
    assert verify_relations(net, point, [41])[0].x_count == 1749


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


def test_count_skips_every_prime_where_the_point_is_in_a_radical(tmp_path, capsys, monkeypatch):
    # the golden net with P = e_0 in the kernel of M_0 over Z: P is a point
    # of X in the radical of the fiber over (1:0:0) at every prime, so b(P, .)
    # loses rank there and the regularity scan skips the prime before the X
    # count (at 7, 11 and 23 the net has no fiber of corank >= 2)
    from quadring.netfib import relations

    net, point = load_net(str(GOLDEN / "net.json"))
    assert point == (1, 0, 0, 0, 0, 0)
    mats = [[list(row) for row in mat.entries] for mat in net.matrices]
    for i in range(net.fiber_size):
        mats[0][0][i] = mats[0][i][0] = 0
    mats[1][0][0] = mats[2][0][0] = 0
    kernel_net = QuadricNet(n=4, m=2, matrices=tuple(GramMatrix.from_rows(m) for m in mats))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(kernel_net.to_document(point=point)))
    calls = []
    monkeypatch.setattr(relations, "points_on_X", lambda *args, **kwargs: calls.append(args))
    assert main(["count", "--net", str(path), "--primes", "7,11,23"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"p={p} SKIPPED (rational regularity violation)" for p in (7, 11, 23)] + ["RESULT: FAILED"]
    assert calls == []


def test_verify_relations_rejects_unsupported_shape():
    odd = QuadricNet(
        n=3, m=1, matrices=(diagonal_gram([1] * 5), zero_gram(5))
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
    assert rep.flat and not rep.regularity_violation and not rep.corank2_found
    assert rep.residuals == {"R1": 0, "R2": 0, "R3": 0, "R4": 0}


_ENTRIES = st.one_of(st.integers(-9, 9), st.sampled_from([2**70, -(2**70), 2**70 + 1]))


@st.composite
def _net_and_point(draw):
    """A net of small shape with symmetric entries up to 2^70 in size, and
    a point of its fiber size or None."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    size = n + 2
    mats = []
    for _ in range(m + 1):
        upper = {(i, j): draw(_ENTRIES) for i in range(size) for j in range(i, size)}
        mats.append(GramMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]))
    point = draw(st.none() | st.tuples(*[_ENTRIES] * size))
    return QuadricNet(n=n, m=m, matrices=tuple(mats)), point


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_net_and_point())
def test_net_documents_round_trip_through_json(net_and_point):
    net, point = net_and_point
    doc = json.loads(json.dumps(net.to_document(point=point)))
    assert QuadricNet.from_document(doc) == (net, point)


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
