import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quadring import modmat
from quadring.errors import BudgetExceededError, InputError
from quadring.gfp import (
    PrimeField,
    projective_points_array,
    projective_size,
)
from quadring.quadform import (
    GramMatrix,
    classify,
    classify_stack,
    common_zeros,
    count_projective_points,
    double_cover_count,
    quadratic_roots,
    quadric_points,
    zeros_on_span,
    _rank_and_det,
)

from _util import (
    congruent_transform,
    diagonal_gram,
    diagonal_invariants,
    diagonalize,
    disc_character,
    find_isotropic_vector,
    form_values,
    forms_congruent,
    full_scan_zeros,
    hyperbolic_reduce_at_vector,
    kernel_array,
    legendre_character,
    list_rank,
    on_all_forms,
    residue_stack,
    projective_rows_where,
    random_invertible,
    random_symmetric,
    record_scan_blocks,
    zero_gram,
)

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)
HYPERBOLIC = GramMatrix.from_rows([[0, 1], [1, 0]])
SPLIT_4 = GramMatrix.from_rows(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)


def test_symmetry_enforced():
    with pytest.raises(InputError):
        GramMatrix.from_rows([[0, 1], [2, 0]])


def test_diagonalize_identity():
    d, a = diagonalize(diagonal_gram([1, 1, 1]), F5)
    assert d == (1, 1, 1)
    assert a == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_diagonalize_hyperbolic_plane():
    d, a = diagonalize(HYPERBOLIC, F5)
    assert all(x != 0 for x in d)
    # det class is -1 modulo squares
    assert legendre_character(d[0] * d[1], F5) == legendre_character(-1, F5)
    # and the congruence transform actually diagonalizes
    at_ma = congruent_transform(HYPERBOLIC, [list(r) for r in a], F5)
    assert at_ma == diagonal_gram(d)


@pytest.mark.parametrize("seed", range(4))
def test_diagonalize_random(seed):
    rng = random.Random(seed)
    for _ in range(50):
        m = random_symmetric(rng, 6, p=7)
        d, a = diagonalize(m, F7)
        assert congruent_transform(m, [list(r) for r in a], F7) == diagonal_gram(d)
        assert modmat.det_mod(a, F7) != 0
        assert sum(1 for x in d if x != 0) == modmat.rank_mod(m.entries, 6, F7)


def test_classify_examples():
    assert classify(zero_gram(4), F5) == (0, 1)  # the empty determinant is 1
    for field in (F3, F5, F7):
        assert classify(SPLIT_4, field) == (4, 1)
    assert classify(diagonal_gram([1, 1, 1, 1]), F3) == (4, 1)
    # odd rank records the 0 sentinel
    assert classify(diagonal_gram([1, 1, 1]), F7) == (3, 0)


def test_count_examples():
    conic = diagonal_gram([1, 1, 1])
    assert count_projective_points(conic, F5) == 6  # smooth conic is a P^1
    assert count_projective_points(SPLIT_4, F3) == 16  # (p+1)^2
    assert len(common_zeros(residue_stack([SPLIT_4], F3), F3)) == 16
    nonsplit = diagonal_gram([1, 1, 1, 2])
    assert classify(nonsplit, F3) == (4, -1)
    assert count_projective_points(nonsplit, F3) == 10  # p^2 + 1
    assert len(common_zeros(residue_stack([nonsplit], F3), F3)) == 10
    assert count_projective_points(zero_gram(3), F5) == 31  # all of P^2


def test_brute_force_examples():
    assert len(common_zeros(residue_stack([zero_gram(2)], F3), F3)) == 4  # all of P^1
    for field in (F3, F5, F7):
        rank1 = GramMatrix.from_rows([[1, 0], [0, 0]])
        assert len(common_zeros(residue_stack([rank1], field), field)) == 1  # the point (0:1)
    with pytest.raises(BudgetExceededError):
        common_zeros(residue_stack([zero_gram(6)], F7), F7, budget=100)


@pytest.mark.parametrize("size,p", [(4, 3), (5, 5), (6, 7)])
def test_closed_form_matches_brute_force_random(size, p):
    field = PrimeField(p)
    rng = random.Random(size * 100 + p)
    mats = [random_symmetric(rng, size, p=p) for _ in range(300)]
    rank, signed = classify_stack(np.array([m.entries for m in mats]), p)
    brute = [len(common_zeros(residue_stack([m], field), field)) for m in mats]
    for i in range(len(mats)):
        assert quadric_points(size, rank[i : i + 1], signed[i : i + 1], p) == brute[i]
    assert quadric_points(size, rank, signed, p) == sum(brute)


@st.composite
def _stack(draw, size, p):
    """Symmetric size x size residue matrices mod p: sums of r random
    rank-one terms c v v^T for every r in 0..size (r = 0 is the zero
    matrix), and a zero-diagonal matrix with a nonzero off-diagonal entry
    (the u_j <- u_j + u_l pivot)."""
    residues = st.integers(0, p - 1)
    mats = []
    for r in range(size + 1):
        m = np.zeros((size, size), dtype=object)
        for _ in range(r):
            v = np.array(draw(st.lists(residues, min_size=size, max_size=size)), dtype=object)
            m = m + draw(st.integers(1, p - 1)) * np.outer(v, v)
        mats.append(m)
    if size > 1:
        m = np.zeros((size, size), dtype=object)
        for i in range(size):
            for j in range(i + 1, size):
                m[i, j] = m[j, i] = draw(residues)
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        m[i, j] = m[j, i] = draw(st.integers(1, p - 1))
        mats.append(m)
    return [GramMatrix.from_rows((m % p).tolist()) for m in mats]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 6), p=st.sampled_from([3, 5, 7, 101, 2**31 - 1]))
def test_classify_stack_matches_the_diagonalize_oracle(data, size, p):
    field = PrimeField(p)
    mats = data.draw(_stack(size, p))
    rank, signed = classify_stack(np.array([m.entries for m in mats], dtype=np.int64), p)
    assert list(zip(rank.tolist(), signed.tolist())) == [diagonal_invariants(m, field) for m in mats]
    if size % 2:
        with pytest.raises(InputError):
            double_cover_count(size, rank, signed)
        return
    # the determinant oracle: 1 + chi((-1)^(N/2) det M) per matrix
    sign = (-1) ** (size // 2)
    expected = sum(1 + legendre_character(sign * modmat.det_mod(m.entries, field), field) for m in mats)
    assert double_cover_count(size, rank, signed) == expected


def _mixed_members(rng: random.Random, size: int, p: int) -> list[np.ndarray]:
    """Two each of: a zero corner with a nonzero diagonal entry further on
    (its first pivot moves), a zero diagonal with a nonzero off-diagonal
    entry (stuck), the zero matrix, and a diagonal without zeros (its pivot
    is always in place), shuffled."""

    def symmetric() -> np.ndarray:
        upper = np.triu([[rng.randrange(p) for _ in range(size)] for _ in range(size)])
        return (upper + np.triu(upper, 1).T).astype(np.int64)

    members = []
    for _ in range(2):
        if size > 1:
            corner = symmetric()
            corner[0, 0], corner[-1, -1] = 0, rng.randrange(1, p)
            stuck = symmetric()
            np.fill_diagonal(stuck, 0)
            stuck[0, -1] = stuck[-1, 0] = rng.randrange(1, p)
            members += [corner, stuck]
        members += [np.zeros((size, size), dtype=np.int64), np.diag([rng.randrange(1, p) for _ in range(size)])]
    rng.shuffle(members)
    return members


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 7), p=st.sampled_from([3, 5, 7, 101, 2**31 - 1]))
def test_pivot_product_is_the_determinant_at_full_rank(data, size, p):
    # the Schur update keeps the determinant: at full rank the product of the
    # pivots is det M itself, not only its square class, whether the pivots
    # stay in place, move, or come from a zero diagonal
    field = PrimeField(p)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    members = [np.array(m.entries, dtype=np.int64) for m in data.draw(_stack(size, p))] + _mixed_members(rng, size, p)
    full = [m for m in members if modmat.det_mod(m.tolist(), field)]
    rank, det = _rank_and_det(np.array(full), p)
    assert (rank == size).all()
    assert det.tolist() == [modmat.det_mod(m.tolist(), field) for m in full]


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
@pytest.mark.parametrize("size", range(1, 7))
def test_mixed_stack_classifies_like_its_members_one_at_a_time(size, p):
    # moving one member's pivot to the front must not touch another member
    stack = np.array(_mixed_members(random.Random(size * 7 + p), size, p))
    before = stack.copy()
    rank, signed = classify_stack(stack, p)
    alone = [classify_stack(member[None], p) for member in stack]
    assert list(zip(rank.tolist(), signed.tolist())) == [(int(r[0]), int(s[0])) for r, s in alone]
    assert (stack == before).all()
    assert (rank[~stack.any(axis=(1, 2))] == 0).all() and rank.max() == size


def _zeros_in_memory(grams, field):
    # all of P^(N-1) as one array, each form evaluated on every row
    rows = projective_points_array(grams[0].size - 1, field)
    return rows[on_all_forms(grams, field)(rows)]


@st.composite
def _form(draw, size, p):
    kind = draw(st.sampled_from(["random", "zero", "rank1"]))
    if kind == "zero":
        return zero_gram(size)
    if kind == "rank1":  # l l^T vanishes exactly where the linear form l does
        ell = draw(st.lists(st.integers(-p, p), min_size=size, max_size=size))
        return GramMatrix.from_rows([[a * b for b in ell] for a in ell])
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
    return GramMatrix.from_rows(rows)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 6), p=st.sampled_from([3, 5, 7, 11]), jobs=st.integers(1, 3))
def test_common_zeros_match_the_in_memory_scan(data, size, p, jobs):
    field = PrimeField(p)
    grams = data.draw(st.lists(_form(size, p), min_size=1, max_size=4))
    expected = _zeros_in_memory(grams, field)
    points = projective_size(size - 2, p)  # the solved scan walks P^(N-2)
    assert np.array_equal(common_zeros(residue_stack(grams, field), field, budget=points, jobs=jobs), expected)
    assert np.array_equal(projective_rows_where(size - 1, field, on_all_forms(grams, field), jobs=jobs), expected)
    if size > 1:  # at N = 1 the walk is of P^-1, which has no points to charge
        with pytest.raises(BudgetExceededError):
            common_zeros(residue_stack(grams, field), field, budget=points - 1)


def test_common_zeros_on_p1_solve_one_quadratic():
    # N = 2: the walk of P^0 is the one point u = 1, where the first form is
    # a t^2 + 2 b t + c; every (a, b, c) of F_7 against `quadratic_roots` at
    # one cell, alone and with a second form tested at its roots
    p = 7
    field = PrimeField(p)
    other = GramMatrix.from_rows([[1, 2], [2, 3]])
    for a, b, c in itertools.product(range(p), repeat=3):
        form = GramMatrix.from_rows([[c, b], [b, a]])
        _, t = quadratic_roots(np.array([a]), np.array([b]), np.array([c]), p)
        expected = [[1, x] for x in t.tolist()] + [[0, 1]] * (a == 0)
        assert common_zeros(residue_stack([form], field), field, budget=1).tolist() == expected
        both = [row for row in expected if other.q(row, field) == 0]
        assert common_zeros(residue_stack([form, other], field), field, budget=1).tolist() == both


@st.composite
def _basis(draw, size, p):
    """1 to `size` rows of residues in F_p^size spanning a subspace of
    dimension >= 1, as an int64 array: random ones, possibly dependent, or
    the identity (all of P^(size-1))."""
    if draw(st.booleans()):
        return np.eye(size, dtype=np.int64)
    k = draw(st.integers(1, size))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=size, max_size=size), min_size=k, max_size=k))
    assume(any(map(any, rows)))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 6), p=st.sampled_from([3, 5, 7, 11]))
def test_zeros_on_span_match_the_in_memory_mask(data, size, p):
    # oracle: the rows of P^(size-1) orthogonal to the kernel of the basis
    # (exactly its span) on which every form vanishes
    field = PrimeField(p)
    grams = data.draw(st.lists(_form(size, p), min_size=1, max_size=4))
    basis = data.draw(_basis(size, p))
    rows = projective_points_array(size - 1, field)
    normals = kernel_array(basis.tolist(), size, field)
    in_span = (rows @ normals.T % p == 0).all(axis=1)
    expected = rows[in_span & on_all_forms(grams, field)(rows)]
    rank = list_rank(basis.tolist(), size, field)
    points = projective_size(rank - 2, p)
    assert np.array_equal(zeros_on_span(residue_stack(grams, field), basis, field, budget=points), expected)
    if rank > 1:  # a span of one point walks P^-1, which has no points to charge
        with pytest.raises(BudgetExceededError):
            zeros_on_span(residue_stack(grams, field), basis, field, budget=points - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=st.data(),
    size=st.integers(1, 6),
    p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
    last=st.sampled_from(["free", "all", "first"]),
    jobs=st.integers(1, 2),
)
def test_solved_common_zeros_match_the_full_scan(data, size, p, last, jobs):
    # "all": every form's last diagonal entry is 0 mod p, so e_last is a
    # zero and the first form is linear in t; "first": only the first
    # nonzero form's is, so the forms tested at its roots are not
    assume(projective_size(size - 1, p) <= 200_000)
    field = PrimeField(p)
    grams = [[list(row) for row in g.entries] for g in data.draw(st.lists(_form(size, p), min_size=1, max_size=4))]
    nonzero = [g for g in grams if any(x % p for row in g for x in row)]
    for g in {"free": [], "all": grams, "first": nonzero[:1]}[last]:
        g[-1][-1] = p * data.draw(st.integers(-2, 2))
    grams = [GramMatrix.from_rows(g) for g in grams]
    assert np.array_equal(common_zeros(residue_stack(grams, field), field, jobs=jobs), full_scan_zeros(grams, field))


@pytest.mark.parametrize("p", [5, 13, 17])
def test_common_zeros_without_tables_match_the_full_scan(monkeypatch, p):
    # past TABLE_PRIMES the roots and inverses come from Tonelli-Shanks and
    # pow on each block's distinct values; 17 - 1 = 2^4 takes every
    # Tonelli-Shanks step
    from quadring import gfp

    rng = random.Random(p)
    field = PrimeField(p)
    cases = [[random_symmetric(rng, size, p=p) for _ in range(k)] for size in (2, 3, 4) for k in (1, 2)]
    cases.append([GramMatrix.from_rows([[1, 1, 0], [1, 0, 2], [0, 2, 0]])])  # linear in the last coordinate
    expected = [full_scan_zeros(grams, field) for grams in cases]
    monkeypatch.setattr(gfp, "TABLE_PRIMES", 2)
    for grams, want in zip(cases, expected):
        assert np.array_equal(common_zeros(residue_stack(grams, field), field), want)


@pytest.mark.parametrize("p", [10_007, 998_244_353, 2**31 - 1])
def test_common_zeros_on_a_line_at_large_primes(p):
    # on P^1 the walk is the one point u = 1: (x1 - r x0)(x1 - r' x0), doubled
    # to stay integral, has the zeros (1 : r) and (1 : r'); x1^2 - n x0^2 with
    # n no square has none; x0 (c x0 + 2 x1) has (1 : -c/2) and e_last
    field = PrimeField(p)
    r, r2, c = 3, p - 12, 7
    split = GramMatrix.from_rows([[2 * r * r2, -(r + r2)], [-(r + r2), 2]])
    assert common_zeros(residue_stack([split], field), field, budget=1).tolist() == [[1, r], [1, r2]]
    n = next(n for n in range(2, p) if legendre_character(n, field) == -1)
    assert len(common_zeros(residue_stack([diagonal_gram([-n, 1])], field), field, budget=1)) == 0
    linear = GramMatrix.from_rows([[c, 1], [1, 0]])
    assert common_zeros(residue_stack([linear], field), field, budget=1).tolist() == [[1, (p - c) * (p + 1) // 2 % p], [0, 1]]


def test_common_zeros_split_the_plane_when_it_outgrows_a_chunk(monkeypatch):
    # with CHUNK_ROWS below p^2, one prefix row meets F_p^2 in several grids
    from quadring import gfp

    rng = random.Random(5)
    cases = [
        (PrimeField(p), [random_symmetric(rng, size, p=p) for _ in range(2)])
        for size, p in ((3, 3), (4, 5), (5, 3))
    ]
    expected = [_zeros_in_memory(grams, field) for field, grams in cases]
    monkeypatch.setattr(gfp, "CHUNK_ROWS", 4)
    blocks = record_scan_blocks(monkeypatch)
    for (field, grams), want in zip(cases, expected):
        assert len(want) and np.array_equal(common_zeros(residue_stack(grams, field), field, jobs=2), want)
    assert max(len(h) * len(s) for h, s in blocks) <= 4


def test_count_invariant_under_congruence():
    rng = random.Random(31)
    for _ in range(40):
        m = random_symmetric(rng, 5, p=7)
        a = random_invertible(rng, 5, F7)
        assert count_projective_points(m, F7) == count_projective_points(
            congruent_transform(m, a, F7), F7
        )


def test_hyperbolic_reduction_of_split_form():
    red = hyperbolic_reduce_at_vector(SPLIT_4, (1, 0, 0, 0), F5)
    assert red.size == 2
    assert forms_congruent(red, HYPERBOLIC, F5)


def test_hyperbolic_reduction_preconditions():
    with pytest.raises(InputError):
        hyperbolic_reduce_at_vector(diagonal_gram([1, 1]), (1, 0), F5)  # not isotropic
    corank1 = diagonal_gram([0, 1, 1, 1])
    with pytest.raises(InputError):
        hyperbolic_reduce_at_vector(corank1, (1, 0, 0, 0), F5)  # radical vector


@pytest.mark.parametrize("seed", range(3))
def test_reduction_drops_rank_two_and_keeps_signed_disc(seed):
    rng = random.Random(seed)
    done = 0
    while done < 80:
        m = random_symmetric(rng, 6, p=7)
        rank, signed = classify(m, F7)
        if rank != 6:
            continue
        v = find_isotropic_vector(m, F7, rng)
        if v is None:
            continue
        red = hyperbolic_reduce_at_vector(m, v, F7)
        assert red.size == 4 and classify(red, F7) == (4, signed)
        done += 1


def test_reduction_preserves_corank_on_corank1_forms():
    rng = random.Random(8)
    done = 0
    while done < 60:
        core = random_symmetric(rng, 5, p=7)
        if classify(core, F7)[0] != 5:
            continue
        padded = [[core.entries[i][j] for j in range(5)] + [0] for i in range(5)]
        padded.append([0] * 6)
        m = congruent_transform(
            GramMatrix.from_rows(padded), random_invertible(rng, 6, F7), F7
        )
        assert classify(m, F7)[0] == 5
        v = find_isotropic_vector(m, F7, rng)
        if v is None:
            continue
        red = hyperbolic_reduce_at_vector(m, v, F7)
        assert red.size - classify(red, F7)[0] == 1
        done += 1


def test_witt_cancellation_two_reductions_congruent():
    rng = random.Random(9)
    done = 0
    while done < 60:
        m = random_symmetric(rng, 6, p=7)
        v1 = find_isotropic_vector(m, F7, rng)
        v2 = find_isotropic_vector(m, F7, rng, avoid=v1)
        if v1 is None or v2 is None:
            continue
        r1 = hyperbolic_reduce_at_vector(m, v1, F7)
        r2 = hyperbolic_reduce_at_vector(m, v2, F7)
        assert forms_congruent(r1, r2, F7)
        done += 1


def test_forms_congruent_examples():
    rng = random.Random(10)
    for _ in range(30):
        m = random_symmetric(rng, 4, p=7)
        a = random_invertible(rng, 4, F7)
        assert forms_congruent(m, congruent_transform(m, a, F7), F7)
    # 3 is not a square mod 7: discriminant classes 1 vs 3 differ
    assert legendre_character(3, F7) == -1
    assert not forms_congruent(
        diagonal_gram([1, 1]), diagonal_gram([1, 3]), F7
    )
    assert not forms_congruent(
        diagonal_gram([1, 0]), diagonal_gram([1, 1]), F7
    )
    with pytest.raises(InputError):
        forms_congruent(zero_gram(2), zero_gram(3), F7)


def test_disc_character_zero_form():
    assert disc_character(zero_gram(3), F5) == 1


def test_matmul_mod_is_exact_below_2_31():
    # p = 2^31 - 1, the largest prime PrimeField accepts: a plain int64
    # product of such residues overflows once three terms are added
    p = 2**31 - 1
    rng = random.Random(4)
    a = [[rng.randrange(p - 9, p) for _ in range(5)] for _ in range(4)]
    b = [[rng.randrange(p - 9, p) for _ in range(3)] for _ in range(5)]
    expected = [[sum(a[i][t] * b[t][j] for t in range(5)) % p for j in range(3)] for i in range(4)]
    with np.errstate(over="ignore"):
        assert (np.array(a) @ np.array(b) % p).tolist() != expected
    assert modmat.matmul_mod(np.array(a), np.array(b), p).tolist() == expected
    # a stack against one matrix, as the fiber walks use it
    assert modmat.matmul_mod(np.array([a, a]), np.array(b), p).tolist() == [expected, expected]


def test_residues_reduce_entries_beyond_int64():
    values = [[2**70 + 3, -(2**65)], [5, -1]]
    got = modmat.residues(values, F7)
    assert got.dtype == np.int64
    assert got.tolist() == [[x % 7 for x in row] for row in values]
    huge = GramMatrix.from_rows([[2**70, 0], [0, 7 * 2**64 + 1]])
    assert form_values(np.array([[1, 1]]), huge, F7).tolist() == [(2**70 + 1) % 7]
