import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadring.errors import BudgetExceededError
from quadring.gfp import (
    PrimeField,
    canonical_point,
    enumerate_projective,
    legendre_character,
    projective_points_array,
    projective_size,
    split_ranges,
)

from _util import projective_rows_where


def test_prime_field_validation():
    PrimeField(3)
    PrimeField(2**31 - 1)  # Mersenne prime, largest allowed
    for bad in (1, 2, 4, 9, 15, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_legendre_examples():
    f7 = PrimeField(7)
    assert legendre_character(0, f7) == 0
    assert legendre_character(4, f7) == 1
    # squares mod 7 are {1, 2, 4}
    squares = {x * x % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert legendre_character(3, f7) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_legendre_multiplicative_exhaustive(p):
    f = PrimeField(p)
    chars = [legendre_character(a, f) for a in range(p)]
    for a in range(p):
        for b in range(p):
            assert chars[a * b % p] == chars[a] * chars[b]


@pytest.mark.parametrize("p", [5, 11])
def test_legendre_square_scaling(p):
    f = PrimeField(p)
    for t in range(1, p):
        for a in range(p):
            assert legendre_character(t * t * a, f) == legendre_character(a, f)


def test_projective_sizes():
    assert projective_size(0, 5) == 1
    assert projective_size(1, 3) == 4
    assert projective_size(5, 7) == 19608  # (7^6 - 1) / 6


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_enumeration_complete_and_duplicate_free(p, n):
    f = PrimeField(p)
    pts = list(enumerate_projective(n, f))
    assert len(pts) == projective_size(n, p)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        lead = next(x for x in pt if x != 0)
        assert lead == 1


@pytest.mark.parametrize("n,p", [(0, 3), (1, 5), (2, 7), (3, 3), (4, 5), (5, 3)])
def test_points_array_follows_the_order_rule(n, p):
    # canonical rows, each point once, all of P^n(F_p), sorted by pivot
    # position and then lexicographically
    f = PrimeField(p)
    rows = [tuple(row) for row in projective_points_array(n, f).tolist()]
    assert all(canonical_point(row, f) == row for row in rows)
    assert len(set(rows)) == len(rows) == projective_size(n, p)

    def pivot(row):
        return next(i for i, x in enumerate(row) if x)

    assert rows == sorted(rows, key=lambda row: (pivot(row), row))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 5),
    p=st.sampled_from([3, 5, 7]),
    cuts=st.lists(st.floats(0, 1), max_size=6),
)
# P^2(F_3) has pivot blocks [0, 9), [9, 12), [12, 13): these cuts give the
# empty range [0, 0) and ranges inside one block and across two
@example(n=2, p=3, cuts=[0.0, 0.0, 0.5, 0.7])
def test_index_ranges_concatenate_to_the_full_array(n, p, cuts):
    # any cut of [0, size) into consecutive ranges reproduces the full array
    f = PrimeField(p)
    full = projective_points_array(n, f)
    size = len(full)
    bounds = sorted([0, size, *(int(c * size) for c in cuts)])
    pieces = [projective_points_array(n, f, lo=lo, hi=hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces), full)


def test_rows_where_is_the_filtered_order():
    f = PrimeField(5)
    full = projective_points_array(3, f)
    keep = lambda rows: rows.sum(axis=1) % 5 == 0
    for jobs in (1, 2, 7):
        assert np.array_equal(projective_rows_where(3, f, keep, jobs=jobs), full[keep(full)])


def test_scan_starts_no_more_threads_than_cpus(monkeypatch):
    # a recording executor that runs every part in the calling thread: no
    # thread is started, whatever `jobs` asks for
    from quadring import gfp

    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return map(fn, parts)

    monkeypatch.setattr(gfp, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(gfp.os, "cpu_count", lambda: 3)
    f = PrimeField(5)
    keep = lambda rows: rows.sum(axis=1) % 5 == 0
    expected = projective_rows_where(4, f, keep, jobs=1)
    assert pools == []
    for jobs in (2, 10_000):
        assert np.array_equal(projective_rows_where(4, f, keep, jobs=jobs), expected)
    assert pools == [2, 3]


def test_points_array_budget():
    with pytest.raises(BudgetExceededError):
        projective_points_array(5, PrimeField(101), budget=1000)


def test_canonical_point():
    f = PrimeField(7)
    assert canonical_point((0, 3, 5), f) == (0, 1, 4)  # scaled by 3^{-1} = 5
    assert canonical_point((14, 2, 1), f) == (0, 1, 4)
    with pytest.raises(ValueError):
        canonical_point((7, 14, 0), f)


def test_split_ranges_partition():
    for total in (0, 1, 7, 40):
        for parts in (1, 2, 3, 8):
            ranges = split_ranges(total, parts)
            covered = [i for lo, hi in ranges for i in range(lo, hi)]
            assert covered == list(range(total))
