import pytest

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


def test_points_array_matches_enumeration():
    f = PrimeField(3)
    arr = projective_points_array(3, f)
    assert [tuple(int(x) for x in row) for row in arr] == list(
        enumerate_projective(3, f)
    )


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
