"""Arithmetic in prime fields F_p (p odd) and canonical enumeration of P^n(F_p).

Field elements are plain Python ints in 0..p-1 with explicit modular
reduction everywhere; there is no lazy reduction.  A projective point is a
tuple of field elements in canonical form: not all zero, and the leftmost
nonzero coordinate equal to 1.  The canonical points of P^n(F_p) carry a
fixed total order (see :func:`enumerate_projective`), and every counting
loop in the package walks them in that order, which makes results
independent of how the index range is partitioned across workers.

Everything here is immutable and pure, hence safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

ProjPoint = tuple[int, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd prime p with 3 <= p < 2**31."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise ValueError(f"prime must be an int, got {type(self.p).__name__}")
        if self.p < 3 or self.p >= 2**31:
            raise ValueError(f"prime out of range [3, 2^31): {self.p}")
        if self.p % 2 == 0 or not _is_prime(self.p):
            raise ValueError(f"not an odd prime: {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, self.p - 2, self.p)


def legendre_character(a: int, field: PrimeField) -> int:
    """Quadratic character of a mod p: 0 for 0, 1 for squares, -1 otherwise.

    Computed by Euler's criterion a^((p-1)/2) mod p.
    """
    p = field.p
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def projective_size(n: int, p: int) -> int:
    """Number of points of P^n(F_p), i.e. (p^(n+1) - 1) / (p - 1)."""
    if n < 0:
        raise ValueError(f"negative dimension: {n}")
    return (p ** (n + 1) - 1) // (p - 1)


def canonical_point(coords: Sequence[int], field: PrimeField) -> ProjPoint:
    """Canonical representative of a projective point: leftmost nonzero is 1.

    Raises ValueError if all coordinates vanish mod p.
    """
    p = field.p
    reduced = [c % p for c in coords]
    for c in reduced:
        if c != 0:
            s = field.inv(c)
            return tuple(x * s % p for x in reduced)
    raise ValueError("zero vector does not define a projective point")


def enumerate_projective(n: int, field: PrimeField) -> Iterator[ProjPoint]:
    """Yield every point of P^n(F_p) exactly once, in canonical order.

    The order is: points grouped by pivot position j (the index of the
    leading 1) ascending, and inside a group the free coordinates
    x_{j+1}..x_n run lexicographically with x_{j+1} most significant.
    """
    p = field.p
    if n < 0:
        raise ValueError(f"negative dimension: {n}")
    for j in range(n + 1):
        free = n - j
        for offset in range(p**free):
            tail = []
            rem = offset
            for t in range(free):
                tail.append(rem // p ** (free - 1 - t))
                rem %= p ** (free - 1 - t)
            yield (0,) * j + (1,) + tuple(tail)


# Cache of full coordinate arrays for small P^n(F_p); rebuilt arrays are
# identical, caching only saves time for the enumeration-heavy counts.
_ARRAY_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ARRAY_CACHE_MAX_POINTS = 1_500_000


def projective_points_array(
    n: int, field: PrimeField, budget: int = 4_000_000
) -> np.ndarray:
    """All canonical points of P^n(F_p) as an int64 array, enumeration order.

    Rows follow exactly the order of :func:`enumerate_projective`.  Raises
    BudgetExceededError when the space has more than `budget` points.
    """
    p = field.p
    size = projective_size(n, p)
    if size > budget:
        raise BudgetExceededError(
            f"P^{n}(F_{p}) has {size} points, over the budget of {budget}"
        )
    key = (n, p)
    cached = _ARRAY_CACHE.get(key)
    if cached is not None:
        return cached
    blocks = []
    for j in range(n + 1):
        count = p ** (n - j)
        block = np.zeros((count, n + 1), dtype=np.int64)
        block[:, j] = 1
        offsets = np.arange(count, dtype=np.int64)
        for t in range(n - j):
            block[:, j + 1 + t] = (offsets // p ** (n - j - 1 - t)) % p
        blocks.append(block)
    arr = np.concatenate(blocks, axis=0)
    arr.setflags(write=False)
    if size <= _ARRAY_CACHE_MAX_POINTS:
        _ARRAY_CACHE[key] = arr
    return arr


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition range(total) into at most `parts` contiguous index ranges.

    The partition is deterministic, and unions of per-range results agree
    with a single-range run for any associative commutative merge.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    parts = min(parts, total) if total > 0 else 1
    step = -(-total // parts)
    ranges = []
    lo = 0
    while lo < total:
        hi = min(lo + step, total)
        ranges.append((lo, hi))
        lo = hi
    return ranges or [(0, 0)]
