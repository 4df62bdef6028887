"""Seeded rejection sampling of integer nets, cubics and (2,2) forms that
pass the rational-level acceptance gates at every requested prime.

All randomness flows from one explicit seed through random.Random; no
ambient entropy, so a given seed always returns the same artifact.  Sampled
nets carry a planted base point: every matrix gets a zero (0,0) entry, so
e0 = (1:0:...:0) lies on X over Z and reduces to a point of X(F_p) at every
prime at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import BudgetExceededError, InputError
from ..gfp import PrimeField
from ..mpoly import HomPoly
from ..quadform import GramMatrix
from .family import QuadricNet, lines_through_point, regularity_check
from .recipes import (
    PLANE_VARS,
    Fibration,
    cubic_fiber_grams,
    _double_cover_count,
    _singular_on_plane,
    _verra_fibrations,
)
from .relations import SUPPORTED_SHAPES

# Coefficient range and attempt budget of the cubic and (2,2) form searches.
RECIPE_COEFF_BOUND = 3
RECIPE_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class SearchResult:
    net: QuadricNet
    point: tuple[int, ...]
    attempts: int


def _random_symmetric(
    rng: random.Random, size: int, bound: int, zero_corner: bool
) -> GramMatrix:
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randint(-bound, bound)
            rows[i][j] = rows[j][i] = v
    if zero_corner:
        rows[0][0] = 0
    return GramMatrix.from_rows(rows)


def _net_acceptable(
    net: QuadricNet, point: Sequence[int], primes: Sequence[int]
) -> bool:
    for p in primes:
        field = PrimeField(p)
        if regularity_check(net, field).skip_reason is not None:
            return False
        if lines_through_point(net, point, field):
            return False
    return True


def random_net_search(
    n: int,
    m: int,
    primes: Sequence[int],
    seed: int,
    entry_bound: int = 9,
    max_attempts: int = 400,
) -> SearchResult:
    """Sample integer nets (entries in [-entry_bound, entry_bound]) until one
    passes, at every prime: regularity, no corank >= 2 fiber, flatness, and
    no rational line through the planted point e0.

    Raises BudgetExceededError when max_attempts samples all get rejected.
    """
    if (n, m) not in SUPPORTED_SHAPES:
        raise InputError(f"search supports shapes {SUPPORTED_SHAPES}, got {(n, m)}")
    if entry_bound < 1:
        raise InputError("entry bound must be at least 1")
    if max_attempts < 1:
        raise InputError(f"attempts must be at least 1, got {max_attempts}")
    rng = random.Random(seed)
    size = n + 2
    point = (1,) + (0,) * (size - 1)
    for attempt in range(1, max_attempts + 1):
        mats = [
            _random_symmetric(rng, size, entry_bound, zero_corner=True)
            for _ in range(m + 1)
        ]
        net = QuadricNet(n=n, m=m, matrices=tuple(mats))
        if _net_acceptable(net, point, primes):
            return SearchResult(net=net, point=point, attempts=attempt)
    raise BudgetExceededError(
        f"no acceptable ({n},{m}) net found in {max_attempts} attempts (seed {seed})"
    )


def _random_quadric_coeffs(rng: random.Random, bound: int) -> dict:
    terms = {}
    for i in range(6):
        for j in range(i, 6):
            c = rng.randint(-bound, bound)
            if c:
                exps = [0] * 6
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = c
    return terms


def _fibers_corank_at_most_one(fibration: Fibration, primes: Sequence[int]) -> bool:
    """Whether every fiber of the quadric fibration over P^2 has corank <= 1
    at every prime."""
    return not any(_double_cover_count(fibration, PrimeField(p))[1] for p in primes)


def random_cubic_with_plane(primes: Sequence[int], seed: int) -> HomPoly:
    """A random cubic x3*Q3 + x4*Q4 + x5*Q5 that, at every requested prime,
    is smooth at every F_p-point of the plane x3 = x4 = x5 = 0 and whose
    induced quadric fibration has corank <= 1 over every fiber: the two
    hypotheses of the plane-projection identity."""
    rng = random.Random(seed)
    for _ in range(RECIPE_MAX_ATTEMPTS):
        cubic = HomPoly.zero(6, 3)
        for v in PLANE_VARS:
            quadric = HomPoly(6, 2, _random_quadric_coeffs(rng, RECIPE_COEFF_BOUND))
            cubic = cubic + HomPoly.variable(6, v) * quadric
        if cubic.is_zero():
            continue
        grams = cubic_fiber_grams(cubic)
        if any(_singular_on_plane(grams, PrimeField(p)) for p in primes):
            continue
        if _fibers_corank_at_most_one(grams, primes):
            return cubic
    raise BudgetExceededError(
        f"no acceptable cubic found in {RECIPE_MAX_ATTEMPTS} attempts (seed {seed})"
    )


def random_verra_form(primes: Sequence[int], seed: int) -> HomPoly:
    """A random bidegree-(2,2) form whose two quadric fibrations both have
    corank <= 1 everywhere at every requested prime."""
    rng = random.Random(seed)
    s_monos = [
        (i, j) for i in range(3) for j in range(i, 3)
    ]
    for _ in range(RECIPE_MAX_ATTEMPTS):
        terms: dict[tuple, int] = {}
        for si, sj in s_monos:
            for ti, tj in s_monos:
                c = rng.randint(-RECIPE_COEFF_BOUND, RECIPE_COEFF_BOUND)
                if c:
                    exps = [0] * 6
                    exps[si] += 1
                    exps[sj] += 1
                    exps[3 + ti] += 1
                    exps[3 + tj] += 1
                    terms[tuple(exps)] = c
        if not terms:
            continue
        form = HomPoly(6, 4, terms)
        if all(_fibers_corank_at_most_one(fibration, primes) for fibration in _verra_fibrations(form)):
            return form
    raise BudgetExceededError(
        f"no acceptable (2,2) form found in {RECIPE_MAX_ATTEMPTS} attempts (seed {seed})"
    )
