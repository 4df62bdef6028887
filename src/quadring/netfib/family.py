"""Nets and pencils of quadrics: the integer family, its fibers over P^m,
the base locus X, and the rational-level regularity and line checks.

A QuadricNet holds m+1 integer symmetric (n+2) x (n+2) Gram matrices
M_0..M_m; the fiber over a base point w is M(w) = sum w_i M_i.  Keeping the
matrices over Z lets one net be reduced at many primes; primes where the
reduction misbehaves (corank >= 2 fibers, regularity violations) are meant
to be skipped and reported by callers, not patched over.  `fibers` builds
the Grams of a chunk of base points with one exact `modmat.matmul_mod`.
`fiber_table` classifies the net's fibers once per prime: the regularity
scan, Q, Y and a reduction's Qbar and cover all read that one table.  At
p > N it evaluates the discriminant f = det M(w) and eliminates only the
singular points of f = 0.  By Jacobi's formula d_i f = tr(adj M(w) M_i).
At corank 1 with radical r, adj M(w) = c r r^T with c != 0, so
grad f(w) = c (q_0(r), .., q_m(r)); at corank >= 2, adj M(w) = 0.  So
grad f vanishes at a zero exactly where the fiber has corank >= 2 or its
radical lies on X, the only fibers the regularity scan and a section test
can flag.  For even N the other zeros have rank N - 1 and character 0.

The base locus X in P^(n+1) is counted by one of two scans.  Given a
point P of X, `points_on_X` projects from it, the route of the blow-up
model: a walk of P^(n-1) (`proportional_zeros`) plus the lines through
P.  Without one, it solves the forms for their last coordinate over P^n
(`quadform.common_zeros`).  Every scan takes the net's stack of residues
(`QuadricNet.residues`) or a restriction of it.

The geometric conditions "X is smooth" and "no line through P over the
algebraic closure" are only ever tested at the F_p-rational level here, and
the reports say so: they certify the absence of F_p-rational violations,
nothing more.  The relation residuals computed in `relations` fail loudly
if a geometric hypothesis actually fails, which is the compensating check.
Both are zero scans on a subspace (`quadform.zeros_on_span`), each charged
to `budget` for that subspace only, except that a corank-1 radical is one
point, tested for every such fiber at once.  The regularity scan reads the
kernels of the fibers the table keeps from one elimination
(`modmat.kernel_stack`) and stops at its first violation; every subspace
it could scan is charged before it starts.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import DegenerateSectionError, InputError, json_int, load_json_object
from ..gfp import PrimeField, ProjPoint, canonical_rows, inverse, projective_row_chunks
from ..gfp import scale_to_canonical, scan_projective, size_within_budget
from .. import modmat
from ..modmat import _mod
from ..quadform import FiberChunk, GramMatrix, classify_stack, common_zeros, fiber_classes, signed_character
from ..quadform import _linear_and_constant, _rank_and_det, quadratic_roots, quadric_points, restrict, zeros_on_span

NET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class QuadricNet:
    """A family of n-dimensional quadrics over P^m given by m+1 integer
    symmetric Gram matrices of size n+2."""

    n: int
    m: int
    matrices: tuple[GramMatrix, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 1:
            raise InputError(f"bad family shape n={self.n}, m={self.m}")
        if len(self.matrices) != self.m + 1:
            raise InputError(
                f"expected {self.m + 1} matrices for m={self.m}, got {len(self.matrices)}"
            )
        for mat in self.matrices:
            if mat.size != self.n + 2:
                raise InputError(
                    f"matrix size {mat.size} does not match n+2={self.n + 2}"
                )

    @property
    def fiber_size(self) -> int:
        return self.n + 2

    def residues(self, field: PrimeField) -> np.ndarray:
        """The stack (m+1, N, N) of the Grams M_0..M_m mod p."""
        return modmat.residues([mat.entries for mat in self.matrices], field)

    def fibers(self, field: PrimeField) -> Iterator[FiberChunk]:
        """(base rows w, stack of fiber Grams M(w) mod p) for each chunk of
        rows of P^m(F_p), in canonical order."""
        for w in projective_row_chunks(self.m, field):
            yield w, _fiber_grams(self, w, field)

    def to_document(self, point: Sequence[int] | None = None) -> dict:
        doc = {
            "format_version": NET_FORMAT_VERSION,
            "n": self.n,
            "m": self.m,
            "matrices": [
                [x for row in mat.entries for x in row] for mat in self.matrices
            ],
        }
        if point is not None:
            doc["point"] = [int(x) for x in point]
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> tuple["QuadricNet", tuple[int, ...] | None]:
        if "format_version" in doc and json_int(doc["format_version"], "format_version") != NET_FORMAT_VERSION:
            raise InputError(f"unsupported net format_version {doc['format_version']!r}, expected {NET_FORMAT_VERSION}")
        try:
            n = json_int(doc["n"], "n")
            m = json_int(doc["m"], "m")
            flat = doc["matrices"]
        except KeyError as exc:
            raise InputError(f"malformed net document: missing {exc}") from exc
        size = n + 2
        if not isinstance(flat, list) or len(flat) != m + 1:
            raise InputError(f"expected {m + 1} matrices, got {len(flat) if isinstance(flat, list) else 'non-list'}")
        mats = []
        for row_major in flat:
            if not isinstance(row_major, list) or len(row_major) != size * size:
                raise InputError(f"each matrix must be a flat array of {size * size} integers")
            entries = tuple(json_int(x, "matrix entry") for x in row_major)
            mats.append(GramMatrix(tuple(entries[i * size : (i + 1) * size] for i in range(size))))  # symmetry validated here
        point = doc.get("point")
        if point is not None:
            if not isinstance(point, list):
                raise InputError("point must be an array of integers")
            point = tuple(json_int(x, "point coordinate") for x in point)
            if len(point) != size:
                raise InputError(f"point has length {len(point)}, expected {size}")
        return cls(n=n, m=m, matrices=tuple(mats)), point


def _fiber_grams(net: QuadricNet, rows: np.ndarray, field: PrimeField) -> np.ndarray:
    """The stack of fiber Grams M(w) mod p at the base rows w."""
    mats = net.residues(field).reshape(net.m + 1, -1)
    return modmat.matmul_mod(rows, mats, field.p).reshape(-1, net.fiber_size, net.fiber_size)


def load_net(path: str) -> tuple[QuadricNet, tuple[int, ...] | None]:
    return QuadricNet.from_document(load_json_object(path, "net file"))


def points_on_X(
    net: QuadricNet,
    field: PrimeField,
    budget: int = 2_000_000,
    jobs: int = 1,
    point: Sequence[int] | None = None,
    lines: Sequence[ProjPoint] | None = None,
) -> list[ProjPoint]:
    """All canonical points of P^(n+1)(F_p) on which every form of the net
    vanishes, in canonical enumeration order.  The result does not depend
    on the route or on `jobs`: each route splits its walk into one index
    range per job.

    Without `point`, the scan is `quadform.common_zeros`, solved for the
    last coordinate: it walks P^n, charged to `budget`.

    With a point P of X, the scan projects from P.  A point other than P
    is sP + v with v_pivot = 0, and q_j(sP + v) = 2s B_j(v) + q_j(v) for
    B_j = b_j(P, .).  So [v] with B(v) = 0 carries p points of X when
    q(v) = 0, which are the directions of `lines_through_point` (`lines`,
    when the caller has them already), and [v] with B(v) != 0 carries one
    point when q(v) is a multiple of B(v).  In a basis of v-space whose
    first m+1 vectors map onto the unit vectors under B and whose others
    span ker B, these [v] are `proportional_zeros` of the forms,
    a walk of P^(n-1) charged to `budget`.  B has rank below m+1 only
    when w^T B = 0 for some base point w; then M(w)P = 0, since q_w(P) = 0
    as well, so P is a point of X in a fiber's radical, the violation
    that `regularity_check` reports and `count` skips.  That case raises
    DegenerateSectionError.  Raises BudgetExceededError when the space
    walked has more than `budget` points.
    """
    if point is None:
        return list(map(tuple, common_zeros(net.residues(field), field, budget, jobs).tolist()))
    return _points_by_projection(net, point, field, budget, jobs, lines)


@functools.lru_cache(maxsize=1)  # one span at one prime, read by the line scan, the X count and the reduced family
def split_at(net: QuadricNet, rows: tuple[tuple[int, ...], ...], field: PrimeField):
    """The splitting V = U + V' mod p for the span U of integer rows on X,
    from one `modmat.row_reduce` of the rows mod p: (U's reduced rows, for
    one point its canonical form; the coordinates of V' off their pivots;
    the net's Grams mod p; the polar rows, row j holding u^T M_j on those
    coordinates for each reduced row u in turn).  Shared by every caller
    at p, so read-only; raises InputError, not cached, when U loses
    dimension mod p or does not lie on X there."""
    p = field.p
    rank, reduced, pivot = modmat.row_reduce(modmat.residues(rows, field)[None], p)
    if rank[0] < len(rows):
        raise InputError(f"isotropic basis degenerates mod {p}; reduction invalid there")
    u, mats = reduced[0], net.residues(field)
    polar = modmat.matmul_mod(u, mats, p)  # (m+1, k+1, N)
    if modmat.matmul_mod(polar, u.T, p).any():  # b_j(u, u') = q_j on U
        raise InputError("point does not lie on the base locus X")
    kept = np.flatnonzero(~pivot[0].any(axis=0))
    split = u, kept, mats, polar[:, :, kept].reshape(net.m + 1, -1)
    for array in split:
        array.flags.writeable = False
    return split


def _points_by_projection(
    net: QuadricNet,
    point: Sequence[int],
    field: PrimeField,
    budget: int,
    jobs: int,
    lines: Sequence[ProjPoint] | None,
) -> list[ProjPoint]:
    """`points_on_X` by projection from the point."""
    p = field.p
    (rep,), kept, mats, linear = split_at(net, (tuple(point),), field)
    if lines is None:
        lines = lines_through_point(net, point, field, budget)
    # T [B | I] reduces to [R | T]: every pivot lies inside B exactly when
    # B has full rank, and then the columns of T put on B's pivot columns
    # are vectors L_j with B L_j = e_j
    k, dim = len(linear), len(kept)
    _, rref, pivot = modmat.row_reduce(np.hstack((linear, np.eye(k, dtype=np.int64)))[None], p)
    if pivot[0, :, dim:].any():
        raise DegenerateSectionError(
            f"the point {tuple(rep.tolist())} lies in the radical of a fiber at p={p}: b(P, .) has rank below {k}"
        )
    # row i of T goes to the pivot column of row i: one term per entry
    basis = np.vstack((rref[0, :, dim:].T @ pivot[0, :, :dim], modmat.kernel_basis(linear, dim, field)))
    forms = restrict(mats[:, kept][:, :, kept], basis, p)
    rows, factor = proportional_zeros(forms, field, budget, jobs)
    # sP + v: s = -l / 2 where q(v) = l B(v), every s on a line direction,
    # and P itself as v = 0, s = 1
    directions = np.array(lines, dtype=np.int64).reshape(-1, dim)
    vectors = np.vstack((modmat.matmul_mod(rows, basis, p), np.repeat(directions, p, axis=0), np.zeros((1, dim), dtype=np.int64)))
    shifts = np.concatenate((factor * ((p - 1) // 2) % p, np.tile(np.arange(p), len(directions)), [1]))
    points = np.zeros((len(vectors), net.fiber_size), dtype=np.int64)
    points[:, kept] = vectors
    points = (points + shifts[:, None] * rep) % p
    return list(map(tuple, canonical_rows(points, p).tolist()))


def proportional_zeros(
    mats: np.ndarray, field: PrimeField, budget: int = 2_000_000, jobs: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The points [y] of P^(N-1)(F_p) whose head h = (y_0, .., y_(k-1)) is
    not 0 and at which the values of the k forms are a multiple of it,
    q_j(y) = l h_j, for a stack (k, N, N) of 2 <= k < N Gram matrices of
    residues: the canonical rows y in canonical order, and the factor l of
    each.

    Solved for the last coordinate t like `quadform.common_zeros`: on a
    block of the walk of P^(N-2), each q_j is a_j t^2 + 2 b_j(u) t + c_j(u),
    and the minor h_0 q_1 - h_1 q_0, whose coefficients need no pivot, is
    solved at every u by `quadratic_roots`; it vanishes at every t where
    h_0 = h_1 = 0, about one u in p^2.  Every q_j is tested at those roots.
    The rows with h = 0, e_last among them, are left out.  Raises
    BudgetExceededError when P^(N-2)(F_p) holds more than `budget` points.
    """
    p = field.p
    k, size = mats.shape[:2]
    if not 2 <= k < size:
        raise InputError(f"need 2 <= k < N forms, got {k} on {size} variables")
    a = [m[-1, -1] for m in mats]

    def zeros(h: np.ndarray, s: np.ndarray) -> np.ndarray:
        (b0, c0), (b1, c1), *_ = grids = [_linear_and_constant(m, h, s, p) for m in mats]
        # the first two coordinates of u = (h_i, s_j), as a column or a row
        x, y = (h[:, l, None] if l < h.shape[1] else s[None, :, l - h.shape[1]] for l in (0, 1))
        cell, t = quadratic_roots(
            np.broadcast_to(_mod(x * a[1] - y * a[0], p), b0.shape).ravel(),
            _mod(x * b1 - y * b0, p).ravel(),
            _mod(x * c1 - y * c0, p).ravel(),
            p,
        )
        i = cell // len(s)
        j = cell - i * len(s)
        head = [h[i, l] if l < h.shape[1] else s[j, l - h.shape[1]] for l in range(k)]
        values = [_mod(c.ravel()[cell] + _mod(2 * b.ravel()[cell] + a_l * t, p) * t, p) for (b, c), a_l in zip(grids, a)]
        # l = q_i at the pivot i of the head, the first nonzero entry
        factor = values[-1]
        for h_l, v_l in zip(head[-2::-1], values[-2::-1]):
            factor = np.where(h_l != 0, v_l, factor)
        on = np.logical_or.reduce([h_l != 0 for h_l in head])
        for h_l, v_l in zip(head, values):
            on &= _mod(v_l - h_l * factor, p) == 0
        on = np.flatnonzero(on)
        return np.hstack((h[i[on]], s[j[on]], t[on, None], factor[on, None]))

    found = scan_projective(size - 2, field, zeros, budget, jobs)
    return found[:, :-1], found[:, -1]


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the F_p-rational regularity scan.

    HEURISTIC: `regular` certifies that no F_p-rational radical vector of a
    degenerate fiber lies on the base locus X; geometric smoothness of X is
    not certified.  `corank2_found` reports fibers of corank >= 2 (these
    make the discriminant curve and the double cover singular).  `flat` is
    the corank < n+2 check (no fiber is the zero quadric).
    """

    p: int
    regular: bool
    corank2_found: bool
    flat: bool
    corank_histogram: dict[int, int]

    @property
    def skip_reason(self) -> str | None:
        """Why the relation checks skip this prime, every failed condition
        joined in a fixed order; None when the prime passes."""
        failed = (
            (not self.flat, "zero fiber (not flat)"),
            (self.corank2_found, "fiber of corank >= 2"),
            (not self.regular, "rational regularity violation"),
        )
        return "; ".join(reason for fails, reason in failed if fails) or None


def regularity_check(net: QuadricNet, field: PrimeField, budget: int = 2_000_000) -> RegularityReport:
    """The coranks of `fiber_table`, and whether `_violations` finds none;
    raises BudgetExceededError when the projective space of a kernel of
    dimension >= 2 has more than `budget` points, wherever the first
    violation lies."""
    size = net.fiber_size
    hist = dict(Counter((size - fiber_table(net, field)[0]).tolist()))
    return RegularityReport(
        p=field.p,
        regular=next(_violations(net, field, budget), None) is None,
        corank2_found=max(hist) >= 2,
        flat=size not in hist,
        corank_histogram=hist,
    )


def _violations(net: QuadricNet, field: PrimeField, budget: int) -> Iterator[tuple[ProjPoint, ProjPoint]]:
    """Every (base point w, canonical point of X in the radical of M(w)), in
    walk order.  The kernels of the fibers `fiber_table` keeps come from
    one `modmat.kernel_stack` call.  The one kernel vector u of a corank-1
    fiber lies on X when q_j(u) = 0 for every j, tested for all of them at
    once; the points of X on a larger kernel come from
    `quadform.zeros_on_span`, each such kernel's space checked against
    `budget` before the first point is yielded."""
    p, size = field.p, net.fiber_size
    _, _, rows, grams = fiber_table(net, field)
    kernel_rank, kernels = modmat.kernel_stack(grams, p)
    for rank in kernel_rank[kernel_rank < size - 1].tolist():
        size_within_budget(size - rank - 2, p, budget)  # the walk of `zeros_on_span`
    u = kernels.sum(axis=1)  # the nonzero row of a corank-1 kernel
    mats = net.residues(field)
    values = _mod(modmat.matmul_mod(u, mats, p) * u, p).sum(axis=2) % p
    hit = (kernel_rank == size - 1) & ~values.any(axis=0)
    for i in np.flatnonzero(hit | (kernel_rank < size - 1)).tolist():
        kernel = kernels[i][kernels[i].any(axis=1)]
        found = scale_to_canonical(kernel, p) if hit[i] else zeros_on_span(mats, kernel, field, budget)
        yield from ((tuple(rows[i].tolist()), tuple(x)) for x in found.tolist())


def lines_through_point(
    net: QuadricNet,
    point: Sequence[int],
    field: PrimeField,
    budget: int = 2_000_000,
) -> list[ProjPoint]:
    """Directions [v'] in P(V/<P>)(F_p) spanning with P a line inside X.

    The point's pivot coordinate mod p is deleted to realize V/<P>
    (`split_at`); a direction v' qualifies when b(P, v'') = 0 and
    q(v'') = 0 for every form, v'' being the lift with 0 in the pivot
    slot.  `quadform.zeros_on_span` scans the pivot-deleted forms on the
    kernel of the linear conditions, normally a P^1, and raises
    BudgetExceededError when that kernel's projective space has more than
    `budget` points.  HEURISTIC for the
    geometric no-line condition: a line defined only over an extension
    field leaves no trace here.
    """
    _, kept, mats, linear = split_at(net, (tuple(point),), field)
    kernel = modmat.kernel_basis(linear, len(kept), field)
    return list(map(tuple, zeros_on_span(mats[:, kept][:, :, kept], kernel, field, budget).tolist()))


def count_total_space(net: QuadricNet, field: PrimeField) -> int:
    """#Q(F_p): the fiber quadric counts summed over the base P^m(F_p), by
    the closed form on the fibers' ranks and signed characters."""
    return quadric_points(net.fiber_size, *fiber_table(net, field)[:2], field.p)


@functools.lru_cache(maxsize=1)  # one net at one prime, all that any command reads at a time
def fiber_table(net: QuadricNet, field: PrimeField) -> tuple[np.ndarray, ...]:
    """Each fiber's rank and signed character, in walk order, and the base
    rows and Grams of those that can hold a violation or a degenerate
    section: at p > N `_net_table`'s singular points of det M(w) = 0, at
    p <= N every degenerate fiber of the walk of `QuadricNet.fibers`.
    Shared by every count at p, so read-only; an error is not cached."""
    if field.p > net.fiber_size:
        table = _net_table(net, field)
    else:
        table = fiber_classes(net.fibers(field), net.fiber_size, field.p)
    for array in table:
        array.flags.writeable = False
    return table


def _discriminant(net: QuadricNet, field: PrimeField) -> np.ndarray:
    """The coefficients mod p of det M(w), a form of degree N, for p > N, as
    a dense tensor (N+1)^(m+1) whose entry e is the coefficient of w^e, 0
    where |e| != N: det M(1, x) at the (N+1)^m nodes x in {0..N}^m from one
    elimination, interpolated by the inverse Vandermonde matrix of the nodes
    0..N along each axis, x^a homogenized to w_0^(N - |a|) w^a."""
    p, size, m = field.p, net.fiber_size, net.m
    grid = np.indices((size + 1,) * m).reshape(m, -1)  # x in {0..N}^m, in C order
    rank, det = _rank_and_det(_fiber_grams(net, np.vstack((np.ones_like(grid[:1]), grid)).T, field), p)
    coeffs, inverse_v = np.where(rank == size, det, 0), _inverse_vandermonde(size, field)
    for _ in range(m):  # V^-1 along the first axis, which the transpose moves to the last
        coeffs = modmat.matmul_mod(inverse_v, coeffs.reshape(size + 1, -1), p).T
    low = grid.sum(axis=0) <= size  # past |a| = N the coefficient of x^a is 0
    tensor = np.zeros((size + 1,) * (m + 1), dtype=np.int64)
    tensor[(size - grid[:, low].sum(axis=0), *grid[:, low])] = coeffs.reshape(-1)[low]
    return tensor


def _net_table(net: QuadricNet, field: PrimeField) -> tuple[np.ndarray, ...]:
    """`fiber_table` of a net at p > N: det M(w) on each pivot block j of
    P^m(F_p), the points (0, .., 0, 1, x) for x in F_p^(m-j) in C order, is
    `_discriminant` at w_0 = .. = w_(j-1) = 0 summed over w_j's axis, each
    other axis contracted with the powers 0..N of F_p by `modmat.matmul_mod`.
    Where det != 0 the fiber has rank N and the signed character of det;
    for even N, where det = 0 but not its `_gradient`, rank N - 1 and 0.
    One call classifies the rest, every zero for odd N, whose rank N - 1
    is even: the table's rows, rebuilt from their flat indices."""
    p, size, m = field.p, net.fiber_size, net.m
    coeffs = _discriminant(net, field)
    powers = np.ones((p, size + 1), dtype=np.int64)  # v^k for v in F_p, k in 0..N
    for k in range(1, size + 1):
        powers[:, k] = powers[:, k - 1] * np.arange(p) % p
    dets, rows = [], []
    for j in range(m + 1):
        block = coeffs[(0,) * j].sum(axis=0)  # one nonzero term per entry
        for _ in range(m - j):  # the first axis, which the transpose moves to the last
            block = modmat.matmul_mod(powers, block.reshape(size + 1, -1), p).T
        dets.append(block.reshape(-1))
        zero = np.flatnonzero(dets[-1] == 0)
        x = zero[:, None] // p ** np.arange(m - j - 1, -1, -1) % p
        rows.append(np.hstack((np.zeros((len(zero), j), dtype=np.int64), np.ones_like(zero)[:, None], x)))
    det, rows = np.concatenate(dets), np.concatenate(rows)
    rank, signed = size - (det == 0), signed_character(size, det, p)  # a zero left unclassified has corank 1
    singular = det == 0
    if size % 2 == 0:
        singular[singular] = ~_gradient(coeffs, powers[rows], p).any(axis=1)
    rows = rows[singular[det == 0]]
    grams = _fiber_grams(net, rows, field)
    rank[singular], signed[singular] = classify_stack(grams, p)
    return rank, signed, rows, grams


def _gradient(coeffs: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """d_0 f .. d_m f mod p at each row w, for `_discriminant`'s tensor C of
    f, from the powers w_l^k, k in 0..N, of the rows' coordinates, a stack
    (rows, m+1, N+1): d_i f has the tensor D_i[e] = (e_i + 1) C[e + 1_i],
    nonzero only where |e| = N - 1, contracted with the monomials w^e of
    that degree by one `modmat.matmul_mod`, exact for p < 2^31."""
    size, axes = coeffs.shape[0] - 1, coeffs.ndim
    low, unit = np.argwhere(np.indices(coeffs.shape).sum(axis=0) == size - 1), np.eye(axes, dtype=np.int64)
    partials = np.stack([coeffs[tuple((low + unit[i]).T)] * (low[:, i] + 1) % p for i in range(axes)], axis=1)
    monomials = powers[:, 0, low[:, 0]]
    for l in range(1, axes):
        monomials = monomials * powers[:, l, low[:, l]] % p
    return modmat.matmul_mod(monomials, partials, p)


@functools.cache
def _lagrange_basis(size: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """V^-1 for V[i, k] = i^k, i and k in 0..N: column i is prod_(j != i) (x - j),
    constant first, over prod_(j != i) (i - j) = (-1)^(N-i) i! (N-i)!."""

    def times(poly: list[int], j: int) -> list[int]:  # poly (x - j)
        return [a - j * b for a, b in zip([0] + poly, poly + [0])]

    columns = [functools.reduce(times, (j for j in range(size + 1) if j != i), [1]) for i in range(size + 1)]
    return list(zip(*columns)), [(-1) ** (size - i) * math.factorial(i) * math.factorial(size - i) for i in range(size + 1)]


def _inverse_vandermonde(size: int, field: PrimeField) -> np.ndarray:
    """V^-1 mod p for N < p: `_lagrange_basis`, each column times the
    inverse of its denominator."""
    numerators, denominators = _lagrange_basis(size)
    return modmat.residues(numerators, field) * [inverse(d % field.p, field.p) for d in denominators] % field.p
