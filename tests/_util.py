"""Shared helpers for the test suite, and the oracles the library is
checked against: per-matrix Python routines for the batched ones (the row
reduction and kernels of `modmat` among them), the Pell solver's
two-period scan and walk, the determinant of a matrix of linear forms, and
the reduced family walked fiber by fiber and counted along its other
projection."""

import math
import random
from collections import Counter

import numpy as np

from quadring import modmat, nslattice
from quadring.errors import DegenerateSectionError, InputError
from quadring.gfp import PrimeField, enumerate_projective, projective_row_chunks, projective_size
from quadring.mpoly import HomPoly
from quadring.netfib import QuadricNet, ReducedFamily
from quadring.netfib.family import split_at
from quadring.quadform import GramMatrix, fiber_classes, restrict


def legendre_character(a: int, field: PrimeField) -> int:
    """Quadratic character of a mod p: 0 for 0, 1 for squares, -1 otherwise,
    by its own Euler power a^((p-1)/2), so it shares no code with
    `gfp.character`."""
    p = field.p
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def gram_from_array(array: np.ndarray) -> GramMatrix:
    """The GramMatrix of an integer array."""
    return GramMatrix(tuple(map(tuple, array.tolist())))


def residue_stack(grams, field: PrimeField) -> np.ndarray:
    """The int64 stack (k, N, N) of the Gram matrices mod p, the input of
    the zero scans."""
    return modmat.residues([g.entries for g in grams], field)


def diagonal_gram(diag) -> GramMatrix:
    """The Gram matrix with `diag` on its diagonal and 0 elsewhere."""
    n = len(diag)
    return GramMatrix(tuple(tuple(int(diag[i]) if i == j else 0 for j in range(n)) for i in range(n)))


def zero_gram(n: int) -> GramMatrix:
    """The n x n zero Gram matrix."""
    return GramMatrix(tuple((0,) * n for _ in range(n)))


def monomial(num_vars: int, exps, coeff: int = 1) -> HomPoly:
    """coeff * x^exps."""
    exps = tuple(int(e) for e in exps)
    return HomPoly(num_vars, sum(exps), {exps: int(coeff)})


def scaled(f: HomPoly, c: int) -> HomPoly:
    """c * f."""
    return HomPoly(f.num_vars, f.degree, {e: k * c for e, k in f.terms.items()})


def determinant_of_linear_matrix(matrices) -> HomPoly:
    """det(sum_k s_k M_k) as an exact degree-N homogeneous polynomial in
    s_0..s_m, for m+1 square N x N integer matrices M_k (symmetric or not).

    Laplace expansion with memoization on column subsets: O(2^N) sparse
    polynomial combinations, fine for the sizes used here (N <= 8).  The
    oracle of the determinant double cover.
    """
    nvars = len(matrices)
    n = len(matrices[0]) if matrices else 0
    if nvars == 0 or any(len(mat) != n or any(len(row) != n for row in mat) for mat in matrices):
        raise InputError("expected one or more square matrices of the same size")
    units = [tuple(1 if k == v else 0 for k in range(nvars)) for v in range(nvars)]

    def entry_poly(i: int, j: int) -> HomPoly:
        return HomPoly(nvars, 1, {units[v]: int(mat[i][j]) for v, mat in enumerate(matrices)})

    # minors[mask] = determinant of rows 0..popcount(mask)-1 on columns in mask
    minors: dict[int, HomPoly] = {0: HomPoly(nvars, 0, {(0,) * nvars: 1})}
    for r in range(n):
        nxt: dict[int, HomPoly] = {}
        for mask, minor in minors.items():
            if minor.is_zero():
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = entry_poly(r, c)
                if entry.is_zero():
                    continue
                # placing column c at row r inverts against every used column above c
                sign = -1 if (mask >> (c + 1)).bit_count() % 2 else 1
                contrib = scaled(entry, sign) * minor
                key = mask | bit
                nxt[key] = nxt[key] + contrib if key in nxt else contrib
        minors = nxt
        if not minors:
            return HomPoly.zero(nvars, n)
    return minors.get((1 << n) - 1, HomPoly.zero(nvars, n))


def list_row_reduce(rows, ncols: int, field: PrimeField) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p of one matrix of Python ints, with
    the pivot rule of `modmat.row_reduce` (first nonzero entry in scan
    order, pivot row scaled to 1): (nonzero rref rows, pivot columns).  The
    oracle of the batched elimination."""
    p = field.p
    mat = [[int(x) % p for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def inverse_vandermonde_by_elimination(size: int, field: PrimeField) -> np.ndarray:
    """V^-1 mod p for V[i, k] = i^k, i and k in 0..N < p: [V | I] reduces to
    [I | V^-1] by one `modmat.row_reduce`.  The oracle of the closed form."""
    rows = modmat.residues([[i**k for k in range(size + 1)] + [int(i == j) for j in range(size + 1)] for i in range(size + 1)], field)
    return modmat.row_reduce(rows[None], field.p)[1][0, :, size + 1 :]


def list_rank(rows, ncols: int, field: PrimeField) -> int:
    return len(list_row_reduce(rows, ncols, field)[1])


def list_kernel_basis(rows, ncols: int, field: PrimeField) -> list[list[int]]:
    """The right kernel from `list_row_reduce`, one vector per free column
    in ascending order, 1 in the free column."""
    p = field.p
    rref, pivots = list_row_reduce(rows, ncols, field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r][free]) % p
        basis.append(v)
    return basis


def kernel_array(rows, ncols: int, field: PrimeField) -> np.ndarray:
    """`list_kernel_basis` as an int64 array (free, ncols)."""
    return np.array(list_kernel_basis(rows, ncols, field), dtype=np.int64).reshape(-1, ncols)


def split_mod_p(red: ReducedFamily, field: PrimeField) -> tuple[list[list[int]], list[int]]:
    """The oracles' splitting of V at p in Python ints: the rref rows of U's
    basis mod p by `list_row_reduce`, and the coordinates off their pivots,
    which realize V/U wherever U keeps its dimension mod p."""
    rows, pivots = list_row_reduce(red.u_rows, red.n + 2, field)
    if len(rows) != red.k + 1:
        raise InputError(f"isotropic basis degenerates mod {field.p}; reduction invalid there")
    return rows, [c for c in range(red.n + 2) if c not in pivots]


def lift(kept, v, size: int) -> list[int]:
    """The vector of length `size` with v on the coordinates `kept` and 0
    elsewhere."""
    x = [0] * size
    for c, value in zip(kept, v):
        x[c] = value
    return x


def count_reduced_family_dual(red: ReducedFamily, field: PrimeField) -> int:
    """#(reduced family)(F_p) counted along the other projection, from the
    net and U mod p.

    Over a fixed v' in P^(n-k)(F_p) every condition is linear in w, so the
    fiber is a projectivized kernel in P^m; this must agree with
    `count_reduced_family` on the nose.
    """
    p = field.p
    u_rows, kept = split_mod_p(red, field)
    total = 0
    for v in enumerate_projective(len(kept) - 1, field):
        x = lift(kept, v, red.n + 2)
        rows = [[mat.b(u, x, field) for mat in red.net.matrices] for u in u_rows]
        rows.append([mat.q(x, field) for mat in red.net.matrices])
        dim = red.m + 1 - list_rank(rows, red.m + 1, field)
        if dim > 0:
            total += projective_size(dim - 1, p)
    return total


def unimodular_pair(ops, size: int) -> tuple[list[list[int]], list[list[int]]]:
    """(T, T^-1) over Z for the product of elementary column operations
    (i, j, c), each adding c times column j to column i (i != j)."""
    t = [[int(a == b) for b in range(size)] for a in range(size)]
    t_inv = [row[:] for row in t]
    for i, j, c in ops:
        for row in t:
            row[i] += c * row[j]
        t_inv[j] = [x - c * y for x, y in zip(t_inv[j], t_inv[i])]
    return t, t_inv


def moved_net(net: QuadricNet, t) -> QuadricNet:
    """The net of the forms q_j(T x), Grams T^T M_j T: a point P of the
    net's X is the point T^-1 P of the moved net's."""
    size = range(net.fiber_size)
    return QuadricNet(
        n=net.n,
        m=net.m,
        matrices=tuple(
            GramMatrix.from_rows([[sum(t[a][i] * mat.entries[a][b] * t[b][j] for a in size for b in size) for j in size] for i in size])
            for mat in net.matrices
        ),
    )


def random_symmetric(rng: random.Random, size: int, p: int | None = None, bound: int = 9) -> GramMatrix:
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randrange(p) if p is not None else rng.randint(-bound, bound)
            rows[i][j] = rows[j][i] = v
    return GramMatrix.from_rows(rows)


def random_invertible(rng: random.Random, size: int, field: PrimeField) -> list[list[int]]:
    while True:
        a = [[rng.randrange(field.p) for _ in range(size)] for _ in range(size)]
        if modmat.det_mod(a, field) != 0:
            return a


def congruent_transform(m: GramMatrix, a: list[list[int]], field: PrimeField) -> GramMatrix:
    """A^T M A mod p."""
    p = field.p
    n = m.size
    ma = [
        [sum(m.entries[i][k] * a[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    ata = [
        [sum(a[k][i] * ma[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    return GramMatrix.from_rows(ata)


def matvec(rows, v, field: PrimeField) -> list[int]:
    """M v mod p in Python ints."""
    p = field.p
    return [sum(a * b for a, b in zip(row, v)) % p for row in rows]


def hyperbolic_reduce_at_vector(matrix: GramMatrix, v, field: PrimeField) -> GramMatrix:
    """The form induced on v-perp / <v> for an isotropic v outside the radical.

    Picks w with b(v, w) = 1 and restricts the form to the complement
    {u : b(v, u) = 0 and b(w, u) = 0}.  The rank drops by exactly two and
    the corank is preserved; for even ranks the signed discriminant
    character is invariant (that is the point of the (-1)^t convention).
    The one-form oracle of the reduction that `netfib` does for a family.
    """
    p = field.p
    n = matrix.size
    vred = [x % p for x in v]
    if matrix.q(vred, field) != 0:
        raise InputError("reduction vector is not isotropic")
    mv = matvec(matrix.entries, vred, field)
    j0 = next((j for j in range(n) if mv[j] != 0), None)
    if j0 is None:
        raise InputError("reduction vector lies in the radical (degenerate section)")
    # rows cutting out the complement: b(v, .) = 0 and b(e_{j0}, .) = 0
    mw = [matrix.entries[j0][j] % p for j in range(n)]
    basis = kernel_array([mv, mw], n, field)
    return gram_from_array(restrict(modmat.residues(matrix.entries, field), basis, p))


def reduced_fibers(red: ReducedFamily, field: PrimeField):
    """The oracle walk of a reduced family, which the library reads off the
    net's fiber table instead: (base rows w, stack of reduced fiber Grams)
    for each chunk of P^m(F_p), in canonical order, with V split at U's
    pivots mod p (`split_at`, which raises InputError where U loses
    dimension): the quadratic part restricted to the kernel of the bilinear
    rows B(w), with one `modmat.kernel_stack` elimination per chunk.  The
    first w where B(w) drops rank (the section meets the fiber's singular
    locus) raises DegenerateSectionError naming it."""
    p, cols = field.p, red.n - red.k + 1
    _, kept, mats, bilinear = split_at(red.net, red.u_rows, field)
    quad = mats[:, kept][:, :, kept].reshape(red.m + 1, -1)

    def grams(rows: np.ndarray) -> np.ndarray:
        lins = modmat.matmul_mod(rows, bilinear, p).reshape(-1, red.k + 1, cols)
        rank, kernels = modmat.kernel_stack(lins, p)
        degenerate = np.flatnonzero(rank < red.k + 1)
        if degenerate.size:
            s = tuple(rows[degenerate[0]].tolist())
            raise DegenerateSectionError(f"section degenerates over base point {s} at p={p}")
        bases = kernels[kernels.any(axis=2)].reshape(len(rows), red.fiber_size, cols)
        return restrict(modmat.matmul_mod(rows, quad, p).reshape(-1, cols, cols), bases, p)

    return ((rows, grams(rows)) for rows in projective_row_chunks(red.m, field))


def corank_histogram_reduced(red, field: PrimeField) -> dict[int, int]:
    """Corank histogram of a reduced family's fibers by the oracle walk;
    matches the original net's `regularity_check` histogram."""
    rank, *_ = fiber_classes(reduced_fibers(red, field), red.fiber_size, field.p)
    return dict(Counter((red.fiber_size - rank).tolist()))


def find_isotropic_vector(
    m: GramMatrix, field: PrimeField, rng: random.Random, avoid: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """A random isotropic vector outside the radical, or None after a bounded
    number of trials."""
    p = field.p
    n = m.size
    for _ in range(400):
        v = tuple(rng.randrange(p) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        if avoid is not None and v == avoid:
            continue
        if m.q(v, field) != 0:
            continue
        if all(x == 0 for x in matvec(m.entries, v, field)):
            continue
        return v
    return None


def plane_cubic(seed: int, x0_squared: int) -> HomPoly:
    """x3*Q3 + x4*Q4 + x5*Q5 with coefficients drawn from [-3, 3], except
    the x0^2 coefficient of every Q_k, which is `x0_squared`.  The three
    plane conics all vanish at (1:0:0) mod every prime dividing
    `x0_squared` (every prime when it is 0), so the cubic is singular at
    that point of the plane x3 = x4 = x5 = 0 there."""
    rng = random.Random(seed)
    terms: dict[tuple[int, ...], int] = {}
    for k in (3, 4, 5):
        for i in range(6):
            for j in range(i, 6):
                exps = [0] * 6
                for v in (k, i, j):
                    exps[v] += 1
                c = x0_squared if (i, j) == (0, 0) else rng.randint(-3, 3)
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return HomPoly(6, 3, terms)


def swap_verra_factors(g: HomPoly) -> HomPoly:
    """The same (2,2) form with the two P^2 factors exchanged."""
    return HomPoly(6, 4, {exps[3:] + exps[:3]: c for exps, c in g.terms.items()})


def record_scan_blocks(monkeypatch) -> list:
    """Make `quadform.common_zeros` record every block (h, s) its walk hands
    to the zero test; returns the list the blocks are appended to."""
    from quadring import quadform

    blocks = []
    original = quadform.scan_projective

    def spy(n, field, keep, budget, jobs):
        def recording_keep(h, s):
            blocks.append((h, s))
            return keep(h, s)

        return original(n, field, recording_keep, budget, jobs)

    monkeypatch.setattr(quadform, "scan_projective", spy)
    return blocks


def projective_rows_where(n: int, field: PrimeField, keep, budget: int = 2_000_000, jobs: int = 1) -> np.ndarray:
    """The rows of P^n(F_p), in canonical order, where the boolean mask
    keep(rows) is true: the walk of `gfp.scan_projective`, with each block
    expanded to its full rows before the mask is applied.  The in-memory
    mask oracle."""
    from quadring.gfp import scan_projective

    def block(h: np.ndarray, s: np.ndarray) -> np.ndarray:
        rows = np.hstack((np.repeat(h, len(s), axis=0), np.tile(s, (len(h), 1))))
        return rows[keep(rows)]

    return scan_projective(n, field, block, budget, jobs)


def on_all_forms(grams, field: PrimeField):
    """The mask of the rows on which every form vanishes."""

    def mask(rows: np.ndarray) -> np.ndarray:
        keep = np.ones(len(rows), dtype=bool)
        for g in grams:
            keep &= form_values(rows, g, field) == 0
        return keep

    return mask


def full_scan_zeros(grams, field: PrimeField) -> np.ndarray:
    """The brute-force oracle of `quadform.common_zeros`: every form
    evaluated at every point of P^(N-1)(F_p), block by block."""
    size = grams[0].size
    return projective_rows_where(size - 1, field, on_all_forms(grams, field), projective_size(size - 1, field.p))


def fiber_list(chunks) -> list:
    """The (base point, fiber Gram) pairs of a chunked fiber walk, one per
    fiber, in walk order."""
    return [
        (tuple(row), gram_from_array(gram))
        for rows, grams in chunks
        for row, gram in zip(rows.tolist(), grams)
    ]


def form_values(points: np.ndarray, matrix: GramMatrix, field: PrimeField) -> np.ndarray:
    """q(v) mod p at every row v of `points` (int64, one point per row)."""
    p = field.p
    return (modmat.matmul_mod(points, modmat.residues(matrix.entries, field), p) * points % p).sum(axis=1) % p


def diagonalize(matrix: GramMatrix, field: PrimeField) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Congruence diagonalization over F_p, one matrix in Python ints:
    returns (diag, A) with A^T M A diagonal and diag its diagonal entries.
    The oracle for `quadform.classify_stack`.

    Pivot policy, the same as the batched routine's: first nonzero diagonal
    entry in row order; failing that, the first off-diagonal (j, l) in
    row-major order gets the substitution u_j <- u_j + u_l (valid in odd
    characteristic) to create a diagonal pivot.
    """
    p = field.p
    n = matrix.size
    b = [[x % p for x in row] for row in matrix.entries]
    # a holds the basis change as columns: a[i][j] = coordinate i of basis vector j
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def add_col(dst: int, src: int, factor: int) -> None:
        # basis_dst += factor * basis_src, updating b = A^T M A symmetrically
        for i in range(n):
            a[i][dst] = (a[i][dst] + factor * a[i][src]) % p
        for i in range(n):
            b[i][dst] = (b[i][dst] + factor * b[i][src]) % p
        for j in range(n):
            b[dst][j] = (b[dst][j] + factor * b[src][j]) % p

    def swap_cols(x: int, y: int) -> None:
        for i in range(n):
            a[i][x], a[i][y] = a[i][y], a[i][x]
        for i in range(n):
            b[i][x], b[i][y] = b[i][y], b[i][x]
        b[x], b[y] = b[y], b[x]

    for i in range(n):
        piv = next((j for j in range(i, n) if b[j][j] != 0), None)
        if piv is None:
            pair = next(
                ((j, l) for j in range(i, n) for l in range(j + 1, n) if b[j][l] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            j, l = pair
            add_col(j, l, 1)  # now b[j][j] = 2*b[j][l] != 0
            piv = j
        if piv != i:
            swap_cols(i, piv)
        inv = pow(b[i][i], p - 2, p)
        for j in range(i + 1, n):
            if b[i][j] != 0:
                add_col(j, i, (-b[i][j] * inv) % p)

    diag = tuple(b[i][i] for i in range(n))
    return diag, tuple(tuple(row) for row in a)


def diagonal_invariants(matrix: GramMatrix, field: PrimeField) -> tuple[int, int]:
    """(rank, signed discriminant character) read from `diagonalize`: the
    character is chi((-1)^(r/2) * product of the nonzero diagonal) at even
    rank r and 0 at odd rank."""
    nonzero = [d for d in diagonalize(matrix, field)[0] if d != 0]
    rank = len(nonzero)
    if rank % 2:
        return rank, 0
    return rank, legendre_character((-1) ** (rank // 2) * math.prod(nonzero), field)


def disc_character(matrix: GramMatrix, field: PrimeField) -> int:
    """Ordinary discriminant character: chi(det of the nondegenerate block),
    +1 for the zero form."""
    return legendre_character(math.prod(d for d in diagonalize(matrix, field)[0] if d != 0), field)


def forms_congruent(m1: GramMatrix, m2: GramMatrix, field: PrimeField) -> bool:
    """Whether the forms are congruent over F_p.

    Over a finite field of odd characteristic, rank plus the square class
    of the discriminant of the nondegenerate block classify forms of a
    given dimension, so this is a two-invariant comparison.
    """
    if m1.size != m2.size:
        raise InputError("congruence test requires matrices of the same size")
    if diagonal_invariants(m1, field)[0] != diagonal_invariants(m2, field)[0]:
        return False
    return disc_character(m1, field) == disc_character(m2, field)


def sqrt_cf_convergents(d: int):
    """Yield (p, q, v) along two full periods of the continued fraction of
    sqrt(d) (d nonsquare), walked independently of `nslattice`: the
    convergent p/q and its value v = p^2 - d*q^2 = (-1)^(k+1) Q_(k+1), read
    from the PQa denominators."""
    a0 = math.isqrt(d)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    pp, qq = a0, d - a0 * a0
    yield p_cur, q_cur, -qq
    sign = 1
    completed = 0
    while completed < 2:
        a = (a0 + pp) // qq
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        if qq == 1:
            completed += 1
        yield p_cur, q_cur, sign * qq
        sign = -sign


def two_period_walk_solutions(d: int) -> dict[int, tuple[int, int] | None]:
    """The Pell solver's walk of two full periods, for nonsquare d > 64:
    the first convergent of `sqrt_cf_convergents` with value +-8, as
    (p, q), or +-2, as (2p, 2q), for each sign of a^2 - d*b^2 = +-8."""
    first: dict[int, tuple[int, int]] = {}
    for p, q, v in sqrt_cf_convergents(d):
        if v == 8 or v == -8:
            first.setdefault(v, (p, q))
        elif v == 2 or v == -2:
            first.setdefault(4 * v, (2 * p, 2 * q))
    return {rhs: first.get(rhs) for rhs in nslattice.ALLOWED_RHS}


def convergent_solution(d: int, rhs: int) -> tuple[int, int] | None:
    """The per-sign two-period scan for nonsquare d > 64: the least (b, a)
    among convergents with p^2 - d*q^2 = rhs (as (p, q)) or rhs/4 (as
    (2p, 2q)), each value from the big-int product itself."""
    candidates = []
    for p, q, _ in sqrt_cf_convergents(d):
        v = p * p - d * q * q
        if v == rhs:
            candidates.append((p, q))
        if 4 * v == rhs:
            candidates.append((2 * p, 2 * q))
    if not candidates:
        return None
    return min(candidates, key=lambda ab: (ab[1], ab[0]))


# The classical bounds b <= u*sqrt(8/(2(t + 1))) for +8 and
# b <= u*sqrt(8/(2(t - 1))) for -8, with (t, u) the fundamental unit, are at
# most 10,763 for nonsquare d <= 64 (d = 61, +8), and a square d = e^2
# factors as (a - e*b)(a + e*b), so e*b <= 8: scanning b up to this bound
# decides every d the convergent scan does not cover.
SMALL_D_B_BOUND = 20_000


def least_pell_solution(d: int, rhs: int) -> tuple[int, int] | None:
    """The least (b, then a) nonnegative solution of a^2 - d*b^2 = rhs:
    the two-period scan for nonsquare d > 64, a direct scan of b otherwise."""
    if d > 64 and math.isqrt(d) ** 2 != d:
        return convergent_solution(d, rhs)
    b = np.arange(SMALL_D_B_BOUND + 1, dtype=np.int64)
    r = rhs + d * b * b
    a = np.sqrt(np.maximum(r, 0).astype(np.float64)).round().astype(np.int64)
    hits = np.flatnonzero((r >= 0) & (a * a == r))
    if not hits.size:
        return None
    b0 = int(hits[0])
    return math.isqrt(rhs + d * b0 * b0), b0


def oracle_verdict(d: int) -> tuple[str, tuple[int, int, int] | None]:
    """(classification, solution) of `nslattice.classify_discriminant` from
    the oracle solutions, +8 before -8."""
    for rhs in nslattice.ALLOWED_RHS:
        sol = least_pell_solution(d, rhs)
        if sol is not None:
            return nslattice.ISOMORPHIC, (sol[0], sol[1], rhs)
    return (nslattice.NONTRIVIAL if d % 8 == 1 else nslattice.OBSTRUCTED), None


def enumerate_nontrivial(limit: int) -> list[int]:
    """All d <= limit classified nontrivially-L-equivalent, ascending."""
    if limit < 1:
        raise InputError(f"limit must be at least 1, got {limit}")
    return [
        d
        for d in range(1, limit + 1)
        if d % 8 == 1 and nslattice.classify_discriminant(d).classification == nslattice.NONTRIVIAL
    ]


def hand_count_residuals(n: int, m: int, p: int, x: int, q: int, qbar: int | None, y: int) -> dict[str, int]:
    """R1-R4 of `count` written out by hand (pi(d) = #P^d(F_p)): the oracle
    of the residuals that `netfib.relations` reads from `grothring`."""
    pi = lambda d: projective_size(d, p)
    if (n, m) == (4, 2):
        residuals = {"R1": q - (pi(5) * pi(1) + x * p**2)}
        if qbar is not None:
            residuals["R2"] = qbar - (pi(4) + p**2 + x * p)
            residuals["R3"] = qbar - (pi(2) * (1 + p**2) + y * p)
    else:  # (2, 1)
        residuals = {"R1": q - (pi(3) + x * p), "R3": q - (pi(1) * (1 + p**2) + y * p)}
        if qbar is not None:
            residuals["R2"] = qbar - y
    residuals["R4"] = x - y
    return residuals


def hand_cubic_residual(p: int, x: int, y: int) -> int:
    """#X - (1 + p^2 + p^4 + p * #Y), the cubic-with-a-plane identity."""
    return x - (1 + p**2 + p**4 + p * y)


def hand_verra_residuals(p: int, x: int, y1: int, y2: int) -> tuple[int, int, int]:
    """(first, second, y_difference) of the (2,2) double-cover identities."""
    base = (p**2 + 1) * projective_size(2, p)
    return x - (base + p * y1), x - (base + p * y2), y1 - y2
