import numpy as np
from hypothesis import given, settings, strategies as st

from quadring import modmat
from quadring.gfp import PrimeField

from _util import list_kernel_basis, list_row_reduce


@st.composite
def _stack(draw, nrows, ncols, p):
    """nrows x ncols residue matrices mod p: one to four drawn with entries
    often 0, 1 or p - 1, then the first with its first row zeroed, the first
    with its last row replaced by a multiple of its first, and the zero
    matrix; or, as often, the first alone, a stack of one."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    mats = draw(st.lists(st.lists(row, min_size=nrows, max_size=nrows), min_size=1, max_size=4))
    if draw(st.booleans()):
        return mats[:1]
    first = mats[0]
    scale = draw(st.integers(1, p - 1))
    if nrows:
        mats.append([[0] * ncols] + first[1:])
        mats.append(first[:-1] + [[scale * x % p for x in first[0]]])
    mats.append([[0] * ncols for _ in range(nrows)])
    return mats


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    data=st.data(),
    nrows=st.integers(0, 3),
    ncols=st.integers(2, 7),
    p=st.sampled_from([3, 5, 7, 101, 2**31 - 1]),
)
def test_kernel_stack_matches_the_row_reduce_oracles(data, nrows, ncols, p):
    field = PrimeField(p)
    mats = data.draw(_stack(nrows, ncols, p))
    stack = np.array(mats, dtype=np.int64).reshape(len(mats), nrows, ncols)
    rank, rref, pivot = modmat.row_reduce(stack, p)
    _, kernels = modmat.kernel_stack(stack, p)
    for m, r, reduced, one_hot, kernel in zip(mats, rank.tolist(), rref, pivot, kernels.tolist()):
        rows, pivots = list_row_reduce(m, ncols, field)
        assert r == len(pivots) == modmat.rank_mod(np.array(m, dtype=np.int64), ncols, field)
        # the rank rows come first, then zero rows; each row's pivot is one-hot
        assert reduced[:r].tolist() == rows and not reduced[r:].any()
        assert [row.argmax() for row in one_hot[:r]] == pivots and one_hot.sum() == r
        # row f holds the vector of free column f; rows at pivot columns are zero
        assert [f for f, v in enumerate(kernel) if any(v)] == [f for f in range(ncols) if f not in pivots]
        expected = list_kernel_basis(m, ncols, field)
        assert [v for v in kernel if any(v)] == expected
        basis = modmat.kernel_basis(np.array(m, dtype=np.int64), ncols, field)
        assert basis.dtype == np.int64 and basis.shape == (ncols - r, ncols) and basis.tolist() == expected
