import random
from functools import reduce

import pytest

from stringalg.gf import GF, GF2, GF4
from stringalg.matrix import Mat, RowBasis, block_diag, hstack, support, vstack

GF8 = GF(3)


def rand_mat(field, n, m, rng):
    return Mat.from_entries(
        field, [[rng.randrange(field.order) for _ in range(m)] for _ in range(n)]
    )


def gf2_rank_reference(rows, ncols):
    """Independent bitset elimination (column-major pivot scan)."""
    work = rows[:]
    rank = 0
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        rank += 1
        row_idx += 1
        if row_idx == len(work):
            break
    return rank


def naive_rank(field, entries):
    """Schoolbook elimination on entry lists, any field."""
    rows = [r[:] for r in entries]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rref_reference(A):
    """Entry-by-entry Gauss-Jordan elimination: the oracle for Mat.rref."""
    field = A.field
    rows = A.to_entries()
    pivots = []
    prow = 0
    for col in range(A.ncols):
        sel = next((r for r in range(prow, A.nrows) if rows[r][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = field.inv(rows[prow][col])
        rows[prow] = [field.mul(inv, x) for x in rows[prow]]
        for r in range(A.nrows):
            c = rows[r][col]
            if r != prow and c:
                rows[r] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[r], rows[prow])]
        pivots.append(col)
        prow += 1
    R = Mat.from_entries(field, rows) if rows else Mat(field, 0, A.ncols)
    R.ncols = A.ncols
    return R, pivots


def _oracle_cases(field, rng):
    """Seeded matrices of every awkward shape over one field."""
    yield Mat(field, 0, 5)
    yield Mat(field, 4, 0)
    yield Mat(field, 0, 0)
    yield Mat.zeros(field, 3, 6)
    for _ in range(30):
        n, m = rng.randint(1, 18), rng.randint(1, 18)
        yield rand_mat(field, n, m, rng)  # square-ish, tall and wide
    for n, m in ((20, 3), (3, 20), (1, 12), (12, 1)):
        yield rand_mat(field, n, m, rng)
    for _ in range(15):
        # rank-deficient: a product through a narrow inner dimension
        n, m, k = rng.randint(2, 14), rng.randint(2, 14), rng.randint(0, 3)
        yield rand_mat(field, n, k, rng).mul(rand_mat(field, k, m, rng)) if k else Mat.zeros(field, n, m)
    for _ in range(15):
        # sparse rows, many of them dependent, whose leading coefficient is
        # drawn from the non-units
        n, m = rng.randint(1, 30), rng.randint(1, 12)
        entries = []
        for _ in range(n):
            lead = rng.randrange(m)
            row = [0] * lead + [rng.randrange(field.order) if rng.random() < 0.3 else 0 for _ in range(m - lead)]
            row[lead] = rng.randrange(2, field.order) if field.order > 2 else 1
            entries.append(row)
        yield Mat.from_entries(field, entries)
    for _ in range(15):
        # rows of 0/1 entries only (plane 0 alone), some stacked on rows
        # with general entries, so reductions pass between both kinds
        n, m = rng.randint(1, 20), rng.randint(1, 14)
        ones = Mat.from_entries(field, [[rng.randrange(2) for _ in range(m)] for _ in range(n)])
        yield ones
        yield vstack([rand_mat(field, rng.randint(1, 4), m, rng), ones])


@pytest.mark.parametrize("field", [GF2, GF4, GF(3)])
def test_rref_matches_entrywise_reference(field):
    rng = random.Random(1000 + field.degree)
    for A in _oracle_cases(field, rng):
        before = A.key()
        R, pivots = A.rref()
        ref_R, ref_pivots = _rref_reference(A)
        assert (R.key(), pivots) == (ref_R.key(), ref_pivots)
        assert (R.nrows, R.ncols) == (A.nrows, A.ncols)
        assert A.key() == before  # rref does not touch its input


@pytest.mark.parametrize("field", [GF2, GF4, GF(3)])
def test_nullspace_rank_solve_consistent_with_reference(field):
    rng = random.Random(2000 + field.degree)
    for A in _oracle_cases(field, rng):
        rank = len(_rref_reference(A)[1])
        N = A.nullspace()
        assert A.rank() == rank
        assert rank + N.nrows == A.ncols
        assert N.nrows == 0 or A.mul(N.transpose()).is_zero()
        assert N.rank() == N.nrows
        x0 = rand_mat(field, A.ncols, 2, rng)
        b = A.mul(x0)
        X = A.solve(b)
        assert X is not None and A.mul(X).key() == b.key()


def test_identity_rank():
    assert Mat.identity(GF2, 3).rank() == 3


def test_nullspace_of_sum_vector():
    A = Mat.from_entries(GF2, [[1, 1]])
    ns = A.nullspace()
    assert ns.nrows == 1 and ns.to_entries() == [[1, 1]]


@pytest.mark.parametrize("field", [GF2, GF4, GF(3)])
def test_rank_transpose_and_nullity(field):
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 14), rng.randint(1, 14)
        A = rand_mat(field, n, m, rng)
        r = A.rank()
        assert r == A.transpose().rank()
        assert r + A.nullspace().nrows == m
        assert r == naive_rank(field, A.to_entries())


@pytest.mark.parametrize("field", [GF2, GF4])
def test_solve_then_verify(field):
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        A = rand_mat(field, n, m, rng)
        x0 = rand_mat(field, m, 1, rng)
        b = A.mul(x0)
        x = A.solve(b)
        assert x is not None
        assert A.mul(x).to_entries() == b.to_entries()


def test_inconsistent_solve_returns_none():
    A = Mat.from_entries(GF2, [[1, 0], [1, 0]])
    b = Mat.from_entries(GF2, [[1], [0]])
    assert A.solve(b) is None


@pytest.mark.parametrize("field", [GF2, GF4])
def test_inverse_round_trip(field):
    rng = random.Random(3)
    found = 0
    while found < 8:
        n = rng.randint(1, 9)
        A = rand_mat(field, n, n, rng)
        if not A.is_invertible():
            continue
        found += 1
        assert A.mul(A.inverse()).to_entries() == Mat.identity(field, n).to_entries()


def test_row_basis_rank_matches_bitset_reference_up_to_512():
    rng = random.Random(5)
    for n in (16, 64, 128, 512):
        rows = [rng.getrandbits(n) for _ in range(n)]
        A = Mat(GF2, n, n, rows)
        basis = RowBasis(GF2, n)
        for r in rows:
            basis.insert(r)
        assert basis.rank == len(A.rref()[1]) == gf2_rank_reference(rows, n)


@pytest.mark.parametrize("field", [GF2, GF4, GF(3)])
def test_row_basis_matches_entrywise_reference(field):
    rng = random.Random(3000 + field.degree)
    for A in _oracle_cases(field, rng):
        ref_R, ref_pivots = _rref_reference(A)
        basis = RowBasis(field, A.ncols)
        for v, entries in zip(A.rows, A.to_entries()):
            assert support(v, A.ncols) == sum(1 << c for c, e in enumerate(entries) if e)
            basis.insert(v)
        assert basis.rank == len(ref_pivots)
        leads = sorted(basis.pivots)
        assert leads == ref_pivots
        P = Mat(field, len(leads), A.ncols, [basis.pivots[lead] for lead in leads])
        for k, lead in enumerate(leads):
            # lowest nonzero column is the key, with coefficient 1
            assert P.entry(k, lead) == 1
            assert support(basis.pivots[lead], A.ncols) & ((1 << lead) - 1) == 0
        # the pivots span the row space of A
        assert _rref_reference(P)[0].key()[2] == ref_R.key()[2][: len(leads)]
        # reduced, they are the reduced row echelon form, and the kernel
        # is the reference nullspace
        basis.reduce()
        assert [basis.pivots[lead] for lead in leads] == list(ref_R.rows[: len(leads)])
        K = Mat(field, A.ncols - len(leads), A.ncols, basis.kernel())
        assert K.rank() == K.nrows and (K.nrows == 0 or A.mul(K.transpose()).is_zero())
        # kernel() reduces an unreduced basis itself
        fresh = RowBasis(field, A.ncols)
        for v in A.rows:
            fresh.insert(v)
        assert fresh.kernel() == K.rows


def _naive_mul(field, a, b):
    return [
        [reduce(field.add, (field.mul(a[i][t], b[t][j]) for t in range(len(b))), 0) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_stack_helpers():
    A = Mat.identity(GF2, 2)
    B = Mat.from_entries(GF2, [[1], [1]])
    H = hstack([A, B])
    assert H.to_entries() == [[1, 0, 1], [0, 1, 1]]
    V = vstack([A, A])
    assert V.nrows == 4
    D = block_diag([A, B])
    assert D.nrows == 4 and D.ncols == 3
    rng = random.Random(19)
    for field in (GF2, GF4, GF8):
        for _ in range(10):
            n = rng.randint(1, 6)
            mats = [rand_mat(field, n, rng.randint(0, 5), rng) for _ in range(rng.randint(1, 3))]
            entries = [m.to_entries() for m in mats]
            assert hstack(mats).to_entries() == [sum((e[r] for e in entries), []) for r in range(n)]
            cols = mats[0].ncols
            same = [rand_mat(field, rng.randint(1, 4), cols, rng) for _ in range(3)]
            assert vstack(same).to_entries() == sum((m.to_entries() for m in same), [])
            D = block_diag(mats)
            width = sum(m.ncols for m in mats)
            ref = []
            left = 0
            for m, e in zip(mats, entries):
                ref.extend([0] * left + row + [0] * (width - left - m.ncols) for row in e)
                left += m.ncols
            assert (D.nrows, D.ncols) == (len(ref), width)
            assert D.to_entries() == ref


def test_mul_against_naive():
    rng = random.Random(17)
    for field in (GF2, GF4, GF8):
        for _ in range(10):
            n, k, m = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
            A = rand_mat(field, n, k, rng)
            B = rand_mat(field, k, m, rng)
            C = A.mul(B)
            for i in range(n):
                for j in range(m):
                    total = 0
                    for t in range(k):
                        total = field.add(total, field.mul(A.entry(i, t), B.entry(t, j)))
                    assert C.entry(i, j) == total


@pytest.mark.parametrize("field", [GF2, GF4, GF8])
def test_plane_moving_against_entrywise(field):
    rng = random.Random(23 + field.degree)
    for _ in range(15):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_mat(field, n, m, rng)
        a = A.to_entries()
        assert A.transpose().to_entries() == [list(col) for col in zip(*a)]
        flat = Mat(field, 1, n * m, [A.vector()])
        assert flat.to_entries() == [sum(a, [])]
        s = rng.randrange(field.order)
        assert A.scale(s).to_entries() == [[field.mul(s, e) for e in row] for row in a]
        B = rand_mat(field, n, m, rng)
        assert A.add(B).to_entries() == [[x ^ y for x, y in zip(r, t)] for r, t in zip(a, B.to_entries())]
        b = _naive_mul(field, a, rand_mat(field, m, 2, rng).to_entries())
        X = A.solve(Mat.from_entries(field, b))
        assert X is not None and _naive_mul(field, a, X.to_entries()) == b
        sq = rand_mat(field, n, n, rng)
        if sq.is_invertible():
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            assert _naive_mul(field, sq.to_entries(), sq.inverse().to_entries()) == ident


def test_permutation_difference_rank():
    # the 4x4 matrix of the transposition minus the identity has rank 1
    P = Mat.from_entries(GF2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert P.add(Mat.identity(GF2, 4)).rank() == 1


def test_shape_errors():
    import pytest as _pytest
    from stringalg.errors import DimensionMismatch

    A = Mat.identity(GF2, 2)
    B = Mat.identity(GF2, 3)
    with _pytest.raises(DimensionMismatch):
        A.mul(B)
    with _pytest.raises(DimensionMismatch):
        A.add(B)
    with _pytest.raises(DimensionMismatch):
        A.solve(Mat.identity(GF2, 3))


@pytest.mark.parametrize(
    "field, entry", [(GF2, 2), (GF2, -1), (GF4, 4), (GF2, 0.5)], ids=["GF2-2", "GF2-minus1", "GF4-4", "GF2-half"]
)
def test_from_entries_refuses_entries_outside_the_field(field, entry):
    from stringalg.errors import ParseError

    # over GF(2), [[2]] used to read back as [[0]] yet be nonzero, and its
    # rank raised ZeroDivisionError
    with pytest.raises(ParseError, match="not an element of"):
        Mat.from_entries(field, [[1, entry]])
    assert Mat.from_entries(field, [[field.order - 1, 0]]).rank() == 1
