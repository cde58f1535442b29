"""Dense exact matrices over GF(2^m), bit-plane packed.

A row of a matrix is stored as ``degree`` Python ints ("planes"); bit ``c``
of plane ``p`` is the coefficient of x^p in entry ``c``.  For GF(2) a row is
a single int, so row operations are single XORs; for larger fields scalar
multiplication mixes planes through the tables precomputed on the field.

Elimination (:meth:`Mat.rref`, and through it nullspace, row space, solve
and inverse) is one loop for every degree: it finds pivots from per-row
support masks (the OR of the planes) and reduces rows by XOR-ing whole
planes, never reading entries one by one.  Its output is the reduced row
echelon form with its pivot columns, which is unique, so results do not
depend on how the elimination is organised.

Everything here is exact and deterministic.  Matrices act on column
vectors; subspaces are handled as matrices whose rows span them.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import DimensionMismatch
from .gf import FiniteField


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FiniteField, nrows: int, ncols: int, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [[0] * field.degree for _ in range(nrows)]
        self.rows = rows

    # -- construction ---------------------------------------------------
    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.rows[i][0] = 1 << i
        return m

    @classmethod
    def from_entries(cls, field, entries):
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        m = cls(field, nrows, ncols)
        for r, row in enumerate(entries):
            if len(row) != ncols:
                raise DimensionMismatch("ragged entry rows")
            planes = m.rows[r]
            for c, e in enumerate(row):
                for p in _bits(e):
                    planes[p] |= 1 << c
        return m

    def copy(self):
        return Mat(self.field, self.nrows, self.ncols, [row[:] for row in self.rows])

    # -- entry access -----------------------------------------------------
    def entry(self, r, c):
        e = 0
        for p, plane in enumerate(self.rows[r]):
            e |= ((plane >> c) & 1) << p
        return e

    def set_entry(self, r, c, e):
        bit = 1 << c
        planes = self.rows[r]
        for p in range(self.field.degree):
            if (e >> p) & 1:
                planes[p] |= bit
            else:
                planes[p] &= ~bit

    def to_entries(self):
        return [[self.entry(r, c) for c in range(self.ncols)] for r in range(self.nrows)]

    def key(self):
        """Hashable canonical key (for dedup of equal matrices)."""
        return (self.nrows, self.ncols, tuple(tuple(row) for row in self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        return all(all(p == 0 for p in row) for row in self.rows)

    # -- row helpers --------------------------------------------------------
    def _scale_planes(self, s, planes):
        deg = self.field.degree
        if s == 0:
            return [0] * deg
        if s == 1:
            return planes[:]
        srcs = self.field.plane_sources[s]
        out = []
        for i in range(deg):
            acc = 0
            for j in srcs[i]:
                acc ^= planes[j]
            out.append(acc)
        return out

    def row_entry_iter(self, r):
        """Yield (c, coeff) for nonzero entries of row r."""
        planes = self.rows[r]
        mask = 0
        for p in planes:
            mask |= p
        for c in _bits(mask):
            e = 0
            for p, plane in enumerate(planes):
                e |= ((plane >> c) & 1) << p
            yield c, e

    def cols_nonzero(self):
        """List over columns of [(row, coeff)] for nonzero entries."""
        cols = [[] for _ in range(self.ncols)]
        for r in range(self.nrows):
            for c, e in self.row_entry_iter(r):
                cols[c].append((r, e))
        return cols

    def rows_nonzero(self):
        return [list(self.row_entry_iter(r)) for r in range(self.nrows)]

    # -- arithmetic -----------------------------------------------------------
    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix add shape mismatch")
        out = self.copy()
        for r in range(self.nrows):
            a, b = out.rows[r], other.rows[r]
            for p in range(self.field.degree):
                a[p] ^= b[p]
        return out

    def scale(self, s):
        out = Mat(self.field, self.nrows, self.ncols)
        for r in range(self.nrows):
            out.rows[r] = self._scale_planes(s, self.rows[r])
        return out

    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix mul shape mismatch")
        deg = self.field.degree
        out = Mat(self.field, self.nrows, other.ncols)
        for r in range(self.nrows):
            acc = [0] * deg
            for c, e in self.row_entry_iter(r):
                brow = other.rows[c]
                if e == 1:
                    for p in range(deg):
                        acc[p] ^= brow[p]
                else:
                    scaled = other._scale_planes(e, brow)
                    for p in range(deg):
                        acc[p] ^= scaled[p]
            out.rows[r] = acc
        return out

    def __mul__(self, other):
        return self.mul(other)

    def power(self, e):
        if self.nrows != self.ncols:
            raise DimensionMismatch("power of non-square matrix")
        result = Mat.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    def transpose(self):
        out = Mat(self.field, self.ncols, self.nrows)
        for r in range(self.nrows):
            for p, plane in enumerate(self.rows[r]):
                for c in _bits(plane):
                    out.rows[c][p] |= 1 << r
        return out

    def submatrix(self, row_idx, col_idx):
        out = Mat(self.field, len(row_idx), len(col_idx))
        for rr, r in enumerate(row_idx):
            planes = self.rows[r]
            for cc, c in enumerate(col_idx):
                for p in range(self.field.degree):
                    if (planes[p] >> c) & 1:
                        out.rows[rr][p] |= 1 << cc
        return out

    # -- elimination -----------------------------------------------------------
    def rref(self):
        """Return (reduced matrix, pivot column list).

        One loop serves every field degree and never reads entries one by
        one.  A row's support mask (the OR of its planes) gives its leading
        column as the lowest set bit.  Rows are taken in turn: while the
        leading column already has a pivot row, that row's multiple is
        XOR-ed in, plane by plane, and the mask recomputed; otherwise the
        row, scaled to a leading 1, becomes the pivot row of that column.
        Then each pivot row, from the last column back, clears its bits in
        the other pivot columns with the pivot rows already cleared.  A
        multiple is the pivot row itself for a unit coefficient, otherwise
        its planes mixed through ``field.plane_sources``.

        Work follows the nonzero entries: no step scans all rows for a
        column, which matters for the tall sparse systems of Hom spaces and
        covers.  The reduced row echelon form and its pivot columns are
        unique, so the result does not depend on the order of the steps.
        """
        field = self.field
        sources = field.plane_sources
        planes = range(field.degree)

        def coefficient(row, bit):
            c = 0
            for p in planes:
                if row[p] & bit:
                    c |= 1 << p
            return c

        def eliminate(row, bit, pivot_row):
            """Clear `bit` from row in place; return the row's new mask."""
            c = coefficient(row, bit)
            if c != 1:
                pivot_row = [_xor_planes(pivot_row, srcs) for srcs in sources[c]]
            mask = 0
            for p in planes:
                row[p] ^= pivot_row[p]
                mask |= row[p]
            return mask

        pivot_rows = {}  # leading bit -> pivot row with a leading 1
        for row in self.rows:
            mask = reduce(or_, row)
            row = row[:]
            while mask:
                lead = mask & -mask
                pivot_row = pivot_rows.get(lead)
                if pivot_row is None:
                    c = coefficient(row, lead)
                    if c != 1:
                        row = [_xor_planes(row, srcs) for srcs in sources[field.inv(c)]]
                    pivot_rows[lead] = row
                    break
                mask = eliminate(row, lead, pivot_row)
        leads = sorted(pivot_rows)
        lead_mask = reduce(or_, leads, 0)
        for lead in reversed(leads):
            row = pivot_rows[lead]
            # a cleared pivot row is zero in every other pivot column, so
            # XOR-ing it in adds no bit to this set
            for col in _bits(reduce(or_, row) & (lead_mask ^ lead)):
                bit = 1 << col
                eliminate(row, bit, pivot_rows[bit])
        rows = [pivot_rows[lead] for lead in leads]
        rows.extend([0] * field.degree for _ in range(self.nrows - len(rows)))
        return Mat(field, self.nrows, self.ncols, rows), [lead.bit_length() - 1 for lead in leads]

    def rank(self):
        if self.field.degree == 1:
            basis = RowBasisGF2()
            for row in self.rows:
                basis.insert(row[0])
            return basis.rank
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of {x : self * x = 0}, one vector per row of the result."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        out = Mat(self.field, len(free), self.ncols)
        for k, fc in enumerate(free):
            planes = out.rows[k]
            planes[0] |= 1 << fc
            for j, pc in enumerate(pivots):
                e = R.entry(j, fc)
                if e:
                    # char 2: x_pc = e * x_fc
                    for p in _bits(e):
                        planes[p] |= 1 << pc
        return out

    def row_space(self):
        R, pivots = self.rref()
        out = Mat(self.field, len(pivots), self.ncols)
        out.rows = [R.rows[i][:] for i in range(len(pivots))]
        return out

    def column_space(self):
        return self.transpose().row_space()

    def solve(self, b):
        """One solution X of self * X = b, or None if inconsistent."""
        if b.nrows != self.nrows:
            raise DimensionMismatch("solve shape mismatch")
        n, k = self.ncols, b.ncols
        aug = Mat(self.field, self.nrows, n + k)
        for r in range(self.nrows):
            for p in range(self.field.degree):
                aug.rows[r][p] = self.rows[r][p] | (b.rows[r][p] << n)
        R, pivots = aug.rref()
        for j, pc in enumerate(pivots):
            if pc >= n:
                return None
        x = Mat(self.field, n, k)
        for j, pc in enumerate(pivots):
            for p in range(self.field.degree):
                x.rows[pc][p] = R.rows[j][p] >> n
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        x = self.solve(Mat.identity(self.field, self.nrows))
        return x

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        return f"Mat({self.field}, {self.nrows}x{self.ncols})"


def hstack(mats):
    field = mats[0].field
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise DimensionMismatch("hstack row mismatch")
    out = Mat(field, nrows, sum(m.ncols for m in mats))
    for r in range(nrows):
        shift = 0
        planes = out.rows[r]
        for m in mats:
            for p in range(field.degree):
                planes[p] |= m.rows[r][p] << shift
            shift += m.ncols
    return out


def vstack(mats):
    field = mats[0].field
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    rows = []
    for m in mats:
        rows.extend(row[:] for row in m.rows)
    return Mat(field, len(rows), ncols, rows)


def block_diag(mats):
    field = mats[0].field
    n = sum(m.nrows for m in mats)
    c = sum(m.ncols for m in mats)
    out = Mat(field, n, c)
    roff = 0
    coff = 0
    for m in mats:
        for r in range(m.nrows):
            for p in range(field.degree):
                out.rows[roff + r][p] |= m.rows[r][p] << coff
        roff += m.nrows
        coff += m.ncols
    return out


class RowBasisGF2:
    """Online GF(2) row basis; rows are plain ints, leading bit = highest."""

    __slots__ = ("basis", "rank")

    def __init__(self):
        self.basis = {}
        self.rank = 0

    def reduce(self, row: int) -> int:
        basis = self.basis
        while row:
            lead = row.bit_length() - 1
            piv = basis.get(lead)
            if piv is None:
                return row
            row ^= piv
        return 0

    def insert(self, row: int) -> bool:
        row = self.reduce(row)
        if row:
            self.basis[row.bit_length() - 1] = row
            self.rank += 1
            return True
        return False


class RowBasisGen:
    """Online row basis over GF(2^m); rows are tuples of plane ints."""

    __slots__ = ("field", "basis", "rank")

    def __init__(self, field: FiniteField):
        self.field = field
        self.basis = {}
        self.rank = 0

    def _lead(self, planes):
        mask = 0
        for p in planes:
            mask |= p
        return mask.bit_length() - 1 if mask else -1

    def _entry(self, planes, c):
        e = 0
        for p, plane in enumerate(planes):
            e |= ((plane >> c) & 1) << p
        return e

    def _scale(self, s, planes):
        deg = self.field.degree
        if s == 0:
            return [0] * deg
        if s == 1:
            return list(planes)
        srcs = self.field.plane_sources[s]
        return [_xor_planes(planes, srcs[i]) for i in range(deg)]

    def reduce(self, planes):
        planes = list(planes)
        basis = self.basis
        while True:
            lead = self._lead(planes)
            if lead < 0:
                return planes
            piv = basis.get(lead)
            if piv is None:
                return planes
            c = self._entry(planes, lead)
            scaled = self._scale(c, piv)
            for p in range(len(planes)):
                planes[p] ^= scaled[p]

    def insert(self, planes) -> bool:
        planes = self.reduce(planes)
        lead = self._lead(planes)
        if lead < 0:
            return False
        c = self._entry(planes, lead)
        if c != 1:
            planes = self._scale(self.field.inv(c), planes)
        self.basis[lead] = planes
        self.rank += 1
        return True


def _xor_planes(planes, srcs):
    acc = 0
    for j in srcs:
        acc ^= planes[j]
    return acc


def row_basis(field: FiniteField):
    return RowBasisGF2() if field.degree == 1 else RowBasisGen(field)
