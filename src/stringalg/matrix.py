"""Dense exact matrices over GF(2^m), bit-plane packed.

A row of a matrix is stored as ``degree`` Python ints ("planes"); bit ``c``
of plane ``p`` is the coefficient of x^p in entry ``c``.  For GF(2) a row is
a single int, so row operations are single XORs; for larger fields scalar
multiplication mixes planes through the tables precomputed on the field.

For elimination a row vector of ``width`` entries is packed into one int
with its planes side by side (bit ``c`` of plane ``p`` is bit
``p*width + c``), so adding two rows is one XOR over every field.  One
:class:`RowBasis` holds such vectors as an echelon basis and is the only
elimination kernel: :meth:`Mat.rref` (and through it nullspace, row space,
solve and inverse) inserts every row and then back-substitutes, and the
Hom systems, covers and Ext^1 classes of the module calculus are reduced
in it row by row.  The reduced row echelon form and its pivot columns are
unique, so results do not depend on how the elimination is organised.

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
    def vector(self) -> int:
        """The matrix flattened row after row, entry (i, j) in column
        i*ncols + j, as one packed vector (see :class:`RowBasis`)."""
        n = self.ncols
        size = self.nrows * n
        v = 0
        for i, row in enumerate(self.rows):
            for p, plane in enumerate(row):
                v |= plane << (p * size + i * n)
        return v

    def _basis(self):
        basis = RowBasis(self.field, self.ncols)
        for row in self.rows:
            basis.insert(basis.pack(row))
        return basis

    def rref(self):
        """Return (reduced matrix, pivot column list).

        Every row is inserted into one :class:`RowBasis`, which leaves an
        echelon basis with leading 1s.  Then each pivot, from the last
        pivot column back, clears its entries in the other pivot columns
        with the pivots already cleared.  The reduced row echelon form and
        its pivot columns are unique, so the result does not depend on the
        order of the steps.
        """
        basis = self._basis()
        pivots = basis.pivots
        leads = sorted(pivots)
        lead_mask = reduce(or_, (1 << lead for lead in leads), 0)
        for lead in reversed(leads):
            v = pivots[lead]
            # a cleared pivot is zero in every other pivot column, so
            # clearing with it adds no bit to this set
            for col in _bits(basis.support(v) & lead_mask & ~(1 << lead)):
                v = basis.clear(v, col, pivots[col])
            pivots[lead] = v
        rows = [basis.unpack(pivots[lead]) for lead in leads]
        rows.extend([0] * self.field.degree for _ in range(self.nrows - len(rows)))
        return Mat(self.field, self.nrows, self.ncols, rows), leads

    def rank(self):
        return self._basis().rank

    def nullspace(self):
        """Basis of {x : self * x = 0}, one vector per row of the result."""
        return kernel_of_rref(*self.rref())

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


def kernel_of_rref(R: Mat, pivots) -> Mat:
    """Basis of the kernel of a matrix with reduced form R and these pivot
    columns: one vector per free column fc, with 1 at fc and, at each
    pivot column pc, the entry of pc's pivot row at fc (char 2: x_pc =
    R[pc-row, fc] * x_fc).  Copies the free-column bits plane by plane."""
    free = ((1 << R.ncols) - 1) & ~reduce(or_, (1 << pc for pc in pivots), 0)
    index = {fc: k for k, fc in enumerate(_bits(free))}
    out = Mat(R.field, len(index), R.ncols)
    for fc, k in index.items():
        out.rows[k][0] = 1 << fc
    for row, pc in zip(R.rows, pivots):
        bit = 1 << pc
        for p, plane in enumerate(row):
            for fc in _bits(plane & free):
                out.rows[index[fc]][p] |= bit
    return out


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


class RowBasis:
    """Online row basis over GF(2^m) on packed row vectors.

    A row vector of ``width`` entries is one int with its bit planes side
    by side: bit ``c`` of plane ``p`` is bit ``p*width + c``.  Over GF(2)
    that is the plain bitset of the row, and over every field adding two
    rows is one XOR.  Each pivot is reduced against the earlier ones, has
    leading coefficient 1, and is keyed by its lowest nonzero column.
    """

    __slots__ = ("field", "width", "full", "pivots", "units")

    def __init__(self, field: FiniteField, width: int):
        self.field = field
        self.width = width
        self.full = (1 << width) - 1
        self.pivots = {}
        # units[e]: element e as a one-entry vector in column 0; shift it
        # left by c to put e in column c
        self.units = [sum(1 << (p * width) for p in _bits(e)) for e in field.elements()]

    @property
    def rank(self):
        return len(self.pivots)

    def pack(self, planes) -> int:
        """Packed vector of a plane list."""
        v = 0
        for p, plane in enumerate(planes):
            v |= plane << (p * self.width)
        return v

    def unpack(self, v: int) -> list:
        return [(v >> (p * self.width)) & self.full for p in range(self.field.degree)]

    def support(self, v: int) -> int:
        """Mask of the nonzero columns of v (the OR of its planes)."""
        s = 0
        while v:
            s |= v & self.full
            v >>= self.width
        return s

    def _coefficient(self, v: int, col: int) -> int:
        c = 0
        for p in range(self.field.degree):
            c |= ((v >> (p * self.width + col)) & 1) << p
        return c

    def _scale(self, c: int, v: int) -> int:
        if c == 1:
            return v
        planes = self.unpack(v)
        out = 0
        for p, srcs in enumerate(self.field.plane_sources[c]):
            out |= _xor_planes(planes, srcs) << (p * self.width)
        return out

    def clear(self, v: int, col: int, pivot: int) -> int:
        """v minus the multiple of `pivot` (entry 1 in column `col`) that
        zeroes v's entry in that column."""
        return v ^ self._scale(self._coefficient(v, col), pivot)

    def insert(self, v: int) -> bool:
        """Reduce v by the pivots; keep a nonzero remainder, scaled to a
        leading 1, as a new pivot.  Return whether v was independent."""
        pivots = self.pivots
        full = self.full
        while v:
            if v <= full:
                # plane 0 only: the entries are 0/1 and the lowest bit is
                # the leading column, with coefficient 1
                col = (v ^ (v - 1)).bit_length() - 1
                pivot = pivots.get(col)
                if pivot is None:
                    pivots[col] = v
                    return True
                v ^= pivot
                continue
            support = self.support(v)
            col = (support ^ (support - 1)).bit_length() - 1
            pivot = pivots.get(col)
            if pivot is None:
                inv = self.field.inv(self._coefficient(v, col))
                pivots[col] = self._scale(inv, v)
                return True
            v = self.clear(v, col, pivot)
        return False


def _xor_planes(planes, srcs):
    acc = 0
    for j in srcs:
        acc ^= planes[j]
    return acc
