"""Dense exact matrices over GF(2^m), bit-plane packed.

A row vector of ``width`` entries is one Python int with its bit planes
side by side: bit ``p*width + c`` is the coefficient of x^p in entry
``c``.  Over GF(2) that is the plain bitset of the row, and over every
field adding two rows is one XOR.  This is the only row format: a row of a
:class:`Mat` is such an int of width ``ncols``, and :class:`RowBasis`
holds such ints as an echelon basis.  Scalar multiplication mixes the
planes through the tables precomputed on the field (:func:`scale`), and
:func:`repack` moves the planes of vectors to another width.

:class:`RowBasis` is the only elimination kernel: :meth:`Mat.rref` (and
through it row space, solve and inverse) inserts every row, then
back-substitutes with :meth:`RowBasis.reduce`; :meth:`Mat.nullspace` reads
:meth:`RowBasis.kernel` off the reduced basis.  The Hom systems, covers and
Ext^1 classes of the module calculus are reduced in it row by row.  The
reduced row echelon form and its pivot columns are unique, so results do
not depend on how the elimination is organised.

Everything here is exact and deterministic.  Matrices act on column
vectors; subspaces are handled as matrices whose rows span them.
"""

from __future__ import annotations

from .errors import DimensionMismatch, ParseError
from .gf import FiniteField


def bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def support(v: int, width: int) -> int:
    """Mask of the nonzero entries of v (the OR of its planes)."""
    full = (1 << width) - 1
    s = 0
    while v:
        s |= v & full
        v >>= width
    return s


def scale(field: FiniteField, c: int, v: int, width: int) -> int:
    """The vector v times the scalar c."""
    if c < 2:
        return v if c else 0
    full = (1 << width) - 1
    out = 0
    for p, srcs in enumerate(field.plane_sources[c]):
        acc = 0
        for j in srcs:
            acc ^= v >> (j * width)
        out |= (acc & full) << (p * width)
    return out


def repack(vs: list, width: int, new_width: int, degree: int) -> list:
    """The vectors vs with their planes moved from `width` to `new_width`
    apart, each plane cut to its low `new_width` entries."""
    full = (1 << min(width, new_width)) - 1
    out = [v & full for v in vs]
    for p in range(1, degree):
        a, b = p * width, p * new_width
        out = [o | ((v >> a) & full) << b for o, v in zip(out, vs)]
    return out


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FiniteField, nrows: int, ncols: int, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [0] * nrows if rows is None else rows

    # -- construction ---------------------------------------------------
    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [1 << i for i in range(n)])

    @classmethod
    def from_entries(cls, field, entries):
        """The matrix of a list of rows, each a list of field elements, the
        integers 0..field.order-1; ParseError for any other entry."""
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged entry rows")
            v = 0
            for c, e in enumerate(row):
                if type(e) is not int or not 0 <= e < field.order:
                    raise ParseError(f"entry {e!r} is not an element of {field}")
                for p in bits(e):
                    v |= 1 << (p * ncols + c)
            rows.append(v)
        return cls(field, nrows, ncols, rows)

    def copy(self):
        return Mat(self.field, self.nrows, self.ncols, self.rows[:])

    # -- entry access -----------------------------------------------------
    def entry(self, r, c):
        v = self.rows[r] >> c
        n = self.ncols
        e = 0
        for p in range(self.field.degree):
            e |= ((v >> (p * n)) & 1) << p
        return e

    def set_entry(self, r, c, e):
        v = self.rows[r]
        for p in range(self.field.degree):
            bit = 1 << (p * self.ncols + c)
            v = v | bit if (e >> p) & 1 else v & ~bit
        self.rows[r] = v

    def to_entries(self):
        return [[self.entry(r, c) for c in range(self.ncols)] for r in range(self.nrows)]

    def key(self):
        """Hashable canonical key (for dedup of equal matrices)."""
        return (self.nrows, self.ncols, tuple(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        return not any(self.rows)

    # -- arithmetic -----------------------------------------------------------
    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix add shape mismatch")
        return Mat(self.field, self.nrows, self.ncols, [a ^ b for a, b in zip(self.rows, other.rows)])

    def scale(self, s):
        rows = [scale(self.field, s, v, self.ncols) for v in self.rows]
        return Mat(self.field, self.nrows, self.ncols, rows)

    def mul(self, other):
        """Row r of the product: for each plane p of row r of self, the XOR
        of the rows of other it selects, times x^p."""
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix mul shape mismatch")
        field = self.field
        k, m = self.ncols, other.ncols
        full = (1 << k) - 1
        brows = other.rows
        rows = []
        for a in self.rows:
            acc = 0
            p = 0
            while a:
                plane = a & full
                s = 0
                while plane:
                    low = plane & -plane
                    s ^= brows[low.bit_length() - 1]
                    plane ^= low
                acc ^= scale(field, 1 << p, s, m)
                a >>= k
                p += 1
            rows.append(acc)
        return Mat(field, self.nrows, m, rows)

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
        n, m = self.ncols, self.nrows
        rows = [0] * n
        for r, v in enumerate(self.rows):
            for b in bits(v):
                p, c = divmod(b, n)
                rows[c] |= 1 << (p * m + r)
        return Mat(self.field, n, m, rows)

    # -- elimination -----------------------------------------------------------
    def vector(self) -> int:
        """The matrix flattened row after row, entry (i, j) in column
        i*ncols + j, as one vector."""
        n = self.ncols
        size = self.nrows * n
        degree = self.field.degree
        v = 0
        for i, row in enumerate(repack(self.rows, n, size, degree)):
            v |= row << (i * n)
        return v

    def _basis(self):
        basis = RowBasis(self.field, self.ncols)
        for v in self.rows:
            basis.insert(v)
        return basis

    def rref(self):
        """Return (reduced matrix, pivot column list): the rows inserted
        into one :class:`RowBasis`, reduced, in the order of their leads."""
        basis = self._basis()
        basis.reduce()
        leads = sorted(basis.pivots)
        rows = [basis.pivots[lead] for lead in leads]
        rows.extend([0] * (self.nrows - len(rows)))
        return Mat(self.field, self.nrows, self.ncols, rows), leads

    def rank(self):
        return self._basis().rank

    def nullspace(self):
        """Basis of {x : self * x = 0}, one vector per row of the result."""
        kernel = self._basis().kernel()
        return Mat(self.field, len(kernel), self.ncols, kernel)

    def row_space(self):
        R, pivots = self.rref()
        return Mat(self.field, len(pivots), self.ncols, R.rows[: len(pivots)])

    def column_space(self):
        return self.transpose().row_space()

    def solve(self, b):
        """One solution X of self * X = b, or None if inconsistent."""
        if b.nrows != self.nrows:
            raise DimensionMismatch("solve shape mismatch")
        n, k = self.ncols, b.ncols
        R, pivots = hstack([self, b]).rref()
        if pivots and pivots[-1] >= n:
            return None
        x = Mat(self.field, n, k)
        parts = repack([row >> n for row in R.rows[: len(pivots)]], n + k, k, self.field.degree)
        for row, pc in zip(parts, pivots):
            x.rows[pc] = row
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        return self.solve(Mat.identity(self.field, self.nrows))

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        return f"Mat({self.field}, {self.nrows}x{self.ncols})"


def hstack(mats):
    field = mats[0].field
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise DimensionMismatch("hstack row mismatch")
    width = sum(m.ncols for m in mats)
    rows = [0] * nrows
    shift = 0
    for m in mats:
        for r, v in enumerate(repack(m.rows, m.ncols, width, field.degree)):
            rows[r] |= v << shift
        shift += m.ncols
    return Mat(field, nrows, width, rows)


def vstack(mats):
    field = mats[0].field
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    rows = []
    for m in mats:
        rows.extend(m.rows)
    return Mat(field, len(rows), ncols, rows)


def block_diag(mats):
    field = mats[0].field
    width = sum(m.ncols for m in mats)
    rows = []
    shift = 0
    for m in mats:
        rows.extend(v << shift for v in repack(m.rows, m.ncols, width, field.degree))
        shift += m.ncols
    return Mat(field, len(rows), width, rows)


class RowBasis:
    """Online row basis over GF(2^m) on row vectors of ``width`` entries.

    Each pivot is reduced against the earlier ones, has leading
    coefficient 1, and is keyed by its lowest nonzero column.
    """

    __slots__ = ("field", "width", "full", "pivots")

    def __init__(self, field: FiniteField, width: int):
        self.field = field
        self.width = width
        self.full = (1 << width) - 1
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def _coefficient(self, v: int, col: int) -> int:
        c = 0
        for p in range(self.field.degree):
            c |= ((v >> (p * self.width + col)) & 1) << p
        return c

    def clear(self, v: int, col: int, pivot: int) -> int:
        """v minus the multiple of `pivot` (entry 1 in column `col`) that
        zeroes v's entry in that column."""
        return v ^ scale(self.field, self._coefficient(v, col), pivot, self.width)

    def insert(self, v: int, keep: bool = True) -> bool:
        """Reduce v by the pivots; if `keep`, keep a nonzero remainder,
        scaled to a leading 1, as a new pivot.  Return whether v was
        independent."""
        pivots = self.pivots
        full = self.full
        while v:
            if v <= full:
                # plane 0 only: the entries are 0/1 and the lowest bit is
                # the leading column, with coefficient 1
                col = (v ^ (v - 1)).bit_length() - 1
                pivot = pivots.get(col)
                if pivot is None:
                    if keep:
                        pivots[col] = v
                    return True
                v ^= pivot
                continue
            s = support(v, self.width)
            col = (s ^ (s - 1)).bit_length() - 1
            pivot = pivots.get(col)
            if pivot is None:
                if keep:
                    inv = self.field.inv(self._coefficient(v, col))
                    pivots[col] = scale(self.field, inv, v, self.width)
                return True
            v = self.clear(v, col, pivot)
        return False

    def contains(self, v: int) -> bool:
        """Whether v lies in the span of the pivots."""
        return not self.insert(v, keep=False)

    def reduce(self):
        """Back-substitute: from the last pivot column back, each pivot
        clears its entries in the other pivot columns with the pivots
        already cleared.  The pivots, in the order of their leads, are then
        the reduced row echelon form of the span."""
        pivots = self.pivots
        leads = sorted(pivots)
        lead_mask = sum(1 << lead for lead in leads)
        for lead in reversed(leads):
            v = pivots[lead]
            # a cleared pivot is zero in every other pivot column, so
            # clearing with it adds no bit to this set
            for col in bits(support(v, self.width) & lead_mask & ~(1 << lead)):
                v = self.clear(v, col, pivots[col])
            pivots[lead] = v

    def kernel(self, zero: int = 0) -> list:
        """Basis of {x : p . x = 0 for every pivot p, x_c = 0 for every
        column c in the mask `zero`}, read off the reduced basis: one vector
        per free column fc, with 1 at fc and, at each pivot column pc, the
        entry of pc's pivot at fc (char 2: x_pc = p[fc] * x_fc).  No pivot
        may have an entry in `zero`."""
        self.reduce()
        width = self.width
        free = self.full & ~zero & ~sum(1 << pc for pc in self.pivots)
        index = {fc: k for k, fc in enumerate(bits(free))}
        out = [1 << fc for fc in index]
        free_planes = sum(free << (p * width) for p in range(self.field.degree))
        for pc, v in self.pivots.items():
            for b in bits(v & free_planes):
                p, fc = divmod(b, width)
                out[index[fc]] |= 1 << (p * width + pc)
        return out
