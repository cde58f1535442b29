"""Module calculus over a fixed algebra context: Hom spaces, covers,
syzygies, stable Hom, Ext^1, isomorphism testing, Fitting decomposition,
radical/socle structure and non-split extensions.

The top and the radical are read off Hom with the simples, which set-up
checks to be absolutely simple and pairwise non-isomorphic: a basis of
each Hom(M, S_i), stacked, is a map T: M ->> top(M), so rad M = ker T
and t_i(M) is the number of basis maps to S_i.  The socle is the top of
the dual, read back through D (below), so no routine here solves a Hom
system from a simple S_i.  The projective cover keeps a map h: P_i -> M
when T*h grows the image in top(M) of the maps kept so far; the zero
module is its own cover.

Everything reduces to exact linear algebra.  A module map M -> N is a
plain N.dim x M.dim matrix (is_module_map checks one).  Hom spaces are
intertwiner solution spaces; one function (_hom_rows) sets up the Hom
system for hom_dim and hom_basis, in one layout for every pair: the
unknown X[i,k] is column i*M.dim + k, as in the entrywise system.  An
equation with one entry only says that one unknown is zero.  String
modules, bands with m = 1, the projectives of Lambda and the simples act
by partial permutations, so most of their equations are of that kind.
Those unknowns are kept as one known-zero mask Z, set a row of X at a
time.  The equations with two or more entries come from one loop over
the pairs (a row of a generator on N, a column of it on M), a zero line
read as the line 0 only where that gives such an equation; with their
entries in Z cleared on every plane, they go into a RowBasis.  With the
units of Z they span the row space of the entrywise system, and none has
an entry in Z, so that rank is |Z| plus theirs: hom_dim = M.dim * N.dim -
|Z| - rank.  When the vertex idempotents act on both modules as
complementary 0/1 diagonal matrices (_vertex_masks), their equations say
exactly that X[i,k] is zero for i and k at different vertices, whatever
the arrows do: those unknowns go into Z too, and only the other
generators are read.  hom_basis reads its maps off the kernel of the
reduced basis, with Z as known-zero columns; the row space and the
column order are those of the entrywise system, so every Hom basis, down
to its order, is the one the entrywise system gives.  What a system
reads of a module, each generator's view (_Generator) and the vertex
masks, is cached on it; a string module hands both over from the pass
over its word that places its matrix entries (modules.string_module,
_entry_view), a .plain() copy derives them from its matrices.  dim
End(M) is solved once per module and cached, so stable_hom_dim(M, M) and
ext1_dim(M, M) share one solve.

A map f: M -> N factors through a projective iff it lifts along the
projective cover pi: P(N) ->> N, that is iff f lies in the span of the
pi*g over a basis of Hom(M, P(N)).  The cover of a module and its kernel, with the
inclusion, are one construction (_cover), built once and cached;
projective_cover, syzygy and nonsplit_extension read it.
nonsplit_extension takes its cocycle from the cocycle basis and the
coboundary span that also give dim Ext^1 (_extension), which is how
groupside.extension_tower checks Ext^1 = k and builds each step.
A string or band module carries the tag of its isomorphism class in
M.cache["tag"] (modules.string_module, modules.band_module): its String,
or its Band with lambda read in the Band's orientation and m.  A direct
sum keeps its parts, the part objects themselves, in M.cache["parts"]
(rep.direct_sum).  Two premises make tags decide isomorphism and
decomposition: a string module and the M(B, lambda, m) of a primitive
band are indecomposable, and two of them are isomorphic iff their tags
are equal (Butler-Ringel 1987); and Krull-Schmidt holds, so a module is
fixed up to isomorphism by the multiset of its indecomposable summands.
So decompose returns a tagged module whole and a sum as the concatenated
decompositions of its parts, solving no linear system.  Any other module
goes through one deterministic search (_split): basis endomorphisms, then
their products with the nilpotents found so far, are shifted by the
first monic polynomial that makes them singular.  A shifted map that is
not nilpotent splits the module (Fitting's lemma); the nilpotent ones
span V, and End is certified local once V is closed under multiplication
by End and End = k[g] + V for one shifted map g.  SplitFailure is raised
only when the search ends with neither; no such input is known.
is_isomorphic has one route, Krull-Schmidt: it matches the two
decompositions under indec_isomorphic, which compares tags when both
summands carry one and otherwise looks for an invertible basis map of
Hom(U, V), a complete test as End(U) is local.  Two sums of string and
band modules are so decided on their tags alone.  ModuleRep.plain() gives
a copy with an empty cache, which takes the matrix route: the tests use
it as the oracle of the tag route.

Negative syzygies, quotients and socles go through D, the k-dual made a
module through the context's anti-automorphism (ctx.opposite): D is an
exact duality, and at set-up the dual of each projective indecomposable
is checked to be one, so D takes the projective cover of D(M) to the
injective envelope of M and Omega^-1 = D Omega D; D(M/U) is the
annihilator of U in D(M), so quotient_module is D of a sub_module of
D(M); and D(soc M) is top D(M), so soc M is the annihilator of rad D(M)
and the socle series is D of the radical series of D(M), S_i counted at
the index of D(S_i).  At set-up top D(P_i) is checked to be D(S_i), that
is soc P_i = S_i; that makes P_i the injective hull of S_i, so that
dim Hom(M, P_i) = [M : S_i], and stable Hom needs no cover:
stable_hom_dim(M, N) = hom(M, N) - sum_i t_i(N) c_i(M) + hom(M, Omega N),
with t the top and c the composition multiplicities.  Ext^1 needs the
cover of its first argument only: Hom(-, N) of 0 -> Omega M -> P(M) -> M
-> 0 gives ext1_dim(M, N) = hom(Omega M, N) - sum_i t_i(M) c_i(N) +
hom(M, N), on any algebra with split simples.  The top multiplicities
are hom(M, S_i).  With vertex idempotents c_i(M) = rank e_i, on the
premise, certified at set-up, that S_i is e_i acting by 1 and the rest
by 0: the size of e_i's vertex mask when the idempotents are 0/1
diagonal; over a group c_i(M) = hom(P_i, M), the last c_i read off dim
M.  Both take Omega from syzygy, the one Omega route: a tagged module
steps both ways on its word (words.syzygy_word), any other module, the
.plain() oracle among them, on covers and, for Omega^-1, D.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    ParseError,
    SplitFailure,
    SplitOnly,
)
from .matrix import Mat, RowBasis, bits, hstack, repack, support, vstack
from .rep import ModuleRep, direct_sum
from .words import String, syzygy_word


def _check_context(M: ModuleRep, N: ModuleRep):
    if M.algebra is not N.algebra:
        raise ContextMismatch(f"{M!r} vs {N!r}")


def _check_map(f: Mat, M: ModuleRep, N: ModuleRep):
    """A map M -> N is an N.dim x M.dim matrix between modules over one
    context."""
    _check_context(M, N)
    if (f.nrows, f.ncols) != (N.dim, M.dim):
        raise DimensionMismatch(f"a map {M!r} -> {N!r} is {N.dim}x{M.dim}, not {f.nrows}x{f.ncols}")


# -- Hom spaces ---------------------------------------------------------------


def _vertex_masks(M: ModuleRep):
    """The mask of the basis vectors at each vertex, read off the vertex
    idempotents alone, or None; cached in M.cache.

    When they act as complementary 0/1 diagonal matrices, the idempotent
    equations of a Hom system say exactly that X[i,k] is zero for i and k
    at different vertices.  A group (no idempotents, one vertex) gives one
    full mask, any other action None."""
    if "vertex_masks" not in M.cache:
        full = (1 << M.dim) - 1
        masks = [full]
        if M.algebra.idempotents:
            diagonals = [M.action[name].rows for name in M.algebra.idempotents]
            masks = [reduce(or_, rows, 0) for rows in diagonals]
            zero_one = all(row in (0, 1 << i) for rows in diagonals for i, row in enumerate(rows))
            if not zero_one or sum(masks) != full or reduce(or_, masks) != full:
                masks = None
        M.cache["vertex_masks"] = masks
    return M.cache["vertex_masks"]


class _Generator(NamedTuple):
    """A generator's matrix a as a Hom system reads it: by its columns
    when the module is the source, by its rows when it is the target."""

    cols: list  # (j, column j) for each nonzero column, entry k at bit k
    zero_cols: int  # the mask of the zero columns
    image: int  # the OR of the single-entry columns
    multi_col: bool  # whether a column has two or more entries
    rows: list  # (i, row i) for each nonzero row
    zero_rows: int  # the mask of the zero rows
    coimage: int  # the OR of the single-entry rows
    multi_row: bool  # whether a row has two or more entries


def _generators(M, names) -> list:
    """The generators `names` of M, each read by columns and by rows
    (_Generator); the views are cached in M.cache, one dict by name."""
    views = M.cache.setdefault("hom_gens", {})
    try:
        return [views[name] for name in names]
    except KeyError:
        views.update((name, _generator(M, name)) for name in names if name not in views)
        return [views[name] for name in names]


def _generator(M, name: str) -> _Generator:
    """The matrix of generator `name` on M, read by columns and by rows;
    one whose nonzero rows are each a single 1 is read by _entry_view."""
    n = M.dim
    full = (1 << n) - 1
    rows = [(i, row) for i, row in enumerate(M.action[name].rows) if row]
    if all(row <= full and not row & (row - 1) for _, row in rows):
        return _entry_view(n, [(i, row.bit_length() - 1) for i, row in rows])
    cols = [0] * n
    for i, row in rows:
        while row:
            low = row & -row
            p, j = divmod(low.bit_length() - 1, n)
            cols[j] |= 1 << (p * n + i)
            row ^= low
    cols = [(j, col) for j, col in enumerate(cols) if col]
    return _Generator(*_lines(cols, n), *_lines(rows, n))


def _entry_view(n: int, entries: list) -> _Generator:
    """The _Generator of the n x n matrix with a 1 at each (dst, src) of
    `entries` and 0 elsewhere; the entries are listed by row, at most one
    a row, while a column may have several."""
    full = (1 << n) - 1
    rows = []
    cols = {}
    dsts = 0
    for dst, src in entries:
        rows.append((dst, 1 << src))
        dsts |= 1 << dst
        cols[src] = cols.get(src, 0) | 1 << dst
    srcs = image = 0
    multi_col = False
    for j, col in cols.items():
        srcs |= 1 << j
        if col & (col - 1):
            multi_col = True
        else:
            image |= col
    return _Generator(sorted(cols.items()), full ^ srcs, image, multi_col, rows, full ^ dsts, srcs, False)


def _lines(lines: list, n: int) -> tuple:
    """(lines, the mask of the zero lines, the OR of the single-entry
    lines, whether a line has two or more entries) for the nonzero lines
    (j, v) of an n x n matrix."""
    full = (1 << n) - 1
    nonzero = single = 0
    multi = False
    for j, v in lines:
        nonzero |= 1 << j
        s = v if v <= full else support(v, n)
        if s & (s - 1):
            multi = True
        else:
            single |= s
    return lines, full ^ nonzero, single, multi


def _dilate(v: int, n: int, m: int) -> int:
    """The vector v of n entries with entry l moved to entry l*m and its
    planes n*m apart."""
    if 0 < v < 1 << n and not v & (v - 1):
        return 1 << ((v.bit_length() - 1) * m)
    width = n * m
    out = 0
    shift = 0
    full = (1 << n) - 1
    while v:
        plane = v & full
        while plane:
            low = plane & -plane
            out |= 1 << (shift + (low.bit_length() - 1) * m)
            plane ^= low
        v >>= n
        shift += width
    return out


class _HomSystem(NamedTuple):
    """The Hom system of a pair M -> N, the unknown X[i,k] in column
    i*M.dim + k: `zero`, the mask of the unknowns known to be zero;
    `basis`, the other equations with those entries cleared."""

    basis: RowBasis
    zero: int


def _hom_rows(M, N) -> _HomSystem:
    """The equations of X*a_M = a_N*X, the unknown X[i,k] in column
    i*m + k (m = M.dim, n = N.dim).

    Equation (i, j) of a generator a reads sum_k a_M[k,j] X[i,k] =
    sum_l a_N[i,l] X[l,j].  When both modules have vertex masks
    (_vertex_masks), the idempotent equations say exactly that X[i,k] is
    zero for i and k at different vertices: those unknowns start the zero
    mask Z, and only the other generators are read.  Otherwise every
    generator is read.  Each generator read gives every equation.

    An equation with one entry says that one unknown is zero, and those
    go into Z in bulk.  A zero row i of a_N against a single-entry column
    of a_M zeroes X[i,k], with k the entry of that column: over the zero
    rows that is the image of the single-entry columns shifted to row i of
    X.  A single-entry row of a_N, with its entry at l, against a zero
    column j of a_M zeroes X[l,j]: the zero columns shifted to row l.  The
    other equations, with the entries in Z cleared on every plane, come
    from one loop over the pairs (row i of a_N, column j of a_M) into one
    RowBasis, which is reduced before it is read.  The loop reads a zero
    row as (i, 0) if a_M has a multi-entry column, a zero column as (j, 0)
    if a_N has a multi-entry row: any other pair with a zero line clears
    to 0.  With the units of Z they span the row space of the entrywise
    system, and none of them has an entry in Z, so the rank of the system
    is |Z| plus the rank of the RowBasis."""
    ctx = M.algebra
    m, n = M.dim, N.dim
    width = n * m
    mm, nm = _vertex_masks(M), _vertex_masks(N)
    names = ctx.gen_names
    if mm is None or nm is None:
        mm, nm = [(1 << m) - 1], [(1 << n) - 1]
    else:
        names = names[len(ctx.idempotents) :]  # the idempotents come first
    gens = list(zip(_generators(M, names), _generators(N, names)))
    # _dilate(mask, n, m) has bit i*m set for each row i of X in the mask;
    # times m bits, it copies them into each such row.  starts covers
    # every row, lead the zero rows of a generator of N, cleared from
    # starts by its few nonzero rows
    full = (1 << m) - 1
    starts = zero = 0
    for a, b in zip(mm, nm):
        rows = _dilate(b, n, m)
        starts |= rows
        zero |= rows * (full ^ a)
    for a, b in gens:
        lead = starts
        for i, _ in b.rows:
            lead &= ~(1 << (i * m))
        zero |= lead * a.image | _dilate(b.coimage, n, m) * a.zero_cols
    degree = M.field.degree
    keep = (1 << (degree * width)) - 1
    for p in range(degree):
        keep ^= zero << (p * width)
    basis = RowBasis(M.field, width)
    insert = basis.insert
    for a, b in gens:
        rows, cols = b.rows, a.cols
        if a.multi_col:
            rows = rows + [(i, 0) for i in bits(b.zero_rows)]
        if b.multi_row:
            cols = cols + [(j, 0) for j in bits(a.zero_cols)]
        if degree > 1:
            cols = list(zip([j for j, _ in cols], repack([col for _, col in cols], m, width, degree)))
        for i, row in rows:
            shift = i * m
            d = _dilate(row, n, m)
            for j, col in cols:
                v = ((col << shift) ^ (d << j)) & keep
                if v:
                    insert(v)
    return _HomSystem(basis, zero)


def hom_dim(M: ModuleRep, N: ModuleRep) -> int:
    """dim Hom(M, N).  dim End(M) is solved once and cached in M.cache."""
    _check_context(M, N)
    if M.dim * N.dim == 0:
        return 0
    if M is not N:
        return _hom_dim(M, N)
    if "end_dim" not in M.cache:
        M.cache["end_dim"] = _hom_dim(M, M)
    return M.cache["end_dim"]


def _hom_dim(M: ModuleRep, N: ModuleRep) -> int:
    system = _hom_rows(M, N)
    return M.dim * N.dim - system.zero.bit_count() - system.basis.rank


def hom_basis(M: ModuleRep, N: ModuleRep) -> list[Mat]:
    """Basis of intertwiners as matrices (N.dim x M.dim)."""
    _check_context(M, N)
    if M.dim * N.dim == 0:
        return []
    system = _hom_rows(M, N)
    basis = system.basis
    m, degree = M.dim, M.field.degree
    out = []
    for x in basis.kernel(system.zero):
        rows = repack([x >> (i * m) for i in range(N.dim)], basis.width, m, degree)
        out.append(Mat(M.field, N.dim, m, rows))
    return out


def end_dim(M: ModuleRep) -> int:
    return hom_dim(M, M)


def is_module_map(f: Mat, M: ModuleRep, N: ModuleRep) -> bool:
    """Does the matrix f (N.dim x M.dim) commute with every generator,
    f*a_M = a_N*f?"""
    _check_map(f, M, N)
    return all(f.mul(M.action[name]) == N.action[name].mul(f) for name in M.algebra.gen_names)


# -- sub/quotient machinery ---------------------------------------------------


def sub_module(M: ModuleRep, rows: Mat, label: str = "") -> tuple[ModuleRep, Mat]:
    """Submodule spanned by the given row vectors.

    Returns (S, inc) with inc an (M.dim x S.dim) inclusion matrix.
    Raises if the span is not invariant.
    """
    R, pivots = rows.rref()
    r = len(pivots)
    inc = Mat(M.field, r, R.ncols, R.rows[:r]).transpose()
    action = {}
    for name in M.algebra.gen_names:
        prod = M.action[name].mul(inc)  # M.dim x r
        coords = Mat(M.field, r, r, [prod.rows[p] for p in pivots])
        if inc.mul(coords) != prod:
            raise DimensionMismatch(f"span not invariant under {name}")
        action[name] = coords
    return ModuleRep(M.algebra, r, action, label or f"sub({M.label})"), inc


def quotient_module(M: ModuleRep, rows: Mat, label: str = "") -> ModuleRep:
    """Quotient of M by the invariant span U of the given row vectors, as
    D of the annihilator of U in D(M): D is an exact duality (see dual),
    so that annihilator, a submodule of D(M), is D(M/U).  Raises
    DimensionMismatch (from sub_module) if the span is not invariant."""
    return dual(sub_module(dual(M), rows.nullspace())[0], label=label or f"quot({M.label})")


# -- tops, socles, covers -------------------------------------------------------


def _top_bases(M: ModuleRep) -> list[list[Mat]]:
    """A basis of Hom(M, S_i) for each simple S_i, cached in M.cache, a
    list that callers only read."""
    if "top_bases" not in M.cache:
        M.cache["top_bases"] = [hom_basis(M, S) for S in M.algebra.simples]
    return M.cache["top_bases"]


def _top_map(M: ModuleRep) -> Mat:
    """T: M ->> top(M), the basis maps to the simples stacked."""
    rows = [v for basis in _top_bases(M) for h in basis for v in h.rows]
    return Mat(M.field, len(rows), M.dim, rows)


def rad_rows(M: ModuleRep) -> Mat:
    """Basis of rad M, the common kernel of the maps M -> S_i."""
    return _top_map(M).nullspace()


def top_multiplicities(M: ModuleRep) -> list[int]:
    """How often each P_i is a summand of P(M), t_i(M) = [top M : S_i] =
    hom(M, S_i); cached in M.cache, a list that callers only read."""
    if "tops" not in M.cache:
        M.cache["tops"] = [hom_dim(M, S) for S in M.algebra.simples]
    return M.cache["tops"]


def socle_rows(M: ModuleRep) -> Mat:
    """Basis of soc M, the annihilator of rad D(M): D is an exact duality
    (see dual), so D(soc M) is the top of D(M)."""
    return rad_rows(dual(M)).nullspace()


def projective_cover(M: ModuleRep) -> tuple[ModuleRep, Mat]:
    """(P, pi) with P a sum of projective indecomposables matching top
    multiplicities and pi: P ->> M surjective (pi is M.dim x P.dim): the
    first two entries of _cover.  The zero module is its own cover."""
    return _cover(M)[:2]


def _cover(M: ModuleRep):
    """(P, pi, Omega, inc): the projective cover pi: P ->> M, its kernel
    Omega(M) and the inclusion inc: Omega -> P, built once and cached in
    M.cache["cover"]; projective_cover, syzygy and _coboundaries read it.
    The zero module is its own cover and its own Omega."""
    if "cover" in M.cache:
        return M.cache["cover"]
    if M.dim == 0:
        return M, Mat.zeros(M.field, 0, 0), M, Mat.zeros(M.field, 0, 0)
    ctx = M.algebra
    top = _top_map(M)
    # the chosen maps cover M iff their images span top(M) (ker T = rad M);
    # a map is kept when its image grows the span of the images kept so far;
    # T.h lies in the S_i part of top(M), so P_i gives exactly t_i of them
    span = RowBasis(M.field, top.nrows)
    blocks = []
    summands = []
    for P_i, basis in zip(ctx.pims, _top_bases(M)):
        if not basis:
            continue
        for h in hom_basis(P_i, M):
            rank = span.rank
            for v in top.mul(h).transpose().rows:
                span.insert(v)
            if span.rank > rank:
                blocks.append(h)
                summands.append(P_i)
    pi = hstack(blocks)
    P = direct_sum(summands, label=f"P({M.label})")
    if pi.rank() != M.dim:
        raise SplitFailure(f"cover of {M!r} is not surjective")
    Omega, inc = sub_module(P, pi.nullspace(), label=f"O({M.label})")
    M.cache["cover"] = (P, pi, Omega, inc)
    return M.cache["cover"]


def dual(M: ModuleRep, label: str = "") -> ModuleRep:
    """The k-dual D(M) = Hom_k(M, k), a module through the context's
    anti-automorphism: each generator acts by the transpose of the
    matrix of its opposite word (ctx.opposite) on M."""
    action = {name: M.word_matrix(word).transpose() for name, word in M.algebra.opposite.items()}
    return ModuleRep(M.algebra, M.dim, action, label or f"D({M.label})")


def syzygy(M: ModuleRep, steps: int = 1) -> ModuleRep:
    """Omega^steps, negative steps being cosyzygies, a step at a time;
    each step is cached in the module it leaves, under "syzygy" (Omega) or
    "cosyzygy" (Omega^-1).  A string or band module steps on its tag, to
    the module of its word's Omega^+-1 (words.syzygy_word) with the same
    lambda and m; any other module, a .plain() copy among them, to the
    kernel of its cover (_cover), or to D Omega D (D is an exact duality
    that takes projectives to projectives).  Projective summands are
    absorbed, so Omega of a projective, and of 0, is 0.  ParseError for a
    step count that is not an int, a bool among them."""
    if type(steps) is not int:
        raise ParseError(f"the number of Omega steps must be an int, not {steps!r}")
    cur = M
    while steps and cur.dim:
        sign = 1 if steps > 0 else -1
        key = "syzygy" if sign > 0 else "cosyzygy"
        if key not in cur.cache:
            tag = cur.cache.get("tag")
            if tag is not None:
                from .modules import band_module, string_module  # modules -> algebra -> calculus
                if isinstance(tag, String):
                    step = string_module(syzygy_word(tag, sign), cur.field.degree)
                else:
                    band, lam, m = tag
                    step = band_module(syzygy_word(band.word, sign), lam, m, cur.field.degree)
            elif sign > 0:
                step = _cover(cur)[2]
            else:
                step = dual(syzygy(dual(cur)), label=f"O-({cur.label})")
            cur.cache[key] = step
        cur = cur.cache[key]
        steps -= sign
    return cur


# -- stable homs, Ext^1 ------------------------------------------------------------


def stable_hom_dim(M: ModuleRep, N: ModuleRep) -> int:
    """dim of Hom(M,N) modulo maps factoring through a projective:

        hom(M, N) - sum_i t_i(N) * c_i(M) + hom(M, Omega N)

    with t_i(N) the number of copies of P_i in P(N) (top_multiplicities)
    and c_i(M) = [M : S_i] (composition_multiplicities).

    A map factors through a projective iff it lifts along the cover
    P(N) ->> N, and Hom(M, -) of 0 -> Omega N -> P(N) -> N is left exact,
    so the factoring maps number hom(M, P(N)) - hom(M, Omega N).  Every
    context is checked at set-up to have split simples and each P_i with
    a simple socle isomorphic to S_i; so P_i is the injective hull of S_i
    and hom(M, P_i) = [M : S_i].  No cover is built."""
    _check_context(M, N)
    if N.dim == 0 or M.dim == 0:
        return 0
    tops = top_multiplicities(N)
    comp = composition_multiplicities(M)
    through_p = sum(t * c for t, c in zip(tops, comp))
    return hom_dim(M, N) - through_p + hom_dim(M, syzygy(N))


def stable_end_dim(M: ModuleRep) -> int:
    return stable_hom_dim(M, M)


def factors_through_projective(f: Mat, M: ModuleRep, N: ModuleRep) -> bool:
    """Does the module map f: M -> N (an N.dim x M.dim matrix) factor
    through a projective?

    It does iff it lifts along the projective cover pi: P(N) ->> N, that
    is iff f lies in the span of the pi*g for g in Hom(M, P(N))."""
    _check_map(f, M, N)
    P, pi = projective_cover(N)
    lifts = RowBasis(M.field, N.dim * M.dim)
    for g in hom_basis(M, P):
        lifts.insert(pi.mul(g).vector())
    return lifts.contains(f.vector())


def ext1_dim(M: ModuleRep, N: ModuleRep) -> int:
    """dim Ext^1(M, N) from the cover of M alone:

        hom(Omega M, N) - sum_i t_i(M) * c_i(N) + hom(M, N)

    Hom(-, N) of 0 -> Omega M -> P(M) -> M -> 0 is exact up to
    Ext^1(M, N) -> Ext^1(P(M), N) = 0, and hom(P_i, N) = [N : S_i] as the
    simples are split.  It needs no symmetric-algebra premise, builds no
    Omega(N), and gives 0 for a projective M (Omega M = 0, P(M) = M)."""
    _check_context(M, N)
    if N.dim == 0 or M.dim == 0:
        return 0
    tops = top_multiplicities(M)
    comp = composition_multiplicities(N)
    through_p = sum(t * c for t, c in zip(tops, comp))
    return hom_dim(syzygy(M), N) - through_p + hom_dim(M, N)


def _coboundaries(M: ModuleRep, N: ModuleRep):
    """(P, Omega, inc, cob): the projective cover P of M, its kernel
    Omega with the inclusion inc into P (_cover), and the span of the
    coboundaries g*inc for g in Hom(P, N), as flattened vectors."""
    P, _, Omega, inc = _cover(M)
    cob = RowBasis(M.field, N.dim * Omega.dim)
    for g in hom_basis(P, N):
        cob.insert(g.mul(inc).vector())
    return P, Omega, inc, cob


# -- isomorphism and decomposition ------------------------------------------------


def is_isomorphic(M: ModuleRep, N: ModuleRep) -> bool:
    """Exact isomorphism test by Krull-Schmidt: M and N are isomorphic iff
    the summands of decompose(M) match those of decompose(N) one to one
    under indec_isomorphic.  The summands of a string or band module, or
    of a sum of them, are tagged part objects, so such a pair is decided
    on the tags with no linear system."""
    _check_context(M, N)
    if M.dim != N.dim:
        return False
    parts_n = decompose(N)
    for U in decompose(M):
        hit = next((k for k, V in enumerate(parts_n) if indec_isomorphic(U, V)), None)
        if hit is None:
            return False
        parts_n.pop(hit)
    return not parts_n


def indec_isomorphic(U: ModuleRep, V: ModuleRep) -> bool:
    """Isomorphism test for U KNOWN to be indecomposable.  When both are
    string or band modules, their tags are equal (Butler-Ringel 1987);
    otherwise some basis map U -> V is invertible.  If U = V, Hom(U, V) is
    End(U), which is local, so the maps U -> V that are not isomorphisms
    form a proper subspace, which holds no basis: the test is complete."""
    _check_context(U, V)
    if U.dim != V.dim:
        return False
    if "tag" in U.cache and "tag" in V.cache:
        return U.cache["tag"] == V.cache["tag"]
    return U.dim == 0 or any(f.is_invertible() for f in hom_basis(U, V))


def _fitting_power(f: Mat) -> Mat:
    """f^(2^k) for the least 2^k >= dim: f squared k times, stopping at a
    zero power (its further squares are zero too)."""
    power = f
    pw = 1
    while pw < f.nrows and not power.is_zero():
        power = power.mul(power)
        pw <<= 1
    return power


def _shift(f: Mat, scalars: list[Mat]) -> tuple[Mat, int]:
    """(p(f), deg p) for the first monic p over the field, in order of
    degree, with p(f) singular; degree 1 gives the scalar shifts f + c.
    That p is irreducible: a factor of lower degree would have made p(f)
    singular first.  scalars holds c*1 for each field element c, in the
    order of field.elements()."""
    elements = f.field.elements()
    lower = scalars  # the values of degree < 1
    power = f
    degree = 1
    while True:
        for low in lower:
            value = power.add(low)
            if not value.is_invertible():
                return value, degree
        lower = [low.add(power.scale(c)) for c in elements for low in lower]
        power = power.mul(f)
        degree += 1


def _split(M: ModuleRep, E: list[Mat]):
    """(image, kernel) of a Fitting split of M, or None once End(M) is
    proved local; E is a basis of End(M).

    Candidates are the basis E, then the products v*e and e*v of each
    nilpotent v spanning V (below) with each e in E; a product is skipped
    when no nonzero column of its first factor meets a nonzero row of its
    second, as it is then 0, which lies in V.  A candidate f
    outside V is shifted by the first monic p with p(f) singular (see
    _shift).  If the Fitting power of p(f) is nonzero, it is neither 0 nor
    invertible, and M is its image plus its kernel.  Otherwise p(f) is
    nilpotent and joins V, and f is kept as g if deg p = r is the largest
    so far.

    Certificate: every product v*e and e*v lies in V, and every e in E lies
    in span(1, g, ..., g^(r-1)) + V.  Then V is a two-sided ideal spanned
    by nilpotents, so it lies in the radical: its image in End(M)/rad, a
    product of matrix algebras over finite fields, is the product of some
    of the factors and is spanned by nilpotents; the trace down to k
    vanishes on nilpotents but on no factor, so that image is 0.  So V is
    nilpotent, and End(M)/V is spanned by the powers of g with p(g) in V:
    it is k[x]/(p), a field, and End(M) is local.  Products that land merely in k + V prove nothing:
    M_3(GF(2)) = k + sl_3 is spanned by 1 and nilpotents and is not local.

    SplitFailure is raised when the candidates run out with neither."""
    field = M.field
    ident = Mat.identity(field, M.dim)
    scalars = [ident.scale(c) for c in field.elements()]
    V = RowBasis(field, M.dim * M.dim)
    nil = []  # the basis of V
    outside = []  # products that were left outside V
    gen, degree = ident, 1

    def nonzero_lines(f):
        """(the mask of f's nonzero rows, the mask of its nonzero columns)"""
        return sum(1 << i for i, row in enumerate(f.rows) if row), support(reduce(or_, f.rows, 0), f.ncols)

    def candidates():
        for e in E:
            yield e, False
        masks = [nonzero_lines(e) for e in E]
        for v in nil:  # nil grows while it is read
            rows, cols = nonzero_lines(v)
            for e, (e_rows, e_cols) in zip(E, masks):
                if cols & e_rows:
                    yield v.mul(e), True
                if e_cols & rows:
                    yield e.mul(v), True

    for f, product in candidates():
        x = f.vector()
        if V.contains(x):
            continue
        value, d = _shift(f, scalars)
        power = _fitting_power(value)
        if not power.is_zero():
            img, _ = sub_module(M, power.column_space(), label=f"{M.label}.im")
            ker, _ = sub_module(M, power.nullspace(), label=f"{M.label}.ker")
            return img, ker
        if V.insert(value.vector()):
            nil.append(value)
        if d > degree:
            gen, degree = f, d
        if product and not V.contains(x):
            outside.append(x)
    if all(V.contains(x) for x in outside):
        power = ident
        for _ in range(degree):
            V.insert(power.vector())
            power = power.mul(gen)
        if all(V.contains(e.vector()) for e in E):
            return None
    raise SplitFailure(f"cannot split {M!r} or certify it indecomposable (End dim {len(E)})")


def decompose(M: ModuleRep) -> list[ModuleRep]:
    """Indecomposable direct summands.

    A string or band module is returned whole: a string module and the
    M(B, lambda, m) of a primitive band are indecomposable (Butler-Ringel
    1987).  A direct sum built by rep.direct_sum gives the concatenated
    decompositions of its parts, so the summands of a sum of string and
    band modules are its part objects, shared, not copied.  Neither solves
    End(M).  Any other module is split by Fitting's lemma (see _split).
    Each call returns a new list, which the caller may change."""
    if M.dim == 0:
        return []
    if "parts" in M.cache:
        return [U for part in M.cache["parts"] for U in decompose(part)]
    if "tag" in M.cache:
        return [M]
    split = _split(M, hom_basis(M, M))
    return [M] if split is None else decompose(split[0]) + decompose(split[1])


# -- extensions -----------------------------------------------------------------


def nonsplit_extension(top: ModuleRep, bottom: ModuleRep) -> ModuleRep:
    """Middle term of a non-split extension of `top` by `bottom` (see
    _extension); SplitOnly when Ext^1(top, bottom) = 0."""
    E = _extension(top, bottom)[1]
    if E is None:
        raise SplitOnly(f"no non-split extension of {top.label} by {bottom.label}")
    return E


def _extension(top: ModuleRep, bottom: ModuleRep) -> tuple[int, ModuleRep | None]:
    """(dim Ext^1(top, bottom), the middle term of a non-split extension of
    `top` by `bottom`, or None when there is none), both from one cocycle
    basis Z of Hom(Omega(top), bottom) and the coboundary span B
    (_coboundaries): Ext^1 is Z modulo B, of dimension |Z| - rank B.

    The middle term is the pushout of Omega(top) -> P(top) along the first
    map of Z that lies outside B."""
    _check_context(top, bottom)
    P, OmegaT, inc, cob = _coboundaries(top, bottom)
    cocycles = hom_basis(OmegaT, bottom)
    dim = len(cocycles) - cob.rank
    h = next((h for h in cocycles if not cob.contains(h.vector())), None)
    if h is None:
        return dim, None
    big = direct_sum([bottom, P])
    # row k: (h(w_k), inc(w_k)) for the basis vector w_k of Omega(top)
    rows = vstack([h, inc]).transpose()
    E = quotient_module(big, rows, label=f"E({top.label},{bottom.label})")
    if E.dim != top.dim + bottom.dim:
        raise DimensionMismatch("extension has wrong dimension")
    return dim, E


# -- structure ------------------------------------------------------------------


def radical_series(M: ModuleRep) -> list[list[int]]:
    """Multiplicities of each simple in rad^j M / rad^{j+1} M, top down."""
    layers = []
    cur = M
    while cur.dim:
        rows = rad_rows(cur)
        layers.append([len(basis) for basis in _top_bases(cur)])
        if rows.nrows == 0:
            break
        cur, _ = sub_module(cur, rows, label=f"rad^k({M.label})")
    return layers


def socle_series(M: ModuleRep) -> list[list[int]]:
    """Multiplicities of each simple in soc^{j+1}/soc^j, bottom up: layer j
    is D of layer j of the radical series of D(M), so S_i is counted at
    the index of D(S_i) (over kA4, D swaps E1 and E2)."""
    duals = [top_multiplicities(dual(S)).index(1) for S in M.algebra.simples]
    return [[layer[j] for j in duals] for layer in radical_series(dual(M))]


def composition_multiplicities(M: ModuleRep) -> list[int]:
    """Multiplicity c_i(M) = [M : S_i] of each simple among composition
    factors; cached in M.cache, a list that callers only read.

    With vertex idempotents, [M : S_i] = dim e_i M = rank e_i, in any
    basis: the size of its vertex mask when there are masks
    (_vertex_masks certifies e_i as the 0/1 diagonal of its mask).  Over
    a group, c_i(M) = hom(P_i, M) for every simple but the last, whose
    count follows from dim M = sum_i c_i(M) dim S_i."""
    if "composition" not in M.cache:
        ctx = M.algebra
        masks = _vertex_masks(M) if ctx.idempotents else None
        if masks is not None:
            comp = [mask.bit_count() for mask in masks]
        elif ctx.idempotents:
            comp = [M.action[e].rank() for e in ctx.idempotents]
        else:
            *first, last = ctx.simples
            comp = [hom_dim(P_i, M) for P_i in ctx.pims[: len(first)]]
            comp.append((M.dim - sum(c * S.dim for c, S in zip(comp, first))) // last.dim)
        M.cache["composition"] = comp
    return M.cache["composition"]


def structure(M: ModuleRep) -> dict:
    return {
        "dim": M.dim,
        "radical_series": radical_series(M),
        "socle_series": socle_series(M),
        "multiplicities": composition_multiplicities(M),
    }
