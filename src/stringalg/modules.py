"""String and band modules over the quiver algebra, the combinatorial
basis of homomorphisms between string modules, and endomorphisms of band
modules factoring through string modules.

A word w_1...w_n yields a module on the basis z_0..z_n: a direct letter
w_i = xi sends z_i to z_{i-1}, an inverse letter w_i = xi^{-1} sends
z_{i-1} to z_i.  Band modules use the same rule on a cyclic basis
z_0..z_{n-1} tensored with k^m, with the wrap-around letter twisted by a
Jordan block J_m(lambda).

Homomorphisms between string modules are spanned by maps supported on a
common interval C that is a quotient interval of the source (flanked by a
direct letter before and an inverse letter after) and a submodule interval
of the target (flanked the other way around); both orientations of both
words are scanned.  A graph map is a 0/1 matrix, so it is its support:
the maps are generated as int masks of their supports, duplicates are
removed by mask, and the Hom dimension is a count of masks that builds
no module and no matrix (Crawley-Boevey 1989, Krause 1991).
"""

from __future__ import annotations

from .algebra import ARROW_GEN, quiver_context
from .errors import InvalidMultiplicity, ZeroLambda
from .matrix import Mat
from .rep import HomElement, ModuleRep
from .words import INV, Band, String, Word, e_of, is_inverse

_VERTEX_GEN = ("e0", "e1")


def _word_of(obj) -> Word:
    if isinstance(obj, Word):
        return obj
    return obj.word


def string_module(S, degree: int = 1) -> ModuleRep:
    """Canonical module of a string (or of a specific word representative,
    keeping the basis aligned with that word's letters)."""
    word = _word_of(S)
    ctx = quiver_context(degree)
    dim = len(word.letters) + 1
    rows = {name: [0] * dim for name in ctx.gen_names}
    for i, v in enumerate(word.vertices()):
        rows[_VERTEX_GEN[v]][i] = 1 << i
    for i, letter in enumerate(word.letters, start=1):
        dst, src = (i, i - 1) if is_inverse(letter) else (i - 1, i)
        rows[ARROW_GEN[letter & 3]][dst] |= 1 << src
    action = {name: Mat(ctx.field, dim, dim, r) for name, r in rows.items()}
    return ModuleRep(ctx, dim, action, label=f"M({word.text()})")


def band_module(B, lam: int, mult: int = 1, degree: int = 1) -> ModuleRep:
    """M(B, lambda, m): the wrap-around letter acts through the Jordan
    block J_m(lambda); basis index = cycle position * m + Jordan slot."""
    if lam == 0:
        raise ZeroLambda("band parameter must be nonzero")
    if mult < 1:
        raise InvalidMultiplicity(f"band multiplicity {mult} < 1")
    word = _word_of(B)
    ctx = quiver_context(degree)
    field = ctx.field
    if lam >= field.order:
        raise ZeroLambda(f"parameter {lam} not in {field}")
    n = len(word.letters)
    dim = n * mult
    jordan = Mat.zeros(field, mult, mult)
    for j in range(mult):
        jordan.set_entry(j, j, lam)
        if j + 1 < mult:
            jordan.set_entry(j + 1, j, 1)
    # The twist measures the holonomy along the cycle orientation, so it
    # enters inverted on a direct wrap letter; this is what makes
    # M(B,l,m) independent of the chosen rotation for the same l.
    wrap_twist = jordan if is_inverse(word.letters[-1]) else jordan.inverse()
    # vertex of the cycle point z_i: e(b_{i+1}), as in the string case
    verts = [e_of(word.letters[i]) for i in range(n)]
    action = {}
    for v, gname in enumerate(_VERTEX_GEN):
        m = Mat.zeros(field, dim, dim)
        for i in range(n):
            if verts[i] == v:
                for j in range(mult):
                    m.set_entry(i * mult + j, i * mult + j, 1)
        action[gname] = m
    for a, gname in enumerate(ARROW_GEN):
        m = Mat.zeros(field, dim, dim)
        for k in range(1, n + 1):
            letter = word.letters[k - 1]
            src_pos, dst_pos = (k % n, k - 1) if not is_inverse(letter) else (k - 1, k % n)
            if (letter & 3) != a:
                continue
            twist = wrap_twist if k == n else Mat.identity(field, mult)
            for j in range(mult):
                for jj in range(mult):
                    e = twist.entry(jj, j)
                    if e:
                        m.set_entry(dst_pos * mult + jj, src_pos * mult + j, e)
        action[gname] = m
    return ModuleRep(ctx, dim, action, label=f"M({word.text()}; {lam}, {mult})")


def _intervals(word: Word, quotient: bool, flip: bool):
    """The quotient (or submodule) intervals of a word as (position,
    length, key), by start and then by length.  The key is the interval's
    letters, or ('vertex', v) for a single point.  The position is that
    of its first point, counted from the far end when `flip` says that the
    word is the inverse of the one the module is built on.

    A quotient interval is flanked by a direct letter before and an
    inverse letter after, where those exist; a submodule interval the
    other way around."""
    letters = word.letters
    verts = word.vertices()
    n = len(letters)
    before = 0 if quotient else INV  # inverse bit of the letter before
    starts = [i for i in range(n + 1) if i == 0 or (letters[i - 1] & INV) == before]
    ends = [e for e in range(n + 1) if e == n or (letters[e] & INV) != before]
    return [
        (n - i if flip else i, e - i, tuple(letters[i:e]) if e > i else ("vertex", verts[i]))
        for i in starts
        for e in ends
        if e >= i
    ]


def graph_map_supports(S, T):
    """The distinct graph maps M(S) -> M(T), each as the int mask of its
    support: bit dst*(len(S)+1) + src for each z_src of M(S) sent to z_dst
    of M(T), so the mask is the map's 0/1 matrix row after row.

    One map per common interval that is a quotient interval of S and a
    submodule interval of T, scanning both orientations of T and, inside
    each, both orientations of S; a map met twice is given once, at its
    first occurrence."""
    sw = _word_of(S)
    tw = _word_of(T)
    width = len(sw.letters) + 1
    sources = [(flip, _intervals(w, True, flip)) for flip, w in ((False, sw), (True, sw.inverse()))]
    seen = set()
    for t_flip, t_or in ((False, tw), (True, tw.inverse())):
        subs = {}
        for dst, _, key in _intervals(t_or, False, t_flip):
            subs.setdefault(key, []).append(dst)
        for s_flip, quots in sources:
            # along the interval src and dst each move by one, backwards
            # in a flipped word
            step = (-1 if s_flip else 1) + (-width if t_flip else width)
            for src, ln, key in quots:
                for dst in subs.get(key, ()):
                    first = dst * width + src
                    mask = 0
                    for t in range(ln + 1):
                        mask |= 1 << (first + t * step)
                    if mask not in seen:
                        seen.add(mask)
                        yield mask


def string_hom_basis(S, T, degree: int = 1) -> list[HomElement]:
    """All graph maps M(S) -> M(T), in the order of
    :func:`graph_map_supports`."""
    MS = string_module(S, degree)
    MT = string_module(T, degree)
    width = MS.dim
    full = (1 << width) - 1
    out = []
    for mask in graph_map_supports(S, T):
        # the mask is the matrix row after row, in plane 0
        rows = [(mask >> (dst * width)) & full for dst in range(MT.dim)]
        out.append(HomElement(MS, MT, Mat(MS.field, MT.dim, width, rows)))
    return out


def string_hom_dim(S, T, degree: int = 1) -> int:
    """Dimension of Hom(M(S), M(T)): the number of distinct graph maps,
    which are linearly independent (distinct 0/1 supports).  Builds no
    module and no matrix."""
    return sum(1 for _ in graph_map_supports(S, T))


def string_type_endos(B, lam: int, degree: int = 1):
    """Endomorphisms of M(B, lambda, 1) factoring through string modules.

    Scans rotations of both orientations for intervals reading a string S
    that occur both as a quotient interval and as a submodule interval of
    the cycle; for each such pair of occurrences the intertwining system
    restricted to the matching support is solved.  Returns a list of
    (S, HomElement)."""
    band = B if isinstance(B, Band) else Band.from_word(_word_of(B))
    M = band_module(band, lam, 1, degree)
    field = M.field
    n = len(band.letters)
    results = []
    seen = set()
    orientations = [band.letters, band.word.inverse().letters]
    for ln in range(0, n - 1):
        for o1, letters1 in enumerate(orientations):
            for a in range(n):
                window = tuple(letters1[(a + k) % n] for k in range(ln))
                before = letters1[(a - 1) % n]
                after = letters1[(a + ln) % n]
                if is_inverse(before) or not is_inverse(after):
                    continue  # not a quotient interval
                # positions in the canonical orientation
                for o2, letters2 in enumerate(orientations):
                    for b in range(n):
                        window2 = tuple(letters2[(b + k) % n] for k in range(ln))
                        if window2 != window:
                            continue
                        before2 = letters2[(b - 1) % n]
                        after2 = letters2[(b + ln) % n]
                        if not is_inverse(before2) or is_inverse(after2):
                            continue  # not a submodule interval
                        if ln == 0 and e_of(letters1[a]) != e_of(letters2[b]):
                            continue
                        pairs = _support_pairs(n, a, b, ln, o1, o2)
                        if pairs is None:
                            continue
                        sols = _solve_on_support(M, pairs)
                        for f in sols:
                            k = f.key()
                            if k in seen:
                                continue
                            seen.add(k)
                            if ln == 0:
                                s_obj = String((), e_of(letters1[a % n]))
                            else:
                                s_obj = String.from_word(Word(window))
                            results.append((s_obj, HomElement(M, M, f)))
    return results


def _support_pairs(n, a, b, ln, o1, o2):
    """Map basis position of the quotient occurrence to the submodule
    occurrence, translating reversed orientations back to the canonical
    cycle; position p in the reversed word is n-1-p... handled via index
    arithmetic on z-points (cycle positions are mod n)."""
    pairs = []
    for t in range(ln + 1):
        src = (a + t) % n if o1 == 0 else (n - (a + t)) % n
        dst = (b + t) % n if o2 == 0 else (n - (b + t)) % n
        pairs.append((dst, src))
    return pairs


def _solve_on_support(M, pairs):
    """Nonzero module endomorphisms of M supported on the given entry
    positions (dst, src)."""
    field = M.field
    dim = M.dim
    k = len(pairs)
    # unknown c_t at entry pairs[t]; intertwining gives linear conditions
    rows = []
    for name in M.algebra.gen_names:
        A = M.action[name]
        terms = {}
        # (f A - A f)[i][j] = sum_t c_t ([dst=i] A[src,j] - A[i,dst] [src=j])
        for t, (dst, src) in enumerate(pairs):
            for j in range(dim):
                e = A.entry(src, j)
                if e:
                    terms.setdefault((dst, j), {})
                    terms[(dst, j)][t] = terms[(dst, j)].get(t, 0) ^ e
            for i in range(dim):
                e = A.entry(i, dst)
                if e:
                    terms.setdefault((i, src), {})
                    terms[(i, src)][t] = terms[(i, src)].get(t, 0) ^ e
        for coeffs in terms.values():
            row = 0
            for t, v in coeffs.items():
                for p in range(field.degree):
                    if (v >> p) & 1:
                        row |= 1 << (p * k + t)
            if row:
                rows.append(row)
    kernel = Mat(field, len(rows), k, rows).nullspace()
    out = []
    for r in range(kernel.nrows):
        f = Mat.zeros(field, dim, dim)
        for t, (dst, src) in enumerate(pairs):
            e = kernel.entry(r, t)
            if e:
                f.set_entry(dst, src, e)
        if not f.is_zero():
            out.append(f)
    return out
