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
words are scanned and duplicates are removed by matrix equality.
"""

from __future__ import annotations

from .algebra import ARROW_GEN, quiver_context
from .errors import InvalidMultiplicity, ZeroLambda
from .matrix import Mat
from .rep import HomElement, ModuleRep
from .words import Band, String, Word, e_of, is_inverse

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
    field = ctx.field
    n = len(word.letters)
    verts = word.vertices()
    action = {}
    for v, gname in enumerate(_VERTEX_GEN):
        m = Mat.zeros(field, n + 1, n + 1)
        for i, vi in enumerate(verts):
            if vi == v:
                m.set_entry(i, i, 1)
        action[gname] = m
    for a, gname in enumerate(ARROW_GEN):
        m = Mat.zeros(field, n + 1, n + 1)
        for i, letter in enumerate(word.letters, start=1):
            if letter == a:
                m.set_entry(i - 1, i, 1)
            elif letter == (a | 4):
                m.set_entry(i, i - 1, 1)
        action[gname] = m
    return ModuleRep(ctx, n + 1, action, label=f"M({word.text()})")


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


def _sub_intervals(word: Word):
    """Submodule intervals of a word: dict keyed by the interval's letters
    (or by ('vertex', v) for single points) listing start positions.

    A submodule interval is flanked by an inverse letter before and a
    direct letter after (where flanks exist)."""
    letters = word.letters
    verts = word.vertices()
    n = len(letters)
    table: dict = {}
    for j in range(n + 1):
        if j > 0 and not is_inverse(letters[j - 1]):
            continue
        for ln in range(0, n - j + 1):
            if j + ln < n and is_inverse(letters[j + ln]):
                continue
            key = tuple(letters[j : j + ln]) if ln else ("vertex", verts[j])
            table.setdefault(key, []).append(j)
    return table


def string_hom_basis(S, T, degree: int = 1) -> list[HomElement]:
    """All graph maps M(S) -> M(T): one per common interval that is a
    quotient interval of S and a submodule interval of T, scanning both
    orientations of both words."""
    sw = _word_of(S)
    tw = _word_of(T)
    MS = string_module(sw, degree)
    MT = string_module(tw, degree)
    m, n = len(sw.letters), len(tw.letters)
    seen = set()
    out = []
    for t_or, t_flip in ((tw, False), (tw.inverse(), True)):
        subs = _sub_intervals(t_or)
        for s_or, s_flip in ((sw, False), (sw.inverse(), True)):
            sletters = s_or.letters
            sverts = s_or.vertices()
            for i in range(m + 1):
                if i > 0 and is_inverse(sletters[i - 1]):
                    continue  # quotient interval needs a direct letter before
                for ln in range(0, m - i + 1):
                    if i + ln < m and not is_inverse(sletters[i + ln]):
                        continue  # and an inverse letter after
                    key = tuple(sletters[i : i + ln]) if ln else ("vertex", sverts[i])
                    for j in subs.get(key, ()):
                        f = Mat.zeros(MS.field, MT.dim, MS.dim)
                        for t in range(ln + 1):
                            src = (m - (i + t)) if s_flip else (i + t)
                            dst = (n - (j + t)) if t_flip else (j + t)
                            f.set_entry(dst, src, 1)
                        k = f.key()
                        if k not in seen:
                            seen.add(k)
                            out.append(HomElement(MS, MT, f))
    return out


def string_hom_dim(S, T, degree: int = 1) -> int:
    """Dimension of the combinatorial hom space (the maps are linearly
    independent: distinct 0/1 supports)."""
    return len(string_hom_basis(S, T, degree))


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
            planes = [0] * field.degree
            nz = False
            for t, v in coeffs.items():
                if v:
                    nz = True
                    for p in range(field.degree):
                        if (v >> p) & 1:
                            planes[p] |= 1 << t
            if nz:
                rows.append(planes)
    system = Mat(field, len(rows), k, rows if rows else None)
    kernel = system.nullspace() if rows else Mat.identity(field, k)
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
