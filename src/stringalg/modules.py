"""String and band modules over the quiver algebra and the combinatorial
basis of homomorphisms between string modules.

A word w_1...w_n yields a module on the basis z_0..z_n: a direct letter
w_i = xi sends z_i to z_{i-1}, an inverse letter w_i = xi^{-1} sends
z_{i-1} to z_i.  Band modules use the same rule on a cyclic basis
z_0..z_{n-1} tensored with k^m, with the wrap-around letter twisted by a
Jordan block J_m(lambda): they are the closed walks of
algebra.closed_walk_module, which builds the projectives too.

Homomorphisms between string modules are spanned by graph maps: one for
each common interval C that is a quotient interval of the source (flanked
by a direct letter before and an inverse letter after) and a submodule
interval of the target (flanked the other way around), with the letters
of C read in either orientation (Crawley-Boevey 1989, Krause 1991).
Turning both strings round gives the same map, and only a single point
reads the same both ways, so the source read both ways (a point once)
against the target as it is gives each map once.  The Hom dimension is
a dot product of two per-string tables of interval counts.  The basis
lists the maps by the int masks of their 0/1 supports.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .algebra import closed_walk_module, quiver_context
from .calculus import _entry_view
from .errors import InvalidMultiplicity, LimitExceeded, ParseError, ZeroLambda
from .gf import GF
from .matrix import Mat
from .rep import ModuleRep
from .words import (
    ARROW_NAMES,
    INV,
    Band,
    String,
    Word,
    _band_canonical,
    is_inverse,
    validate_band_word,
    validate_string_word,
)

# Largest band multiplicity: the stable End of M(B, 1, 16) takes under 0.5 s
# for every band of length <= 14, and its cost grows faster than dim^3.
_MULT_LIMIT = 16


def _string_word(obj) -> Word:
    """The word of a string argument: a String as it is, a Word once it
    passes as a string word (NotComposable, ForbiddenSubword)."""
    if isinstance(obj, String):
        return obj.word
    if isinstance(obj, Word):
        return validate_string_word(obj)
    raise ParseError(f"not a string or a word: {obj!r}")


def string_module(S, degree: int = 1) -> ModuleRep:
    """Canonical module of a string (or of a specific word representative,
    keeping the basis aligned with that word's letters).  Its String, the
    tag of its isomorphism class, is kept in M.cache["tag"], so that Omega
    and isomorphism can be read off the word.

    The pass over the word that places the matrix entries also gives what
    a Hom system reads of the module (calculus._hom_rows): the point set
    of each vertex, M.cache["vertex_masks"], and each arrow's view,
    M.cache["hom_gens"] (calculus._entry_view).  An arrow acts by a
    partial permutation, as a repeated source or target would need the
    subword a a^-1 or a^-1 a."""
    word = _string_word(S)
    ctx = quiver_context(degree)
    dim = len(word.letters) + 1
    rows = {name: [0] * dim for name in ctx.gen_names}
    masks = [0] * len(ctx.idempotents)
    for i, v in enumerate(word.vertices()):
        rows[ctx.idempotents[v]][i] = 1 << i
        masks[v] |= 1 << i
    entries = {name: [] for name in ARROW_NAMES}
    for i, letter in enumerate(word.letters, start=1):
        dst, src = (i, i - 1) if letter & INV else (i - 1, i)
        name = ARROW_NAMES[letter & 3]
        rows[name][dst] = 1 << src
        entries[name].append((dst, src))
    action = {name: Mat(ctx.field, dim, dim, r) for name, r in rows.items()}
    M = ModuleRep(ctx, dim, action, label=f"M({word.text()})")
    M.cache["tag"] = S if isinstance(S, String) else String.from_valid_word(word)
    M.cache["vertex_masks"] = masks
    M.cache["hom_gens"] = {name: _entry_view(dim, e) for name, e in entries.items()}
    return M


def band_module(B, lam: int, mult: int = 1, degree: int = 1) -> ModuleRep:
    """M(B, lambda, m): the wrap-around letter acts through the Jordan
    block J_m(lambda); basis index = cycle position * m + Jordan slot.
    B is a Band, or a Word that passes as a band word (ForbiddenSubword),
    whose own rotation is kept for the basis.  The tag of its isomorphism
    class, (Band, lambda', m), is kept in M.cache["tag"]: M(B, lambda, m)
    = M(B^-1, lambda^-1, m) (Butler-Ringel 1987), so lambda' is lambda^-1
    when the Band's letters are a rotation of the inverse word, and lambda
    otherwise.  Omega and isomorphism are read off the tag.  lambda must
    be a nonzero element of GF(2^degree), 1..q-1 (ZeroLambda)."""
    if mult < 1:
        raise InvalidMultiplicity(f"band multiplicity {mult} < 1")
    if mult > _MULT_LIMIT:
        raise LimitExceeded(f"band multiplicity {mult} > {_MULT_LIMIT}")
    if isinstance(B, Band):
        word, band, flipped = B.word, B, False
    elif isinstance(B, Word):
        word = validate_band_word(B)
        letters, flipped = _band_canonical(word.letters)
        band = Band(letters)
    else:
        raise ParseError(f"not a band or a word: {B!r}")
    ctx = quiver_context(degree)
    field = ctx.field
    if not 0 < lam < field.order:
        raise ZeroLambda(f"band parameter {lam} is not a nonzero element of {field}")
    jordan = Mat.from_entries(
        field, [[lam if c == r else int(c == r - 1) for c in range(mult)] for r in range(mult)]
    )
    # The twist measures the holonomy along the cycle orientation, so it
    # enters inverted on a direct wrap letter; this is what makes
    # M(B,l,m) independent of the chosen rotation for the same l.
    twist = jordan if is_inverse(word.letters[-1]) else jordan.inverse()
    M = closed_walk_module(ctx, word.letters, f"M({word.text()}; {lam}, {mult})", twist)
    M.cache["tag"] = (band, field.inv(lam) if flipped else lam, mult)
    return M


def _intervals(word: Word, quotient: bool):
    """The quotient (or submodule) intervals of a word as (position,
    length, key), by start and then by length.  The position is that of
    its first point; the key is the interval's letters packed 3 bits each
    behind a leading 1, or -1 - v for a single point at vertex v.

    A quotient interval is flanked by a direct letter before and an
    inverse letter after, where those exist; a submodule interval the
    other way around."""
    letters = word.letters
    verts = word.vertices()
    n = len(letters)
    before = 0 if quotient else INV  # inverse bit of the letter before
    out = []
    for i in range(n + 1):
        if i and (letters[i - 1] & INV) != before:
            continue
        key = 1
        for e in range(i, n + 1):
            if e == n or (letters[e] & INV) != before:
                out.append((i, e - i, key if e > i else -1 - verts[i]))
            if e < n:
                key = key << 3 | letters[e]
    return out


def _quotient_intervals(word: Word):
    """The quotient intervals of the word, then those of its inverse but
    for single points, as (flipped, position, length, key); a flipped
    position counts from the far end.  Graph maps and their count read
    the source through this."""
    n = len(word.letters)
    return [(False, *iv) for iv in _intervals(word, True)] + [
        (True, n - i, ln, key) for i, ln, key in _intervals(word.inverse(), True) if ln
    ]


def graph_map_supports(S, T):
    """The graph maps M(S) -> M(T), each as the int mask of its support:
    bit dst*(len(S)+1) + src for each z_src of M(S) sent to z_dst of M(T),
    so the mask is the map's 0/1 matrix row after row.

    One map per quotient interval of S (:func:`_quotient_intervals`) and
    equal submodule interval of T."""
    sw = _string_word(S)
    width = len(sw.letters) + 1
    subs = {}
    for dst, _, key in _intervals(_string_word(T), False):
        subs.setdefault(key, []).append(dst)
    for flipped, src, ln, key in _quotient_intervals(sw):
        # along the interval src and dst each move by one, src backwards
        # in a flipped word
        step = width + (-1 if flipped else 1)
        for dst in subs.get(key, ()):
            first = dst * width + src
            mask = 0
            for t in range(ln + 1):
                mask |= 1 << (first + t * step)
            yield mask


def string_hom_basis(S, T, degree: int = 1) -> list[Mat]:
    """All graph maps M(S) -> M(T) over GF(2^degree), in the order of
    :func:`graph_map_supports`, as dim M(T) x dim M(S) matrices.  Builds
    no module."""
    field = GF(degree)
    width = len(_string_word(S).letters) + 1
    height = len(_string_word(T).letters) + 1
    full = (1 << width) - 1
    out = []
    for mask in graph_map_supports(S, T):
        # the mask is the matrix row after row, in plane 0
        rows = [(mask >> (dst * width)) & full for dst in range(height)]
        out.append(Mat(field, height, width, rows))
    return out


@lru_cache(maxsize=4096)
def _interval_counts(word: Word, quotient: bool) -> Counter:
    """How often each interval key occurs among the quotient intervals of
    the word in both orientations (:func:`_quotient_intervals`), or among
    its submodule intervals.  Memoised on the word's value; callers only
    read the shared table."""
    intervals = _quotient_intervals(word) if quotient else _intervals(word, False)
    return Counter(iv[-1] for iv in intervals)


def string_hom_dim(S, T) -> int:
    """Dimension of Hom(M(S), M(T)): the number of graph maps, which are
    linearly independent (distinct 0/1 supports), as the dot product of
    the quotient counts of S and the submodule counts of T.  Builds no
    module, no matrix and no map."""
    q = _interval_counts(_string_word(S), True)
    return sum(q.get(key, 0) * c for key, c in _interval_counts(_string_word(T), False).items())
