"""Independent routes that the library itself no longer takes, kept as
test oracles."""

from stringalg import calculus as C
from stringalg.algebra import group_context
from stringalg.errors import DimensionMismatch, SplitFailure
from stringalg.groupside import restrict
from stringalg.matrix import Mat, RowBasis
from stringalg.rep import ModuleRep
from stringalg.words import (
    Band,
    String,
    Word,
    _band_canonical,
    _check_enum_bound,
    _extensions,
    inv_letter,
    is_band,
    make_string,
    parse_word,
)


def ext1_dim_cocycles(M, N) -> int:
    """dim Ext^1(M, N) as the classes of cocycles Omega(M) -> N modulo the
    restrictions of maps P(M) -> N, on the cover of M and its kernel."""
    C._check_context(M, N)
    _, OmegaM, _, cob = C._coboundaries(M, N)
    return C.hom_dim(OmegaM, N) - cob.rank


def cover_maps_counted(M) -> tuple[list[Mat], list[ModuleRep]]:
    """The maps P_i -> M of the projective cover and their summands, in
    order, by the span test with a count per simple: from each P_i, take
    the maps whose image grows the span in top(M) until t_i of them are
    taken, and refuse if fewer are found."""
    top = C._top_map(M)
    span = RowBasis(M.field, top.nrows)
    blocks = []
    summands = []
    for P_i, basis in zip(M.algebra.pims, C._top_bases(M)):
        need = len(basis)
        if need == 0:
            continue
        for h in C.hom_basis(P_i, M):
            if need == 0:
                break
            rank = span.rank
            for v in top.mul(h).transpose().rows:
                span.insert(v)
            if span.rank > rank:
                blocks.append(h)
                summands.append(P_i)
                need -= 1
        if need:
            raise SplitFailure(f"cover of {M!r}: not enough maps from {P_i.label}")
    return blocks, summands


def composition_multiplicities_hom(M) -> list[int]:
    """[M : S_i] as dim Hom(P_i, M), the simples being split."""
    return [C.hom_dim(P_i, M) for P_i in M.algebra.pims]


def quotient_module_section(M, rows) -> ModuleRep:
    """M/U for the invariant span U of the given row vectors, by
    elimination: the kernel basis of U's reduced row basis is the
    projection M ->> M/U, and the unit vectors at the free columns are a
    section of it; each generator acts as projection * a * section."""
    span = RowBasis(M.field, M.dim)
    for v in rows.rows:
        span.insert(v)
    # e_pc reduces to its pivot row restricted to the free coordinates,
    # so the projection is the kernel basis of the span
    kernel = span.kernel()
    proj = Mat(M.field, len(kernel), M.dim, kernel)
    free = [c for c in range(M.dim) if c not in span.pivots]
    section = Mat.zeros(M.field, M.dim, len(free))
    for a, fc in enumerate(free):
        section.rows[fc] = 1 << a
    spanned = rows.transpose()
    action = {}
    for name in M.algebra.gen_names:
        act = proj.mul(M.action[name])
        if not act.mul(spanned).is_zero():
            raise DimensionMismatch(f"span not invariant under {name}")
        action[name] = act.mul(section)
    return ModuleRep(M.algebra, len(free), action, f"quot({M.label})")


def socle_hom(M) -> tuple[Mat, list[int]]:
    """(soc M, the multiplicity of each simple in it): the sum of the
    images of the maps S_i -> M, and the dimension of each Hom(S_i, M),
    the simples being split."""
    bases = [C.hom_basis(S, M) for S in M.algebra.simples]
    rows = [v for basis in bases for h in basis for v in h.transpose().rows]
    return Mat(M.field, len(rows), M.dim, rows).row_space(), [len(basis) for basis in bases]


def socle_series_hom(M) -> list[list[int]]:
    """The multiplicities of each simple in soc^{j+1}/soc^j, bottom up:
    the socle by socle_hom, then the same for M modulo it."""
    layers = []
    cur = M
    while cur.dim:
        rows, counts = socle_hom(cur)
        layers.append(counts)
        if rows.nrows == cur.dim:
            break
        cur = C.quotient_module(cur, rows)
    return layers


def is_free_rank_one_over_c2_restricted(M) -> bool:
    """Whether Res_C M is kC, by restriction and an isomorphism test."""
    res = restrict(M, "C2")
    return res.dim == 2 and C.is_isomorphic(res, group_context("C2", M.field.degree).regular)


def all_words_upto(max_len: int):
    """All valid nonempty string words of length <= max_len (both
    orientations), level by level."""
    words = []
    frontier = [(l,) for l in range(8)]
    length = 1
    while frontier and length <= max_len:
        words.extend(frontier)
        if length == max_len:
            break
        nxt = []
        for w in frontier:
            for l in _extensions(w):
                nxt.append(w + (l,))
        frontier = nxt
        length += 1
    return words


def enumerate_strings_scan(max_len: int) -> list[String]:
    """The canonical string classes of length <= max_len, sorted, by a
    scan of every string word: a word is kept when it is at most its
    inverse."""
    _check_enum_bound("string", max_len)
    classes = {String((), 0), String((), 1)}
    for w in all_words_upto(max_len) if max_len >= 1 else []:
        rev = tuple([inv_letter(l) for l in reversed(w)])
        if w <= rev:
            classes.add(String(w))
    return sorted(classes, key=lambda s: (len(s.letters), s.vertex or 0, s.letters))


def enumerate_bands_scan(max_len: int) -> list[Band]:
    """The canonical band classes of length in 1..max_len, sorted, by a
    scan of every string word of length <= max_len: a word is kept when it
    is its class's least rotation of either orientation and a band."""
    _check_enum_bound("band", max_len)
    classes = set()
    for w in all_words_upto(max_len):
        if w == _band_canonical(w)[0] and is_band(Word(w)):
            classes.add(Band(w))
    return sorted(classes, key=lambda b: (len(b.letters), b.letters))


# The verify families as they were spelled out before they were derived as
# hook rays (verify._hook_ray)
C_PERIOD = "gamma eta- beta alpha- beta- eta gamma- alpha-"
# the same band, rotated by six letters
X_PERIOD = " ".join(C_PERIOD.split()[6:] + C_PERIOD.split()[:6])


def c_family_word(level: int, n: int) -> Word:
    """C_{level,n} of c04, level 1..3."""
    parts = ["alpha-"] + [C_PERIOD] * (n - 1)
    if level >= 2:
        parts.append("gamma eta-")
    if level >= 3:
        parts.append("beta alpha- beta-")
    return parse_word(" ".join(parts))


def x_family_word(level: int, n: int) -> Word:
    """X_{level,n} of c05, level -1..1."""
    if level == 1:
        parts = [X_PERIOD] * n + ["gamma- alpha-"]
    else:
        parts = [X_PERIOD] * (n - 1) + ["gamma- alpha- gamma eta-"]
        if level == 0:
            parts.append("beta alpha- beta-")
    return parse_word(" ".join(parts))


def a_string(n: int) -> String:
    """A_n = (alpha beta- gamma-)^n of c02 and c10."""
    return make_string(" ".join(["alpha beta- gamma-"] * n))


def tube_word(n: int) -> Word:
    """Tube word n of c07, beta- gamma- (alpha beta- gamma-)^n."""
    return parse_word(" ".join(["beta- gamma-"] + ["alpha beta- gamma-"] * n))
