import pytest

from stringalg import calculus as C
from stringalg.algebra import quiver_context
from stringalg.errors import (
    ForbiddenSubword,
    InvalidMultiplicity,
    NotComposable,
    ParseError,
    ZeroLambda,
)
from stringalg.gf import OMEGA
from stringalg.modules import (
    _interval_counts,
    _intervals,
    band_module,
    graph_map_supports,
    string_hom_basis,
    string_hom_dim,
    string_module,
)
from stringalg.words import (
    ALPHA,
    BETA,
    Band,
    String,
    Word,
    enumerate_bands,
    enumerate_strings,
    parse_word,
)

RELATION_WORDS = [
    ("alpha", "alpha"),
    ("eta", "beta"),
    ("beta", "gamma"),
    ("gamma", "eta"),
]


def relations_vanish(M):
    a = {n: M.action[n] for n in ("alpha", "beta", "gamma", "eta")}
    for x, y in RELATION_WORDS:
        if not a[x].mul(a[y]).is_zero():
            return False
    if a["gamma"].mul(a["beta"]).mul(a["alpha"]) != a["alpha"].mul(a["gamma"]).mul(a["beta"]):
        return False
    return a["eta"].mul(a["eta"]) == a["beta"].mul(a["alpha"]).mul(a["gamma"])


def test_empty_string_gives_simple():
    lam = quiver_context(1)
    M = string_module(String((), 0))
    assert M.dim == 1
    assert C.is_isomorphic(M, lam.simples[0])


def test_dim_and_multiplicities():
    M = string_module(parse_word("alpha beta- gamma-"))
    assert M.dim == 4
    assert C.composition_multiplicities(M) == [3, 1]


def test_dimension_is_length_plus_one():
    for s in enumerate_strings(7):
        assert string_module(s).dim == len(s.letters) + 1


def test_multiplicity_law():
    # multiplicity of the vertex-u simple = number of walk points at u
    for s in enumerate_strings(6):
        verts = s.word.vertices()
        M = string_module(s)
        assert C.composition_multiplicities(M) == [verts.count(0), verts.count(1)]


def test_relations_annihilate_all_string_modules():
    for s in enumerate_strings(6):
        assert relations_vanish(string_module(s))


def test_string_module_iso_inverse():
    for s in enumerate_strings(6):
        if s.letters:
            A = string_module(s.word)
            B = string_module(s.word.inverse())
            assert C.is_isomorphic(A, B)


class TestBandModules:
    BAND = "eta- beta alpha- gamma"

    def test_dimension(self):
        b = Band.from_word(parse_word(self.BAND))
        assert band_module(b, 1, 1).dim == 4
        assert band_module(b, 1, 3).dim == 12

    def test_zero_lambda(self):
        # lambda must be a nonzero field element; -1 used to loop forever
        b = Band.from_word(parse_word(self.BAND))
        for lam, degree in ((0, 1), (-1, 1), (2, 1), (-1, 2), (4, 2)):
            with pytest.raises(ZeroLambda):
                band_module(b, lam, 1, degree)

    @pytest.mark.parametrize("mult", [0, -1, -2])
    def test_nonpositive_multiplicity(self, mult):
        b = Band.from_word(parse_word(self.BAND))
        with pytest.raises(InvalidMultiplicity):
            band_module(b, 1, mult)

    def test_relations_vanish(self):
        for b in enumerate_bands(8):
            assert relations_vanish(band_module(b, 1, 1))
            assert relations_vanish(band_module(b, OMEGA, 1, degree=2))

    def test_rotation_invariance(self):
        for b in enumerate_bands(8):
            M1 = band_module(b, 1, 1)
            M4 = band_module(b, OMEGA, 1, degree=2)
            for i in range(1, len(b.letters)):
                assert C.is_isomorphic(M1, band_module(b.rotation(i), 1, 1))
                assert C.is_isomorphic(M4, band_module(b.rotation(i), OMEGA, 1, degree=2))

    def test_indecomposable(self):
        b = Band.from_word(parse_word(self.BAND))
        for mult in (1, 2):
            assert len(C.decompose(band_module(b, 1, mult))) == 1

    def test_multiplicity_two_contains_one(self):
        b = Band.from_word(parse_word(self.BAND))
        M1 = band_module(b, 1, 1)
        M2 = band_module(b, 1, 2)
        injective = [h for h in C.hom_basis(M1, M2) if h.rank() == M1.dim]
        assert injective


def _graph_maps_both_ways(S, T):
    """The graph-map masks M(S) -> M(T) by the two-pass rule: both
    orientations of T and, inside each, both orientations of S, each mask
    kept at its first occurrence."""
    sw, tw = S.word, T.word
    width = len(sw.letters) + 1

    def read(word, quotient, flip):
        n = len(word.letters)
        w = word.inverse() if flip else word
        return [(n - i if flip else i, ln, key) for i, ln, key in _intervals(w, quotient)]

    seen, out = set(), []
    for t_flip in (False, True):
        subs = {}
        for dst, _, key in read(tw, False, t_flip):
            subs.setdefault(key, []).append(dst)
        for s_flip in (False, True):
            step = (-1 if s_flip else 1) + (-width if t_flip else width)
            for src, ln, key in read(sw, True, s_flip):
                for dst in subs.get(key, ()):
                    mask = sum(1 << (dst * width + src + t * step) for t in range(ln + 1))
                    if mask not in seen:
                        seen.add(mask)
                        out.append(mask)
    return out


class TestStringHoms:
    def test_end_of_loop_string(self):
        basis = string_hom_basis(parse_word("alpha-"), parse_word("alpha-"))
        assert len(basis) == 2
        mats = {tuple(map(tuple, h.to_entries())) for h in basis}
        assert ((1, 0), (0, 1)) in mats          # identity
        assert ((0, 0), (1, 0)) in mats          # z0 -> z1 through the vertex simple

    def test_simples_at_different_vertices(self):
        assert string_hom_dim(String((), 0), String((), 1)) == 0

    def test_all_maps_intertwine(self):
        words = ["alpha- gamma eta-", "gamma beta", "beta alpha- beta-"]
        for a in words:
            for b in words:
                MA, MB = string_module(parse_word(a)), string_module(parse_word(b))
                for h in string_hom_basis(parse_word(a), parse_word(b)):
                    assert C.is_module_map(h, MA, MB)

    def test_cross_engine_small(self):
        # the support count, the graph-map basis and the matrix engine
        # agree on every pair of strings of length <= 6
        strings = enumerate_strings(6)
        mods = {s: string_module(s) for s in strings}
        for a in strings:
            for b in strings:
                d = string_hom_dim(a, b)
                assert d == len(string_hom_basis(a, b)) == C.hom_dim(mods[a], mods[b]), (
                    a.text(),
                    b.text(),
                )

    def test_count_equals_support_enumeration(self):
        # the interval-count dot product against the listed graph maps, on
        # every ordered pair of strings of length <= 7
        strings = enumerate_strings(7)
        for a in strings:
            for b in strings:
                assert string_hom_dim(a, b) == len(list(graph_map_supports(a, b))), (a.text(), b.text())

    def test_one_pass_matches_both_ways_enumeration(self):
        # the same masks in the same order as the two-pass rule with its
        # repeats dropped, on every ordered pair of strings of length <= 6
        strings = enumerate_strings(6)
        for a in strings:
            for b in strings:
                assert list(graph_map_supports(a, b)) == _graph_maps_both_ways(a, b), (a.text(), b.text())

    def test_count_ignores_representative(self):
        # a String, its Word and the inverse Word: the memo keys and both
        # orientations of each argument
        strings = enumerate_strings(5)
        forms = {s: (s, s.word, s.word.inverse()) for s in strings}
        for a in strings:
            for b in strings:
                d = string_hom_dim(a, b)
                assert {string_hom_dim(x, y) for x in forms[a] for y in forms[b]} == {d}, (a.text(), b.text())

    def test_count_for_vertex_strings(self):
        simples = [String((), 0), String((), 1)]
        for t in enumerate_strings(8):
            for e in simples:
                for a, b in ((e, t), (t, e)):
                    assert string_hom_dim(a, b) == len(list(graph_map_supports(a, b))), (a.text(), b.text())
        # Hom(S_v, S_w) is k exactly when v = w
        assert [[string_hom_dim(a, b) for b in simples] for a in simples] == [[1, 0], [0, 1]]

    def test_interval_counts_stay_bounded(self):
        # 2 tables for each of the 2,294 strings of length <= 14
        _interval_counts.cache_clear()
        for s in enumerate_strings(14):
            string_hom_dim(s, s)
        info = _interval_counts.cache_info()
        assert info.misses == 2 * 2294 > info.maxsize == 4096
        assert info.currsize <= 4096

    def test_interval_counts_hold_the_pair_scan(self):
        # c10 at its guard: every pair of the 472 strings of length <= 10
        # twice over, the second pass from the cache alone
        strings = enumerate_strings(10)

        def scan():
            return [string_hom_dim(a, b) for a in strings for b in strings]

        first = scan()
        misses = _interval_counts.cache_info().misses
        assert scan() == first
        assert _interval_counts.cache_info().misses == misses

    def test_supports_are_the_basis_matrices(self):
        strings = enumerate_strings(4)
        for a in strings:
            for b in strings[::3]:
                masks = list(graph_map_supports(a, b))
                assert len(set(masks)) == len(masks)
                width = len(a.letters) + 1
                for mask, h in zip(masks, string_hom_basis(a, b)):
                    ones = {(r, c) for r in range(h.nrows) for c in range(width) if h.entry(r, c)}
                    assert ones == {divmod(k, width) for k in range(mask.bit_length()) if mask >> k & 1}


class TestStringArguments:
    def test_forbidden_word_raises(self):
        w = Word((ALPHA, ALPHA))
        for call in (
            lambda: string_module(w),
            lambda: string_hom_dim(w, String((), 0)),
            lambda: string_hom_dim(String((), 0), w),
            lambda: string_hom_basis(w, w),
        ):
            with pytest.raises(ForbiddenSubword):
                call()

    def test_uncomposable_word_raises(self):
        with pytest.raises(NotComposable):
            string_module(Word((ALPHA, BETA)))

    def test_letters_and_vertices_out_of_range_raise(self):
        # 9 and -1 would build M(beta) and M(eta-) by their low bits, and an
        # empty word at vertex 2 has no idempotent
        for call in (
            lambda: string_module(Word((9,))),
            lambda: string_module(Word((-1,))),
            lambda: string_module(Word((), 2)),
            lambda: string_module(String((), 2)),
            lambda: band_module(Word((9,)), 1),
        ):
            with pytest.raises(ParseError):
                call()

    def test_band_is_not_a_string(self):
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        with pytest.raises(ParseError):
            string_hom_dim(b, b)
        with pytest.raises(ParseError):
            string_module(b)

    def test_text_is_not_a_string(self):
        with pytest.raises(ParseError):
            string_hom_dim("alpha", "alpha")
        with pytest.raises(ParseError):
            string_hom_basis("alpha", String((), 0))

    def test_band_module_takes_band_or_word(self):
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        assert C.is_isomorphic(band_module(b, 1), band_module(b.word, 1))
        # a word keeps its own rotation: basis vector 0 sits at the end
        # vertex of its first letter
        for i in range(len(b)):
            rot = b.rotation(i)
            M = band_module(rot, 1)
            assert C._vertex_masks(M)[rot.vertices()[0]] & 1
            assert C.is_isomorphic(M, band_module(b, 1))
        with pytest.raises(ParseError):
            band_module("eta- beta alpha- gamma", 1)
        # alpha^2 is also forbidden; beta- follows its inverse across the wrap
        for text, flaw in (
            ("alpha alpha", "proper power"),
            ("beta alpha", "not cyclically composable"),
            ("beta alpha beta-", "forbidden subword in a power"),
        ):
            with pytest.raises(ForbiddenSubword, match=flaw):
                band_module(parse_word(text), 1)


def test_comb_hom_maps_are_linearly_independent():
    # together with dimension agreement this makes the combinatorial
    # maps a genuine basis of the hom space
    from stringalg.matrix import RowBasis

    for a in enumerate_strings(5):
        for b in enumerate_strings(5):
            basis = string_hom_basis(a, b)
            if not basis:
                continue
            m = basis[0]
            rb = RowBasis(m.field, m.nrows * m.ncols)
            for h in basis:
                rb.insert(h.vector())
            assert rb.rank == len(basis), (a.text(), b.text())


def test_band_rotation_invariance_multiplicity_two():
    # the defining isomorphism holds for higher Jordan multiplicity too
    b = Band.from_word(parse_word("eta- beta alpha- gamma"))
    M = band_module(b, OMEGA, 2, degree=2)
    for i in range(1, 4):
        assert C.is_isomorphic(M, band_module(b.rotation(i), OMEGA, 2, degree=2))


@pytest.mark.parametrize("degree", [1, 2])
def test_string_module_hands_over_the_views_of_its_matrices(degree):
    # what string_module places for the Hom systems (calculus._hom_rows),
    # each arrow's view and the point set of each vertex, equals what a
    # plain copy derives from its matrices, for both orientations
    lam = quiver_context(degree)
    arrows = list(lam.gen_names[len(lam.idempotents) :])
    strings = enumerate_strings(10)
    assert max(len(s.letters) for s in strings) == 10
    for s in strings:
        for word in (s.word, s.word.inverse()):
            M = string_module(word, degree)
            P = M.plain()
            views = M.cache["hom_gens"]
            assert list(views) == arrows
            assert list(views.values()) == C._generators(P, arrows), word.text()
            assert M.cache["vertex_masks"] == C._vertex_masks(P), word.text()
            assert C.composition_multiplicities(M) == [e.rank() for e in (M.action[n] for n in lam.idempotents)]
