import copy
import os
import random
import subprocess
import sys
from functools import cache, reduce
from itertools import product
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringalg import calculus as C
from stringalg.algebra import _assert_is_representation, _verify_context, group_context, quiver_context
from stringalg.errors import DimensionMismatch, SplitFailure, SplitOnly
from stringalg.gf import OMEGA
from stringalg.groupside import extension_tower, induce, perm_module, restrict, standard_reps
from stringalg.matrix import Mat, RowBasis, block_diag, hstack, vstack
from stringalg.modules import band_module, string_module
from stringalg.rep import ModuleRep, direct_sum
from stringalg.words import (
    ARROW_NAMES,
    Band,
    String,
    e_of,
    enumerate_bands,
    enumerate_strings,
    make_string,
    parse_word,
    s_of,
    syzygy_word,
)

from oracles import (
    composition_multiplicities_hom,
    cover_maps_counted,
    ext1_dim_cocycles,
    quotient_module_section,
    socle_hom,
    socle_series_hom,
)


@pytest.fixture(scope="module")
def lam():
    return quiver_context(1)


@pytest.fixture(scope="module")
def ks4():
    return group_context("S4", 1)


class TestAlgebraSetup:
    def test_quiver_algebra(self, lam):
        assert lam.regular.dim == 11
        assert [P.dim for P in lam.pims] == [6, 5]
        assert C.radical_series(lam.pims[0]) == [[1, 0], [1, 1], [1, 1], [1, 0]]
        assert C.radical_series(lam.pims[1]) == [[0, 1], [1, 1], [1, 0], [0, 1]]

    def test_group_algebra(self, ks4):
        assert ks4.regular.dim == 24
        assert [S.dim for S in ks4.simples] == [1, 2]
        assert [P.dim for P in ks4.pims] == [8, 8]
        assert sorted(p.dim for p in C.decompose(ks4.regular)) == [8, 8, 8]

    def test_order_two_group(self):
        kc2 = group_context("C2", 1)
        assert [P.dim for P in kc2.pims] == [2]
        assert C.is_isomorphic(kc2.pims[0], kc2.regular)

    @pytest.mark.parametrize("name", ["Lambda", "S4"])
    def test_set_up_refuses_a_reducible_or_repeated_simple(self, name, monkeypatch):
        ctx = _context(name, 1)
        first = ctx.simples[0]
        # a non-split self-extension: two-dimensional, indecomposable and
        # reducible
        reducible = C.nonsplit_extension(first, first)
        monkeypatch.setattr(ctx, "simples", [first, reducible])
        with pytest.raises(SplitFailure, match="not absolutely simple"):
            _verify_context(ctx)
        monkeypatch.setattr(ctx, "simples", [first, first])
        with pytest.raises(SplitFailure, match="isomorphic"):
            _verify_context(ctx)

    @pytest.mark.parametrize("name, degree", [("Lambda", 1), ("S4", 1), ("A4", 2)])
    def test_set_up_refuses_pims_out_of_order(self, name, degree, monkeypatch):
        # P_{i+1} in the place of P_i: the dimension count and the duals
        # still pass, but top D(P_{i+1}) is not D(S_i)
        ctx = _context(name, degree)
        monkeypatch.setattr(ctx, "pims", ctx.pims[1:] + ctx.pims[:1])
        with pytest.raises(SplitFailure, match="socle of"):
            _verify_context(ctx)

    def test_decompose_regular_quiver_algebra(self, lam):
        # the sum of the PIMs as built, and as a plain copy, which _split
        # decomposes whole
        for regular in (lam.regular, lam.regular.plain()):
            parts = C.decompose(regular)
            dims = sorted(p.dim for p in parts)
            assert dims == [5, 6]
            by_dim = {p.dim: p for p in parts}
            assert C.is_isomorphic(by_dim[6], lam.pims[0])
            assert C.is_isomorphic(by_dim[5], lam.pims[1])


# The defining relations of Lambda as README states them, each a sum of
# paths (generator words, the leftmost acting last) that acts as zero;
# over characteristic 2 a difference is a sum.
_RELATIONS = (
    (("alpha", "alpha"),),
    (("eta", "beta"),),
    (("beta", "gamma"),),
    (("gamma", "eta"),),
    (("gamma", "beta", "alpha"), ("alpha", "gamma", "beta")),
    (("eta", "eta"), ("beta", "alpha", "gamma")),
)


def _assert_relations(M):
    """M is a module over the path algebra with the relations: the vertex
    idempotents are orthogonal and sum to 1, each arrow runs from its
    source vertex to its target, and every relation acts as zero."""
    ctx = M.algebra
    zero = Mat.zeros(M.field, M.dim, M.dim)
    e = [M.action[name] for name in ctx.idempotents]
    assert e[0].add(e[1]) == Mat.identity(M.field, M.dim), M
    assert e[0].mul(e[1]) == e[1].mul(e[0]) == zero, M
    assert all(x.mul(x) == x for x in e), M
    for a, name in enumerate(ARROW_NAMES):
        assert e[e_of(a)].mul(M.action[name]).mul(e[s_of(a)]) == M.action[name], (M, name)
    for paths in _RELATIONS:
        assert reduce(Mat.add, [M.word_matrix(p) for p in paths]) == zero, (M, paths)


@pytest.mark.parametrize("degree", [1, 2])
class TestRelations:
    """The projectives are closed walks on words.ARMS and the regular
    module their sum; README's relations are the oracle for them and for
    every string and band module."""

    def test_projectives_and_regular_module(self, degree):
        ctx = quiver_context(degree)
        for M in [*ctx.pims, ctx.regular]:
            _assert_relations(M)

    def test_string_modules(self, degree):
        for s in enumerate_strings(8):
            _assert_relations(string_module(s, degree))

    def test_band_modules(self, degree):
        for b in enumerate_bands(10):
            for lam, m in _band_params(degree):
                _assert_relations(band_module(b, lam, m, degree))

    def test_regular_module_is_faithful(self, degree):
        # the generator words of length <= 3 span the 11 paths of Lambda
        ctx = quiver_context(degree)
        R = ctx.regular
        span = RowBasis(R.field, R.dim * R.dim)
        for n in range(4):
            for w in product(ctx.gen_names, repeat=n):
                span.insert(R.word_matrix(w).vector())
        assert span.rank == ctx.regular.dim == 11

    def test_projectives_are_untagged_with_zero_omega(self, degree):
        for P in quiver_context(degree).pims:
            assert "string" not in P.cache and "band" not in P.cache
            assert C.syzygy(P).dim == 0


class TestHomSpaces:
    def test_end_of_projective(self, lam):
        assert C.hom_dim(lam.pims[0], lam.pims[0]) == 4

    def test_hom_from_projective_counts_multiplicity(self, lam):
        for s in enumerate_strings(6):
            M = string_module(s)
            verts = s.word.vertices()
            assert C.hom_dim(lam.pims[0], M) == verts.count(0)
            assert C.hom_dim(lam.pims[1], M) == verts.count(1)

    def test_distinct_simples(self, lam):
        assert C.hom_dim(lam.simples[0], lam.simples[1]) == 0

    def test_hom_space_elements_are_valid(self, lam):
        M = string_module(parse_word("gamma beta"))
        basis = C.hom_basis(lam.pims[0], M)
        assert basis and all(C.is_module_map(h, lam.pims[0], M) for h in basis)

    def test_is_module_map(self):
        # M(alpha): alpha sends z_1 to z_0, so z_1 -> z_0 commutes with it
        # and z_0 -> z_1 does not
        M = string_module(make_string("alpha"))
        assert C.is_module_map(Mat.from_entries(M.field, [[0, 1], [0, 0]]), M, M)
        assert not C.is_module_map(Mat.from_entries(M.field, [[0, 0], [1, 0]]), M, M)

    def test_is_module_map_refuses_a_wrong_shape(self):
        M = string_module(make_string("alpha beta- gamma-"))
        N = string_module(make_string("alpha"))
        assert C.is_module_map(Mat.zeros(M.field, N.dim, M.dim), M, N)
        for shape in ((2, 2), (M.dim, N.dim)):
            with pytest.raises(DimensionMismatch):
                C.is_module_map(Mat.zeros(M.field, *shape), M, N)


def _entrywise_equations(M, N):
    """The full intertwiner system as a matrix: one row per equation
    (X a_M)[i,j] = (a_N X)[i,j], for every generator a and every (i, j),
    the unknown X[k,l] in column k*m + l."""
    field = M.field
    n, m = N.dim, M.dim
    eqs = []
    for name in M.algebra.gen_names:
        A, B = M.action[name], N.action[name]
        for i in range(n):
            for j in range(m):
                row = [0] * (n * m)
                for l in range(m):
                    row[i * m + l] = field.add(row[i * m + l], A.entry(l, j))
                for k in range(n):
                    row[k * m + j] = field.add(row[k * m + j], B.entry(i, k))
                eqs.append(row)
    return Mat.from_entries(field, eqs)


def _entrywise_hom_basis(M, N):
    """Reference: the kernel of the full intertwiner system, solved by
    Mat.nullspace."""
    field = M.field
    n, m = N.dim, M.dim
    kernel = _entrywise_equations(M, N).nullspace()
    return [
        Mat.from_entries(field, [[kernel.entry(r, i * m + j) for j in range(m)] for i in range(n)])
        for r in range(kernel.nrows)
    ]


def _assert_hom_matches_entrywise(M, N):
    ref = _entrywise_hom_basis(M, N)
    assert C.hom_dim(M, N) == len(ref), (M, N)
    assert [h.key() for h in C.hom_basis(M, N)] == [h.key() for h in ref], (M, N)


def _conjugated(M, seed):
    """(M', P): M' is M in the basis changed by P, a seeded invertible
    matrix drawn until e0 is no longer diagonal (P mixes the vertices)."""
    rng = random.Random(seed)
    field = M.field
    d = M.dim
    while True:
        P = Mat.from_entries(field, [[rng.randrange(field.order) for _ in range(d)] for _ in range(d)])
        if not P.is_invertible():
            continue
        Pinv = P.inverse()
        action = {name: P.mul(a).mul(Pinv) for name, a in M.action.items()}
        e0 = action["e0"]
        if any(e0.entry(i, j) for i in range(d) for j in range(d) if i != j):
            return ModuleRep(M.algebra, d, action, label=f"conj({M.label})"), P


def _off_vertex(M):
    """M with one alpha entry from a vertex-1 basis vector, so the arrow
    matrix leaves its vertex pair (0 -> 0); the idempotents are M's."""
    at_1 = C._vertex_masks(M)[1]
    j = (at_1 & -at_1).bit_length() - 1
    alpha = M.action["alpha"].copy()
    alpha.set_entry(0, j, 1)
    return ModuleRep(M.algebra, M.dim, dict(M.action, alpha=alpha), label="bad")


def _both_at_once(M):
    """M with e0 and e1 both acting as the identity: 0/1 diagonals that
    are not complementary."""
    one = Mat.identity(M.field, M.dim)
    return ModuleRep(M.algebra, M.dim, dict(M.action, e0=one, e1=one), label="e0=e1=1")


def _oracle_modules(degree):
    lam = quiver_context(degree)
    strings = [s for s in enumerate_strings(4) if len(s.letters) >= 2][::5]
    mods = [string_module(s, degree) for s in strings]
    # lambda with an entry on every plane of the scalar
    scalar = (1 << degree) - 1
    for text in ("alpha beta- gamma-", "eta- beta alpha- gamma"):
        band = Band.from_word(parse_word(text))
        mods += [band_module(band, scalar, mult, degree) for mult in (1, 2)]
    mods.append(direct_sum([mods[0], mods[3]]))
    mods += [C.syzygy(mods[1].plain()), C.syzygy(mods[2].plain(), -1)]  # untagged
    mods += list(lam.simples) + list(lam.pims)
    return mods


class TestHomAgainstEntrywiseSystem:
    """hom_dim and hom_basis against the full entrywise system: the
    arrows-only route on modules with vertex masks, the all-generators
    route on the rest."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_graded_modules(self, degree):
        mods = _oracle_modules(degree)
        assert all(C._vertex_masks(M) is not None for M in mods)
        rng = random.Random(degree)
        for M in mods:
            for N in rng.sample(mods, 6):
                _assert_hom_matches_entrywise(M, N)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_one_block_modules(self, degree):
        strings = [string_module(parse_word(t), degree) for t in ("gamma beta alpha-", "alpha beta- eta gamma-")]
        conj = [_conjugated(M, seed)[0] for seed, M in enumerate(strings)]
        off = [_off_vertex(M) for M in strings]
        both = [_both_at_once(strings[1])]
        # the vertex masks come from the idempotents alone, whatever the
        # arrows do; e0 = e1 = 1 is not complementary
        assert all(C._vertex_masks(M) is None for M in conj + both)
        assert [C._vertex_masks(M) for M in off] == [C._vertex_masks(M) for M in strings]
        # End(M) reads the idempotents on the all-generators route only
        for M in off + both:
            C.hom_dim(M, M)
        assert ["e0" in M.cache["hom_gens"] for M in off + both] == [False, False, True]
        for M in conj + off + both:
            for N in conj + off + both + strings:
                _assert_hom_matches_entrywise(M, N)
                _assert_hom_matches_entrywise(N, M)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_factors_through_projective_one_block(self, degree):
        # f: M -> N factors through a projective iff f P^-1: M' -> N does
        M = string_module(parse_word("alpha beta- eta gamma-"), degree)
        N = string_module(parse_word("gamma beta alpha-"), degree)
        conj, P = _conjugated(M, 7)
        Pinv = P.inverse()
        answers = []
        for target in (N, M):
            for f in C.hom_basis(M, target):
                answers.append(C.factors_through_projective(f, M, target))
                assert C.factors_through_projective(f.mul(Pinv), conj, target) == answers[-1]
        assert True in answers and False in answers

    @pytest.mark.parametrize("name, degree", [("S4", 1), ("A4", 2), ("A4", 4)])
    def test_group_algebra_modules(self, name, degree):
        ctx = group_context(name, degree)
        mods = list(ctx.simples) + list(ctx.pims)
        mods.append(C.syzygy(ctx.simples[-1]))
        for M in mods:
            for N in mods:
                _assert_hom_matches_entrywise(M, N)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(enumerate_strings(5)), st.sampled_from(enumerate_strings(5)))
    def test_string_pairs(self, a, b):
        _assert_hom_matches_entrywise(string_module(a), string_module(b))


def test_no_equation_with_one_entry_reaches_the_row_basis(monkeypatch):
    # string modules act by partial permutations, so most equations of
    # their Hom system have one entry: each only says that one unknown is
    # zero, and goes into the zero mask instead of the RowBasis
    s = next(s for s in enumerate_strings(8) if len(s.letters) == 8)
    M, N = string_module(s), string_module(syzygy_word(s))
    inserted = []

    class Spy(RowBasis):
        def insert(self, v, keep=True):
            inserted.append(v)
            return super().insert(v, keep)

    monkeypatch.setattr(C, "RowBasis", Spy)
    dim = C.hom_dim(M, N)
    width = N.dim * M.dim
    eqs = [v for v in _entrywise_equations(M, N).rows if v]
    single = [v for v in eqs if bin(v).count("1") == 1]
    assert len(single) > len(eqs) // 2
    system = C._hom_rows(M, N)
    zero = system.zero
    # the unknowns of the equations with one entry, the cross-vertex ones
    # among them, make up the mask
    assert zero == reduce(or_, single)
    assert dim == len(_entrywise_hom_basis(M, N)) == width - bin(zero).count("1") - system.basis.rank
    # what the RowBasis sees are the equations with two or more entries,
    # with the entries in the mask cleared
    assert inserted and set(inserted) <= {v & ~zero for v in eqs if v not in single}


class TestCoversAndSyzygies:
    def test_cover_of_simple(self, lam):
        P, pi = C.projective_cover(lam.simples[0])
        assert P.dim == 6
        assert pi.rank() == 1

    def test_cover_of_uniserial(self, lam):
        M = string_module(parse_word("gamma beta"))  # top S0
        P, pi = C.projective_cover(M)
        assert C.is_isomorphic(P, lam.pims[0])

    def test_kernel_dimension(self, lam):
        for text in ("alpha-", "gamma beta", "alpha beta- gamma-"):
            M = string_module(parse_word(text))
            P, pi = C.projective_cover(M)
            assert C.syzygy(M).dim == P.dim - M.dim

    def test_syzygy_of_simples(self, lam):
        assert C.syzygy(lam.simples[0]).dim == 5
        assert C.syzygy(lam.simples[1]).dim == 4

    def test_round_trips_on_random_strings(self, lam):
        # on the word (tagged) and through the cover and D (untagged)
        rng = random.Random(0)
        for s in rng.sample(enumerate_strings(7), 20):
            for M in (string_module(s), string_module(s).plain()):
                assert C.is_isomorphic(C.syzygy(C.syzygy(M), -1), M)
                assert C.is_isomorphic(C.syzygy(C.syzygy(M, -1), 1), M)

    def test_uniserial_period_three(self, lam):
        x1 = string_module(parse_word("beta alpha"))
        for M in (x1, x1.plain()):
            assert C.is_isomorphic(C.syzygy(M, 3), M)
            assert C.is_isomorphic(C.syzygy(M, 1), C.syzygy(M, -2))

    @pytest.mark.parametrize("name, degree", [("Lambda", 1), ("S4", 1), ("A4", 2)])
    def test_projectives_and_zero_have_zero_syzygies(self, name, degree):
        ctx = _context(name, degree)
        for P in ctx.pims:
            for k in (1, 2, 3, -1, -2, -3):
                assert C.syzygy(P, k).dim == 0, (P, k)
        zero = C.syzygy(ctx.pims[0])
        assert C.syzygy(zero, 2).dim == C.syzygy(zero, -2).dim == 0

    def test_cover_keeps_the_maps_of_the_counted_rule(self):
        # strings of length <= 7, GF(4) bands of length <= 8 at lambda in
        # {1, w} and m <= 2, the GF(4) standard reps, V_0..V_3 and PermRep
        mods = [string_module(s) for s in enumerate_strings(7)]
        mods += [band_module(b, lam, m, degree=2) for b in enumerate_bands(8) for lam in (1, OMEGA) for m in (1, 2)]
        mods += list(standard_reps(2).values()) + extension_tower(3) + [perm_module()]
        assert len(mods) == 179
        for M in mods:
            P, pi, _, _ = C._cover(M.plain())
            blocks, summands = cover_maps_counted(M.plain())
            assert pi == hstack(blocks), M
            assert list(map(id, P.cache["parts"])) == list(map(id, summands)), M


def _context(name, degree):
    return quiver_context(degree) if name == "Lambda" else group_context(name, degree)


_ALL_CONTEXTS = [("Lambda", 1), ("Lambda", 2), ("S4", 1), ("S4", 2), ("A4", 2), ("C2", 1)]


class TestDuality:
    """D through ctx.opposite, and Omega^-1 = D Omega D."""

    @pytest.mark.parametrize("name, degree", _ALL_CONTEXTS)
    def test_dual_of_each_pim_is_a_pim(self, name, degree):
        ctx = _context(name, degree)
        for P in ctx.pims:
            assert sum(C.indec_isomorphic(C.dual(P), Q) for Q in ctx.pims) == 1, P

    def test_set_up_refuses_an_opposite_that_is_no_anti_automorphism(self, lam, monkeypatch):
        # without the beta <-> gamma swap, D(P0) is no Lambda-module
        monkeypatch.setattr(lam, "opposite", {g: (g,) for g in lam.gen_names})
        with pytest.raises(SplitFailure, match="dual of"):
            _verify_context(lam)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dual_of_dual_is_the_module(self, degree):
        mods = _oracle_modules(degree) + list(standard_reps(degree).values())
        mods += [group_context("S4", degree).regular]
        for M in mods:
            DD = C.dual(C.dual(M))
            assert all(DD.action[g] == M.action[g] for g in M.algebra.gen_names), M

    def test_dual_swaps_the_two_nontrivial_simples_of_a4(self):
        E0, E1, E2 = group_context("A4", 2).simples
        assert C.is_isomorphic(C.dual(E0), E0)
        assert C.is_isomorphic(C.dual(E1), E2)
        assert C.is_isomorphic(C.dual(E2), E1)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_cosyzygy_of_standard_reps(self, degree):
        for label, M in standard_reps(degree).items():
            N = C.syzygy(M, -1)
            assert C.is_isomorphic(C.syzygy(N), M), label
            pims = M.algebra.pims
            for U in C.decompose(N):
                assert not any(C.indec_isomorphic(U, P) for P in pims), label


def _annihilator_of_the_simples(ctx):
    """rad kG from its definition: the joint annihilator of the simples,
    as (coefficient, word) terms over the group elements."""
    field = ctx.field
    elements = sorted(ctx.elements)
    rows = []
    for S in ctx.simples:
        # one equation per entry of S, one unknown per group element
        flat = [S.word_matrix(ctx.elements[x]).vector() for x in elements]
        rows.extend(Mat(field, len(flat), S.dim * S.dim, flat).transpose().rows)
    kernel = Mat(field, len(rows), len(elements), rows).nullspace()
    return [
        tuple((kernel.entry(r, k), ctx.elements[x]) for k, x in enumerate(elements))
        for r in range(kernel.nrows)
    ]


def _combination(M, terms):
    """The matrix on M of a linear combination of group words."""
    out = Mat.zeros(M.field, M.dim, M.dim)
    for coeff, word in terms:
        out = out.add(M.word_matrix(word).scale(coeff))
    return out


def _radical_matrices(M):
    """Matrices on M spanning the action of the radical of the algebra:
    the four arrows for Lambda, the annihilator of the simples for kG."""
    ctx = M.algebra
    if ctx.elements is None:
        return [M.action[name] for name in ARROW_NAMES]
    return [_combination(M, e) for e in _annihilator_of_the_simples(ctx)]


def _cover_via_radical(M, mats):
    """The cover map chosen by the span test against rad M = J*M: a map
    P_i -> M is kept when its image grows rad M plus the images kept."""
    span = RowBasis(M.field, M.dim)
    for m in mats:
        for v in m.transpose().rows:
            span.insert(v)
    blocks = []
    for P_i, need in zip(M.algebra.pims, C.top_multiplicities(M)):
        for h in C.hom_basis(P_i, M):
            if need == 0:
                break
            rank = span.rank
            for v in h.transpose().rows:
                span.insert(v)
            if span.rank > rank:
                blocks.append(h)
                need -= 1
    return hstack(blocks)


def _radical_oracle_modules(degree):
    mods = _oracle_modules(degree)
    for seed, text in enumerate(("gamma beta alpha-", "alpha beta- eta gamma-")):
        mods.append(_conjugated(string_module(parse_word(text), degree), seed)[0])
    reps = list(standard_reps(degree).values())
    mods += reps + [C.syzygy(M) for M in reps] + [C.syzygy(M, -1) for M in reps]
    for name in ("S4", "C2") + (("A4",) if degree == 2 else ()):  # A4 needs GF(4)
        ctx = group_context(name, degree)
        mods += list(ctx.simples) + list(ctx.pims) + [ctx.regular]
    return mods


class TestRadicalAndSocle:
    """rad M (the common kernel of the maps to the simples), soc M (the
    annihilator of rad D(M)) and the projective cover, against the
    radical of the algebra acting on M."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_against_the_radical_of_the_algebra(self, degree):
        mods = _radical_oracle_modules(degree)
        assert any(C._vertex_masks(M) is None for M in mods)
        for M in mods:
            mats = _radical_matrices(M)
            rad = vstack([m.transpose() for m in mats]).row_space()
            soc = vstack(mats).nullspace().row_space()
            assert C.rad_rows(M).row_space() == rad, M
            assert C.socle_rows(M).row_space() == soc, M
            assert C.projective_cover(M)[1] == _cover_via_radical(M, mats), M

    def test_group_radical_has_the_wedderburn_dimension(self):
        for ctx in (group_context("S4", 1), group_context("S4", 2), group_context("A4", 2)):
            J = _annihilator_of_the_simples(ctx)
            assert len(J) == ctx.regular.dim - sum(S.dim**2 for S in ctx.simples), ctx
            for S in ctx.simples:
                assert all(_combination(S, e).is_zero() for e in J), (ctx, S)


@cache
def _socle_oracle_modules(degree):
    """Modules over GF(2^degree): Lambda's simples, PIMs and regular
    module, the string modules of length <= 7, the band modules of length
    <= 8 (_band_params), the simples, PIMs and regular modules of kS4, kC2
    and over GF(4) kA4, the standard reps, the tower V_0..V_4, over GF(4)
    Ind E12 and Res_A4 of PermRep and of T11; then Omega^1 and Omega^-1
    of each of these of dimension below 30."""
    lam = quiver_context(degree)
    mods = list(lam.simples) + list(lam.pims) + [lam.regular]
    mods += [string_module(s, degree) for s in enumerate_strings(7)]
    mods += [band_module(b, x, m, degree) for b in enumerate_bands(8) for x, m in _band_params(degree)]
    for name in ("S4", "C2") + (("A4",) if degree == 2 else ()):  # A4 needs GF(4)
        ctx = group_context(name, degree)
        mods += list(ctx.simples) + list(ctx.pims) + [ctx.regular]
    reps = standard_reps(degree)
    mods += list(reps.values()) + extension_tower(4, degree)
    if degree == 2:
        mods += [induce(reps["E12"]), restrict(reps["PermRep"], "A4"), restrict(reps["T11"], "A4")]
    mods += [C.syzygy(M.plain(), k) for M in mods if M.dim < 30 for k in (1, -1)]  # untagged
    return mods


@pytest.mark.parametrize("degree", [1, 2])
class TestSocleThroughTheDual:
    """soc M as the annihilator of rad D(M) and the socle series as D of
    the radical series of D(M), on plain copies, against the images of
    the maps S_i -> M (oracles.socle_series_hom)."""

    def test_against_the_maps_from_the_simples(self, degree):
        contexts = set()
        for M in _socle_oracle_modules(degree):
            M = M.plain()
            assert C.socle_rows(M).row_space() == socle_hom(M)[0], M
            assert C.socle_series(M) == socle_series_hom(M), M
            contexts.add(M.algebra.name)
        assert contexts == ({"Lambda", "kS4", "kC2", "kA4"} if degree == 2 else {"Lambda", "kS4", "kC2"})

    def test_no_hom_system_starts_at_a_simple(self, degree, monkeypatch):
        pairs = _spy(monkeypatch, "_hom_rows")
        for M in _socle_oracle_modules(degree):
            M = M.plain()
            C.socle_rows(M)
            C.socle_series(M)
        assert pairs
        assert not [(M, N) for M, N in pairs if any(M is S for S in M.algebra.simples)]


def _group_modules(degree):
    """Group-side modules over GF(2^degree): the simples and PIMs of each
    group algebra, the standard reps, the tower V_1..V_4, and the kS4
    reps restricted (to C2, and to A4 over GF(4)) and the kA4 reps
    induced."""
    reps = standard_reps(degree)
    mods = list(reps.values()) + extension_tower(4, degree)[1:]
    subgroups = ("C2", "A4") if degree == 2 else ("C2",)  # A4 needs GF(4)
    for name in ("S4",) + subgroups:
        ctx = group_context(name, degree)
        mods += list(ctx.simples) + list(ctx.pims)
    s4 = [M for M in mods if M.algebra.name == "kS4"]
    mods += [restrict(M, sub) for M in s4 if M.dim <= 9 for sub in subgroups]
    mods += [induce(M) for M in reps.values() if M.algebra.name == "kA4"]
    return mods


class TestMultiplicities:
    """Composition multiplicities (ranks with vertex idempotents, one PIM
    system fewer over a group) against Hom with the PIMs."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_against_the_hom_routes(self, degree):
        mods = _oracle_modules(degree)
        both_vertices = [M for M in mods if all(C._vertex_masks(M))]
        conj = [_conjugated(M, seed)[0] for seed, M in enumerate(both_vertices)]
        assert all(C._vertex_masks(M) is None for M in conj)
        for M in mods + conj + _group_modules(degree):
            assert C.composition_multiplicities(M) == composition_multiplicities_hom(M), M

    def test_set_up_refuses_a_simple_off_its_vertex(self, lam):
        # the rank counts read S_i as e_i acting by 1 and all else by 0
        S0, S1 = lam.simples
        bad = ModuleRep(lam, 1, dict(S0.action, alpha=Mat.identity(lam.field, 1)), label="S0'")
        other = copy.copy(lam)
        other.simples = [bad, S1]
        with pytest.raises(SplitFailure, match="not the simple at e0"):
            _verify_context(other)


class TestExtFromTheCoverOfM:
    """Ext^1(M, N) = hom(Omega M, N) - sum_i t_i(M) c_i(N) + hom(M, N)
    against the cocycle count and at its edges."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_standard_reps_and_the_tower_against_cocycles(self, degree):
        reps = [M for M in standard_reps(degree).values() if M.algebra.name == "kS4"]
        for M in reps:
            for V in extension_tower(4, degree)[1:]:
                assert C.ext1_dim(M, V) == ext1_dim_cocycles(M, V), (M, V)
                assert C.ext1_dim(V, M) == ext1_dim_cocycles(V, M), (V, M)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_projectives_have_no_extensions(self, degree):
        mods = _oracle_modules(degree) + _group_modules(degree)
        for P in mods:
            if P not in P.algebra.pims:
                continue
            for N in mods:
                if N.algebra is P.algebra:
                    assert C.ext1_dim(P, N) == C.ext1_dim(N, P) == 0, (P, N)


class TestZeroModule:
    """The zero module is its own projective cover."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_cover_routes_with_the_zero_module_on_either_side(self, degree):
        lam = quiver_context(degree)
        field = lam.field
        Z = ModuleRep(lam, 0, {g: Mat.zeros(field, 0, 0) for g in lam.gen_names}, label="0")
        P, pi = C.projective_cover(Z)
        assert P.dim == 0 and (pi.nrows, pi.ncols) == (0, 0)
        assert C.composition_multiplicities(Z) == C.top_multiplicities(Z) == [0, 0]
        for M in (string_module(parse_word("alpha"), degree), lam.simples[1], lam.pims[0], Z):
            for A, B in ((Z, M), (M, Z)):
                assert C.ext1_dim(A, B) == ext1_dim_cocycles(A, B) == 0, (A, B)
                assert C.factors_through_projective(Mat.zeros(field, B.dim, A.dim), A, B), (A, B)
                with pytest.raises(SplitOnly):
                    C.nonsplit_extension(A, B)

    @pytest.mark.parametrize("name, degree", [("S4", 1), ("S4", 2), ("A4", 2), ("C2", 1)])
    def test_group_zero_module(self, name, degree):
        ctx = group_context(name, degree)
        Z = ModuleRep(ctx, 0, {g: Mat.zeros(ctx.field, 0, 0) for g in ctx.gen_names}, label="0")
        assert C.composition_multiplicities(Z) == C.top_multiplicities(Z) == [0] * len(ctx.simples)
        for M in list(ctx.simples) + list(ctx.pims) + [Z]:
            for A, B in ((Z, M), (M, Z)):
                assert C.ext1_dim(A, B) == ext1_dim_cocycles(A, B) == 0, (A, B)
                assert C.stable_hom_dim(A, B) == 0, (A, B)


class TestStableAndExt:
    def test_stable_end_examples(self, lam):
        a2 = string_module(parse_word("alpha beta- gamma- alpha beta- gamma-"))
        b2 = string_module(parse_word("alpha- gamma beta alpha- gamma beta"))
        assert C.stable_end_dim(a2) == 1
        assert C.stable_end_dim(b2) == 1
        assert C.stable_end_dim(string_module(parse_word("alpha-"))) >= 2
        assert C.stable_end_dim(lam.pims[0]) == 0

    def test_ext_of_simples(self, lam):
        S0, S1 = lam.simples
        assert C.ext1_dim(S0, S0) == 1

    def test_ext_equals_cocycle_count_on_simples(self, lam, ks4):
        for ctx in (lam, ks4):
            for a in ctx.simples:
                for b in ctx.simples:
                    assert C.ext1_dim(a, b) == ext1_dim_cocycles(a, b)

    def test_ext_self_of_families(self, lam):
        for n in (1, 2, 3):
            an = string_module(parse_word(" ".join(["alpha beta- gamma-"] * n)))
            assert C.ext1_dim(an, an) == 1

    def test_stability_transfer(self, lam):
        # stable end dim is syzygy-invariant on non-projectives
        rng = random.Random(2)
        for s in rng.sample(enumerate_strings(6), 12):
            M = string_module(s)
            assert C.stable_end_dim(M) == C.stable_end_dim(C.syzygy(M))

    def test_uniserial_length_two_self_ext_vanishes(self, lam):
        # the analog of the second-vertex length-2 uniserial
        m_eta = string_module(parse_word("eta"))
        assert C.ext1_dim(m_eta, m_eta) == 0


def _stable_hom_via_cover(M, N):
    """hom(M, N) minus the maps that lift along the cover P(N) ->> N,
    from the cover module itself."""
    if M.dim * N.dim == 0:
        return 0
    P, _ = C.projective_cover(N)
    return C.hom_dim(M, N) - C.hom_dim(M, P) + C.hom_dim(M, C.syzygy(N.plain()))


class TestStableHomRoutes:
    """Stable Hom and Ext^1 of string modules read Omega off the word and
    the P term off multiplicities; the module route is the oracle."""

    def test_string_tag(self):
        s = enumerate_strings(3)[-1]
        assert string_module(s).cache["tag"] == s
        assert string_module(s.word.inverse()).cache["tag"] == s
        assert "tag" not in string_module(s).plain().cache

    def test_stable_end_and_self_ext_of_strings(self):
        for s in enumerate_strings(10):
            M = string_module(s)
            U = M.plain()
            assert C.stable_end_dim(M) == C.stable_end_dim(U), s.text()
            assert C.ext1_dim(M, M) == C.ext1_dim(U, U), s.text()

    @pytest.mark.parametrize("degree", [1, 2])
    def test_string_pairs(self, degree):
        tagged = [string_module(s, degree) for s in enumerate_strings(4)]
        untagged = [M.plain() for M in tagged]
        for M, UM in zip(tagged, untagged):
            for N, UN in zip(tagged, untagged):
                assert C.stable_hom_dim(M, N) == C.stable_hom_dim(UM, UN), (M, N)
                assert C.stable_hom_dim(M, N) == _stable_hom_via_cover(UM, UN), (M, N)
                assert C.ext1_dim(M, N) == C.ext1_dim(UM, UN), (M, N)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_p_term_matches_the_cover_on_other_modules(self, degree):
        mods = _oracle_modules(degree) + list(standard_reps(degree).values())
        for M in mods:
            for N in mods:
                if M.algebra is N.algebra:
                    assert C.stable_hom_dim(M, N) == _stable_hom_via_cover(M, N), (M, N)

    def test_omega_on_the_word_against_the_cover(self):
        # Omega^k for k = 1, -1, 2, -2 read off the tag, against the cover
        # route (D Omega D for k < 0) on an untagged copy
        for s in enumerate_strings(9):
            M = string_module(s)
            for k in (1, -1, 2, -2):
                omega = C.syzygy(M, k)
                assert omega.cache["tag"] == syzygy_word(s, k)
                assert C.is_isomorphic(omega.plain(), C.syzygy(M.plain(), k)), (s.text(), k)

    def test_ext_equals_cocycle_count_on_string_pairs(self):
        mods = [string_module(s) for s in enumerate_strings(3)]
        for M in mods:
            for N in mods:
                assert C.ext1_dim(M, N) == ext1_dim_cocycles(M, N), (M, N)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_maps_into_a_projective_count_composition_factors(self, degree):
        # the premise of the formula: P_i is the injective hull of S_i
        mods = _oracle_modules(degree) + list(standard_reps(degree).values())
        for name in ("S4", "C2") + (("A4",) if degree == 2 else ()):  # A4 needs GF(4)
            ctx = group_context(name, degree)
            mods += list(ctx.simples) + list(ctx.pims)
        for M in mods:
            for P_i in M.algebra.pims:
                assert C.hom_dim(M, P_i) == C.hom_dim(P_i, M), (M, P_i)


_EXT_BANDS = enumerate_bands(8)
_SUM_BANDS = enumerate_bands(4)
_SUM_STRINGS = enumerate_strings(4)


@st.composite
def _band_or_sum(draw, degree):
    """A band module (length <= 8, m <= 2), or a direct sum of a string
    module and a string or band module, over GF(2^degree)."""
    lams = st.sampled_from((1,) if degree == 1 else (1, OMEGA, OMEGA ^ 1))
    if draw(st.booleans()):
        return band_module(draw(st.sampled_from(_EXT_BANDS)), draw(lams), draw(st.sampled_from((1, 2))), degree)
    parts = [string_module(draw(st.sampled_from(_SUM_STRINGS)), degree)]
    if draw(st.booleans()):
        parts.append(band_module(draw(st.sampled_from(_SUM_BANDS)), draw(lams), 1, degree))
    else:
        parts.append(string_module(draw(st.sampled_from(_SUM_STRINGS)), degree))
    return direct_sum(parts)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(lambda degree: st.tuples(_band_or_sum(degree), _band_or_sum(degree))))
def test_ext_equals_cocycle_count_on_bands_and_sums(pair):
    M, N = pair
    assert C.ext1_dim(M, N) == ext1_dim_cocycles(M, N), (M, N)


def _band_params(degree):
    """(lambda, m) for band modules over GF(2^degree)."""
    lams = (1,) if degree == 1 else (1, OMEGA, OMEGA ^ 1)
    return [(lam, m) for lam in lams for m in (1, 2)]


@pytest.mark.parametrize("degree", [1, 2])
class TestBandRoutes:
    """Band modules carry the tag (Band, lambda', m) of their class in
    M.cache["tag"]: Omega is read off the Band's word and isomorphism off
    the tags; the cover and Hom routes on untagged copies are the
    oracle."""

    def test_band_tag(self, degree):
        b = enumerate_bands(6)[-1]
        w = b.rotation(1).inverse()
        assert band_module(w, 1, 2, degree).cache["tag"] == (b, 1, 2)
        assert band_module(b, 1, 1, degree).relabel("x").cache["tag"] == (b, 1, 1)
        assert "tag" not in band_module(b, 1, 1, degree).plain().cache

    def test_omega_on_the_word_against_the_cover(self, degree):
        # Omega^k for k = 1, -1, 2, -2 read off the tag, against the cover
        # route (D Omega D for k < 0) on an untagged copy
        for b in enumerate_bands(12):
            for lam, m in _band_params(degree):
                for w in (b.word, b.rotation(1).inverse()):
                    M = band_module(w, lam, m, degree)
                    for k in (1, -1, 2, -2):
                        omega = C.syzygy(M, k)
                        assert omega.cache["tag"] == band_module(syzygy_word(w, k), lam, m, degree).cache["tag"]
                        assert C.is_isomorphic(omega.plain(), C.syzygy(M.plain(), k)), (w.text(), lam, m, k)

    def test_stable_end_and_self_ext(self, degree):
        for b in enumerate_bands(10):
            for lam, m in _band_params(degree):
                M = band_module(b, lam, m, degree)
                U = M.plain()
                assert C.stable_end_dim(M) == C.stable_end_dim(U), (b.text(), lam, m)
                assert C.ext1_dim(M, M) == C.ext1_dim(U, U), (b.text(), lam, m)

    def test_tags_against_hom_on_random_pairs(self, degree):
        rng = random.Random(40 + degree)
        bands = enumerate_bands(10)
        strings = [s for s in enumerate_strings(9) if len(s) in (3, 5, 7, 9)]  # dim 4, 6, 8, 10, as bands

        def draw():
            if rng.random() < 0.2:
                s = rng.choice(strings)
                return string_module(rng.choice((s.word, s.word.inverse())), degree)
            b = rng.choice(bands)
            w = b.rotation(rng.randrange(len(b)))
            lam, m = rng.choice(_band_params(degree))
            return band_module(rng.choice((w, w.inverse())), lam, m, degree)

        seen = 0
        for _ in range(300):
            M = draw()
            # half of the time a random module of M's dimension, half of
            # the time M's tag read another way
            N = draw() if rng.random() < 0.5 else _rebuilt(M, rng, degree)
            while N.dim != M.dim:
                N = draw()
            iso = C.is_isomorphic(M.plain(), N.plain())
            seen += iso
            assert C.is_isomorphic(M, N) == C.indec_isomorphic(M, N) == iso, (M, N)
        assert 50 < seen < 250


@pytest.mark.parametrize("degree", [1, 2])
def test_syzygy_of_a_tagged_module_builds_no_cover(degree, monkeypatch):
    # Omega^k of a string module, or of a band module with m = 2, steps on
    # the word: no cover, no dual and no Hom system
    mods = [string_module(s, degree) for s in enumerate_strings(5)]
    mods += [band_module(b, lam, 2, degree) for b in enumerate_bands(8) for lam in {x for x, _ in _band_params(degree)}]
    calls = []
    for name in ("_cover", "dual", "_hom_rows"):
        real = getattr(C, name)
        monkeypatch.setattr(C, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for M in mods:
        for k in (1, -1, 2, -2):
            C.syzygy(M, k)
    assert not calls


def test_inverse_word_inverts_lambda_in_the_tag():
    # over GF(4): M(B^-1, omega, m) = M(B, omega^-1, m), and omega^-1 = omega^2 = omega + 1
    for b in enumerate_bands(8):
        for i in range(len(b)):
            w = b.rotation(i)
            assert band_module(w, OMEGA, 1, 2).cache["tag"] == (b, OMEGA, 1)
            assert band_module(w.inverse(), OMEGA, 2, 2).cache["tag"] == (b, OMEGA ^ 1, 2)


def _rebuilt(M, rng, degree):
    """The module of M's tag read another way: a string word inverted, a
    band word rotated and perhaps inverted with lambda inverted or kept."""
    tag = M.cache["tag"]
    if isinstance(tag, String):
        return string_module(tag.word.inverse(), degree)
    band, lam, m = tag
    w = band.rotation(rng.randrange(len(band)))
    if rng.random() < 0.5:
        return band_module(w, lam, m, degree)
    inv = M.field.inv(lam) if rng.random() < 0.8 else lam
    return band_module(w.inverse(), inv, m, degree)


class TestFactorsThroughProjective:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_identity_of_pim_factors(self, degree):
        for P in quiver_context(degree).pims:
            assert C.factors_through_projective(Mat.identity(P.field, P.dim), P, P)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_identity_of_non_projective_does_not_factor(self, degree):
        mods = [string_module(parse_word(t), degree) for t in ("alpha-", "gamma beta", "alpha beta- gamma-")]
        if degree == 2:
            mods.append(band_module(Band.from_word(parse_word("eta- beta alpha- gamma")), OMEGA, 1, degree=2))
        for M in mods:
            ident = Mat.identity(M.field, M.dim)
            assert not C.factors_through_projective(ident, M, M)
            assert not C.factors_through_projective(ident.scale(M.field.order - 1), M, M)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_composite_through_projective_factors(self, degree):
        field = quiver_context(degree).field
        pairs = (("alpha beta- gamma-", "alpha beta- gamma-"), ("gamma beta", "alpha-"), ("eta- beta", "alpha- gamma eta-"))
        for mt, nt in pairs:
            M, N = string_module(parse_word(mt), degree), string_module(parse_word(nt), degree)
            P, pi = C.projective_cover(N)
            composites = [pi.mul(g) for g in C.hom_basis(M, P)]
            f = Mat.zeros(field, N.dim, M.dim)
            for k, h in enumerate(composites):
                f = f.add(h.scale(field.order - 1 - k % (field.order - 1)))
            assert not f.is_zero()
            for h in composites + [f]:
                assert C.factors_through_projective(h, M, N)

    def test_wrong_shape_is_refused(self):
        # a map M(alpha beta- gamma-) -> M(alpha) is 2 x 4
        M = string_module(make_string("alpha beta- gamma-"))
        N = string_module(make_string("alpha"))
        assert C.factors_through_projective(Mat.zeros(M.field, N.dim, M.dim), M, N)
        for shape in ((2, 2), (M.dim, N.dim)):
            with pytest.raises(DimensionMismatch):
                C.factors_through_projective(Mat.zeros(M.field, *shape), M, N)


class TestIsoAndDecompose:
    def test_simples_not_isomorphic(self, lam):
        assert not C.is_isomorphic(lam.simples[0], lam.simples[1])

    # the sums below are plain copies, so that _split splits them and
    # does not read their parts

    def test_direct_sum_decomposes(self, lam):
        S0 = lam.simples[0]
        parts = C.decompose(direct_sum([S0, S0]).plain())
        assert len(parts) == 2
        assert all(C.is_isomorphic(p, S0) for p in parts)

    def test_mixed_sum(self, lam):
        M = direct_sum([lam.simples[0], string_module(parse_word("gamma beta")), lam.pims[1]]).plain()
        dims = sorted(p.dim for p in C.decompose(M))
        assert dims == [1, 3, 5]

    def test_iso_after_base_change(self, lam):
        # scramble a module by an invertible base change; must stay isomorphic
        from stringalg.matrix import Mat

        M = string_module(parse_word("alpha- gamma eta-"))
        rng = random.Random(4)
        while True:
            U = Mat.from_entries(
                M.field, [[rng.randrange(2) for _ in range(M.dim)] for _ in range(M.dim)]
            )
            if U.is_invertible():
                break
        Ui = U.inverse()
        from stringalg.rep import ModuleRep

        N = ModuleRep(
            M.algebra,
            M.dim,
            {g: U.mul(M.action[g]).mul(Ui) for g in M.algebra.gen_names},
            label="scrambled",
        )
        assert C.is_isomorphic(M, N)


def _lines(field, basis, nrows, ncols):
    """One nonzero combination of the basis matrices per line through 0
    (its last nonzero coefficient is 1); being nilpotent or invertible does
    not change along a line."""
    span = [Mat.zeros(field, nrows, ncols)]
    lines = []
    for k, h in enumerate(basis):
        lines += [f.add(h) for f in span]
        if k + 1 < len(basis):
            span = [f.add(h.scale(c)) for c in field.elements() for f in span]
    return lines


def _fits(M, N):
    """Is Hom(M, N) small enough to list (at most 4096 elements)?"""
    return M.field.order ** C.hom_dim(M, N) <= 4096


def _oracle_indecomposable(M):
    """Brute force: every endomorphism is nilpotent or invertible."""
    n = M.dim
    return all(
        f.is_invertible() or f.power(n).is_zero()
        for f in _lines(M.field, C.hom_basis(M, M), n, n)
    )


def _oracle_isomorphic(M, N):
    """Brute force: some combination of the Hom(M, N) basis is invertible."""
    if M.dim != N.dim:
        return False
    return M.dim == 0 or any(f.is_invertible() for f in _lines(M.field, C.hom_basis(M, N), N.dim, M.dim))


def _oracle_pool(degree):
    """Indecomposables whose End is small enough to list: strings of length
    <= 6, bands of length <= 8 with m <= 2, the group-side reps."""
    lams = (1,) if degree == 1 else (OMEGA, OMEGA ^ 1)
    mods = [string_module(s, degree) for s in enumerate_strings(6)]
    mods += [band_module(b, lam, m, degree) for b in enumerate_bands(8) for lam in lams for m in (1, 2)]
    mods += list(standard_reps(degree).values())
    return [M for M in mods if _fits(M, M)]


@pytest.mark.parametrize("degree", [1, 2])
def test_decompose_and_is_isomorphic_match_the_brute_force_oracle(degree):
    # every pool module is indecomposable by the oracle, so decompose must
    # return it whole; on seeded sums of two or three pool modules its
    # summands must match the parts one to one, and is_isomorphic must
    # agree with the oracle.  Each module is taken as built, where the tags
    # and parts decide every string or band module and every sum of them,
    # and as a plain copy, which goes through Hom and _split
    pool = _oracle_pool(degree)
    wrong = []
    for plain in (False, True):

        def build(parts):
            M = direct_sum(parts)
            return M.plain() if plain else M

        for M in pool:
            M = M.plain() if plain else M
            if [p.dim for p in C.decompose(M)] != [M.dim] or not _oracle_indecomposable(M):
                wrong.append(("decompose", plain, M))
        rng = random.Random(degree)
        for _ in range(40):
            first = rng.choice(pool)
            parts = [first] + rng.choices([X for X in pool if X.algebra is first.algebra], k=rng.choice((1, 2)))
            M = build(parts)
            found = C.decompose(M)
            left = list(parts)
            for U in found:
                # U = X needs dim Hom(U, X) = dim End(X), which is listable
                hit = next((k for k, X in enumerate(left) if _fits(U, X) and _oracle_isomorphic(U, X)), None)
                if hit is None:
                    wrong.append(("summand", plain, M, U))
                    break
                left.pop(hit)
            if left:
                wrong.append(("summands", plain, M))
            swapped = parts[1:] + parts[:1]
            same_dim = [X for X in pool if X.algebra is first.algebra and X.dim == first.dim]
            others = [swapped, swapped[:-1] + [rng.choice(same_dim)]]
            for N in map(build, others):
                if _fits(M, N) and C.is_isomorphic(M, N) != _oracle_isomorphic(M, N):
                    wrong.append(("is_isomorphic", plain, M, N))
    assert wrong == []


def _companion_band():
    """The GF(2) band module of alpha beta- gamma- with its wrap letter
    twisted by the companion matrix of x^2+x+1 instead of a Jordan block,
    so that End/rad = GF(4)."""
    M = band_module(parse_word("alpha beta- gamma-"), 1, 2)
    gamma = M.action["gamma"].copy()
    # the wrap letter gamma- maps cycle point 2 (basis 4, 5) to 0 (basis 0, 1)
    for (r, c), e in zip(((0, 4), (0, 5), (1, 4), (1, 5)), (0, 1, 1, 1)):
        gamma.set_entry(r, c, e)
    return ModuleRep(M.algebra, M.dim, dict(M.action, gamma=gamma), label="M(alpha beta- gamma-; x^2+x+1)")


def _unit(field, i, j, n=3):
    return Mat.from_entries(field, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


class TestSplitSearch:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("copies", [3, 4, 5])
    def test_long_strings_are_certified(self, degree, copies):
        # End dimension 13, 21, 31: too large to list the endomorphisms
        M = string_module(parse_word(" ".join(["alpha beta- gamma-"] * copies)), degree)
        assert [p.dim for p in C.decompose(M)] == [3 * copies + 1]

    # the doubles are plain copies, so that _split splits them and does not
    # read their parts

    def test_double_of_a_long_string(self, monkeypatch):
        M = string_module(parse_word(" ".join(["alpha beta- gamma-"] * 4)), 2)
        MM = direct_sum([M, M]).plain()
        calls = _spy(monkeypatch, "_split")
        assert [p.dim for p in C.decompose(MM)] == [13, 13]
        assert calls and calls[0][0] is MM
        assert C.is_isomorphic(MM, direct_sum([M, M]).plain())

    def test_residue_field_larger_than_the_field(self, monkeypatch):
        M = _companion_band()
        calls = _spy(monkeypatch, "_split")
        assert [p.dim for p in C.decompose(M)] == [6]
        assert calls and calls[0][0] is M
        assert _oracle_indecomposable(M)
        MM = direct_sum([M, M]).plain()
        calls.clear()
        assert [p.dim for p in C.decompose(MM)] == [6, 6]
        assert calls and calls[0][0] is MM
        assert C.is_isomorphic(MM, direct_sum([M, M]).plain())

    def test_double_projective_with_an_element_of_order_three(self, ks4, monkeypatch):
        # End(P(T1) + P(T1)) has basis elements with no eigenvalue in GF(2)
        P = ks4.pims[1]
        PP = direct_sum([P, P]).plain()
        calls = _spy(monkeypatch, "_split")
        assert [p.dim for p in C.decompose(PP)] == [8, 8]
        assert calls and calls[0][0] is PP
        assert C.is_isomorphic(PP, direct_sum([P, P]).plain())

    def test_products_in_k_plus_v_do_not_certify(self, lam):
        # End(S0^3) = M_3(GF(2)) is spanned by 1 and nilpotents (N1, N2 are
        # nilpotent in characteristic 2) but is not local
        S0 = lam.simples[0]
        field = S0.field
        units = [_unit(field, i, j) for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))]
        n1 = Mat.from_entries(field, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        n2 = Mat.from_entries(field, [[0, 0, 0], [0, 1, 1], [0, 1, 1]])
        basis = [Mat.identity(field, 3)] + units + [n1, n2]
        split = C._split(direct_sum([S0, S0, S0]), basis)
        assert split is not None
        assert sorted(p.dim for p in split) == [1, 2]


class TestDecomposeCache:
    def test_changing_the_returned_list_leaves_the_cache(self, lam):
        # on the sum as built, whose summands are its parts, and on a plain
        # copy, which _split decomposes anew on each call
        built = direct_sum([lam.simples[0], string_module(parse_word("gamma beta")), lam.pims[1]])
        for M in (built, built.plain()):
            first = C.decompose(M)
            parts = list(first)
            first.pop(0)
            first.pop()
            again = C.decompose(M)
            if M is built:
                assert again == parts
            else:
                assert [U.dim for U in again] == [U.dim for U in parts]
                assert all(C.indec_isomorphic(U, V) for U, V in zip(parts, again))
            U = parts[1]
            whole = C.decompose(U)
            whole.clear()
            assert C.decompose(U) == [U]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_is_isomorphic_after_decompose_matches_a_fresh_copy(self, degree):
        lam = quiver_context(degree)
        S0, S1 = lam.simples
        a = string_module(parse_word("gamma beta"), degree)
        b = band_module(parse_word("alpha beta- gamma-"), 1, 1, degree)
        pairs = [
            (direct_sum([S0, a, b]), direct_sum([b, S0, a])),
            (direct_sum([S0, S0, a]), direct_sum([a, S0, S0])),
            (direct_sum([S0, S0, a]), direct_sum([S0, S1, a])),
            (direct_sum([a, a]), direct_sum([a, string_module(parse_word("beta alpha"), degree)])),
            (direct_sum([lam.pims[1], lam.pims[1]]), direct_sum([lam.pims[1], lam.pims[1]])),
        ]
        # plain copies, so that is_isomorphic goes through Hom and the
        # decompositions through _split
        pairs = [(M.plain(), N.plain()) for M, N in pairs]
        for M, N in pairs:
            expected = C.is_isomorphic(M.plain(), N.plain())
            C.decompose(M)
            C.decompose(N)
            # twice: the first call pops from N's summands
            assert C.is_isomorphic(M, N) == expected, (M, N)
            assert C.is_isomorphic(M, N) == expected, (M, N)
            assert len(C.decompose(N)) == len(C.decompose(N.plain()))
        assert [C.is_isomorphic(M, N) for M, N in pairs] == [True, True, False, False, True]


def _spy(monkeypatch, name):
    """Count the calls of calculus.<name> from here on."""
    calls = []
    real = getattr(C, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(C, name, spy)
    return calls


@pytest.mark.parametrize("degree", [1, 2])
class TestIsomorphismRoutes:
    """Each step of is_isomorphic decides some pair: an invertible basis
    map, an invertible sum of the basis maps, the dimension checks, or
    Krull-Schmidt on the decompositions (the only step that decomposes)."""

    def test_basis_map(self, degree, monkeypatch):
        # untagged, so that the Hom basis decides and not the band tags
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        lam = 1 if degree == 1 else OMEGA
        for m in (1, 2):
            M = band_module(b, lam, m, degree).plain()
            for i in range(1, len(b)):
                N = band_module(b.rotation(i), lam, m, degree).plain()
                assert any(h.is_invertible() for h in C.hom_basis(M, N))
                calls = _spy(monkeypatch, "decompose")
                assert C.is_isomorphic(M, N)
                assert calls == []
                monkeypatch.undo()

    def test_basis_sum(self, degree, monkeypatch):
        S0 = quiver_context(degree).simples[0]
        a = string_module(parse_word("gamma beta"), degree)
        b = band_module(parse_word("alpha beta- gamma-"), 1, 1, degree)
        M, N = direct_sum([S0, a, b]), direct_sum([b, S0, a])
        H = C.hom_basis(M, N)
        assert not any(h.is_invertible() for h in H)
        assert reduce(Mat.add, H).is_invertible()
        calls = _spy(monkeypatch, "decompose")
        assert C.is_isomorphic(M, N)
        assert calls == []

    def test_krull_schmidt(self, degree, monkeypatch):
        # Hom(S0 + S0, S0 + S0) is spanned by the four elementary matrices,
        # none invertible, and their sum has rank one
        S0 = quiver_context(degree).simples[0]
        M, N = direct_sum([S0, S0]), direct_sum([S0, S0])
        H = C.hom_basis(M, N)
        assert sorted(h.to_entries() for h in H) == sorted(_unit(S0.field, i, j, 2).to_entries() for i in (0, 1) for j in (0, 1))
        assert not reduce(Mat.add, H).is_invertible()
        calls = _spy(monkeypatch, "decompose")
        assert C.is_isomorphic(M, N)
        assert calls

    def test_non_isomorphic_pairs_of_equal_dimension(self, degree, monkeypatch):
        S0 = quiver_context(degree).simples[0]

        def strings(*texts):
            return [string_module(parse_word(t), degree) for t in texts]

        # dim End(M) = dim End(N) = dim Hom(N, M) = dim Hom(M, N) = 4, so
        # only Krull-Schmidt tells these apart
        M = direct_sum([S0] + strings("beta alpha beta-"))
        N = direct_sum(strings("beta", "alpha gamma"))
        assert M.dim == N.dim
        assert C.hom_dim(M, N) == C.hom_dim(N, M) == C.end_dim(M) == C.end_dim(N) == 4
        calls = _spy(monkeypatch, "decompose")
        assert not C.is_isomorphic(M, N)
        assert calls
        monkeypatch.undo()
        # here the End dimensions differ, which step 3 sees; plain copies,
        # which the tags do not decide.  Step 3 reads dim End, not an End
        # basis: the only Hom basis solved is that of Hom(M, N)
        a, ba = strings("gamma beta", "beta alpha")
        M, N = direct_sum([a, a]).plain(), direct_sum([a, ba]).plain()
        calls = _spy(monkeypatch, "decompose")
        bases = _spy(monkeypatch, "hom_basis")
        assert not C.is_isomorphic(M, N)
        assert calls == []
        assert [(X is M, Y is N) for X, Y in bases] == [(True, True)]

    def test_band_against_its_rotation_solves_one_hom_system(self, degree, monkeypatch):
        lam = 1 if degree == 1 else OMEGA
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        M, N = band_module(b, lam, 2, degree).plain(), band_module(b.rotation(1), lam, 2, degree).plain()
        calls = _spy(monkeypatch, "_hom_rows")
        assert C.is_isomorphic(M, N)
        assert [(X is M, Y is N) for X, Y in calls] == [(True, True)]

    def test_tagged_band_against_its_rotation_solves_no_hom_system(self, degree, monkeypatch):
        lam = 1 if degree == 1 else OMEGA
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        M, N = band_module(b, lam, 2, degree), band_module(b.rotation(1), lam, 2, degree)
        calls = _spy(monkeypatch, "_hom_rows")
        assert C.is_isomorphic(M, N) and C.indec_isomorphic(M, N)
        S = string_module(enumerate_strings(7)[-1], degree)  # dim 8, as M
        assert not C.is_isomorphic(M, S) and not C.indec_isomorphic(S, M)
        assert calls == []


def _sums_of_tagged_modules(degree):
    """Seeded pairs (M, N, leaves) of modules of equal dimension over
    GF(2^degree), with leaves the parts of M through nested sums, or None
    when a part is untagged: sums of two or three string and band modules
    (lambda in 1, omega, omega^2, m <= 3) against a permutation and against
    the sum with one part replaced, a nested sum, a sum with an untagged
    simple or projective, and pairs of equal dimension that only the
    lambdas, the multiplicity, a string or the multiplicity of a summand
    tell apart."""
    ctx = quiver_context(degree)
    rng = random.Random(60 + degree)
    lams = (1,) if degree == 1 else (1, OMEGA, OMEGA ^ 1)
    strings = enumerate_strings(4)
    bands = enumerate_bands(4)

    def draw():
        if rng.random() < 0.5:
            return string_module(rng.choice(strings), degree)
        return band_module(rng.choice(bands), rng.choice(lams), rng.randint(1, 3), degree)

    def same_dim(X):
        while True:
            Y = draw()
            if Y.dim == X.dim:
                return Y

    cases = []
    for _ in range(24):
        parts = [draw() for _ in range(rng.choice((2, 3)))]
        M = direct_sum(parts)
        perm = parts[1:] + parts[:1]
        cases.append((M, direct_sum(perm), parts))
        k = rng.randrange(len(parts))
        cases.append((M, direct_sum(parts[:k] + [same_dim(parts[k])] + parts[k + 1 :]), parts))
    a, b, c = draw(), draw(), draw()
    cases.append((direct_sum([direct_sum([a, b]), c]), direct_sum([c, a, b]), [a, b, c]))
    cases.append((direct_sum([direct_sum([a, b]), c]), direct_sum([direct_sum([b, same_dim(a)]), c]), [a, b, c]))
    for untagged in (ctx.simples[0], ctx.pims[1]):
        cases.append((direct_sum([a, untagged, b]), direct_sum([b, a, untagged]), None))
        cases.append((direct_sum([a, untagged]), direct_sum([same_dim(a), untagged]), None))
    S = string_module(strings[-1], degree)
    for band in bands[:3]:
        for lam in lams:
            B1 = band_module(band, lam, 1, degree)
            cases.append((direct_sum([B1, B1]), band_module(band, lam, 2, degree), [B1, B1]))
            if lam != 1:
                other = band_module(band, lam ^ 1, 1, degree)  # omega <-> omega^2
                cases.append((direct_sum([B1, S]), direct_sum([other, S]), [B1, S]))
    by_len = {}
    for s in strings:
        by_len.setdefault(len(s), []).append(string_module(s, degree))
    for same in by_len.values():
        for X, Y in zip(same, same[1:]):
            cases.append((direct_sum([X, S]), direct_sum([S, Y]), [X, S]))
            cases.append((direct_sum([X, X, Y]), direct_sum([X, Y, Y]), [X, X, Y]))
    return cases


@pytest.mark.parametrize("degree", [1, 2])
def test_sums_of_tagged_modules_against_the_matrix_route(degree, monkeypatch):
    # decompose and is_isomorphic read a sum of string and band modules off
    # the tags of its parts; on plain copies the same questions go through
    # _split and Hom, which are the oracle.  A sum of tagged modules reaches
    # no Hom basis, End included, and no _split, and its summands are its parts
    wrong = []
    seen = [0, 0]
    for M, N, leaves in _sums_of_tagged_modules(degree):
        assert M.dim == N.dim
        if leaves is not None:
            calls = [_spy(monkeypatch, name) for name in ("hom_basis", "_split")]
        found = C.decompose(M)
        iso = C.is_isomorphic(M, N)
        if leaves is not None:
            monkeypatch.undo()
            if any(calls):
                wrong.append(("solved", M, N))
            if len(found) != len(leaves) or any(U is not X for U, X in zip(found, leaves)):
                wrong.append(("not the parts", M))
        seen[iso] += 1
        PM, PN = M.plain(), N.plain()
        assert PM.cache == {} and PM.action is M.action and PM.label == M.label
        if iso != C.is_isomorphic(PM, PN):
            wrong.append(("is_isomorphic", M, N))
        oracle = C.decompose(PM)
        if sorted(U.dim for U in found) != sorted(V.dim for V in oracle):
            wrong.append(("dims", M))
            continue
        for U in found:
            hit = next((k for k, V in enumerate(oracle) if C.indec_isomorphic(V, U)), None)
            if hit is None:
                wrong.append(("summand", M, U))
                break
            oracle.pop(hit)
    assert wrong == []
    assert min(seen) >= 10, seen


def _base_changed(M, rng):
    """M in a seeded random basis: each generator g acts by P g P^-1."""
    P = _invertible(M.field, M.dim, rng)
    Pinv = P.inverse()
    return ModuleRep(M.algebra, M.dim, {g: P.mul(a).mul(Pinv) for g, a in M.action.items()}, label=f"P{M.label}P^-1")


@pytest.mark.parametrize("degree", [1, 2])
def test_is_isomorphic_to_a_random_base_change(degree):
    # the certificates on bases that are not block-aligned: pool modules
    # and sums of two or three of them against the same module in a seeded
    # random basis
    pool = _oracle_pool(degree)
    rng = random.Random(100 + degree)
    mods = list(pool)
    for _ in range(20):
        first = rng.choice(pool)
        same = [X for X in pool if X.algebra is first.algebra]
        mods.append(direct_sum([first] + rng.choices(same, k=rng.choice((1, 2)))))
    wrong = [M for M in mods if not C.is_isomorphic(M, _base_changed(M, rng))]
    assert wrong == []


def _nilpotent(field, n, rng):
    """A seeded strictly upper triangular n x n matrix."""
    return Mat.from_entries(field, [[rng.randrange(field.order) if c > r else 0 for c in range(n)] for r in range(n)])


def _invertible(field, n, rng):
    while True:
        f = Mat.from_entries(field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)])
        if f.is_invertible():
            return f


@pytest.mark.parametrize("degree", [1, 2])
def test_fitting_power_is_the_power_two_to_the_k(degree):
    # nilpotent, invertible, mixed (a nilpotent block and an invertible
    # block) and zero, each in a seeded random basis
    lam = quiver_context(degree)
    field = lam.field
    rng = random.Random(degree)
    for n in range(1, 10):
        k = (n - 1).bit_length()  # the least k with 2^k >= n
        for _ in range(6):
            cut = rng.randrange(1, n) if n > 1 else 1
            blocks = [
                _nilpotent(field, n, rng),
                _invertible(field, n, rng),
                block_diag([_nilpotent(field, cut, rng), _invertible(field, n - cut, rng)]) if n > 1 else Mat.zeros(field, 1, 1),
                Mat.zeros(field, n, n),
            ]
            P = _invertible(field, n, rng)
            Pinv = P.inverse()
            for f in blocks:
                f = P.mul(f).mul(Pinv)
                assert C._fitting_power(f) == f.power(2**k), (n, f.to_entries())


def _quotient_cases(degree):
    """(M, rows) over GF(2^degree): the socle, the radical and the image
    of each End(M) basis map of Lambda modules, of the kS4 (and over GF(4)
    kA4) standard reps and of the group PIMs."""
    mods = _oracle_modules(degree) + list(standard_reps(degree).values())
    for name in ("S4", "A4") if degree == 2 else ("S4",):  # A4 needs GF(4)
        mods += list(group_context(name, degree).pims)
    for M in mods:
        yield M, C.socle_rows(M)
        yield M, C.rad_rows(M)
        for f in C.hom_basis(M, M):
            yield M, f.column_space()


class TestQuotients:
    """M/U as D of the annihilator of U in D(M), against elimination with a
    section (oracles.quotient_module_section)."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_against_the_section_route(self, degree):
        contexts = set()
        for M, rows in _quotient_cases(degree):
            Q = C.quotient_module(M, rows, label="Q")
            old = quotient_module_section(M, rows)
            assert Q.label == "Q" and Q.dim == old.dim == M.dim - rows.rank(), M
            if M.algebra.elements is None:
                _assert_relations(Q)
            else:
                _assert_is_representation(M.algebra, Q)
            assert C.is_isomorphic(Q.plain(), old.plain()), (M, rows)
            contexts.add(M.algebra.name)
        assert contexts == ({"Lambda", "kS4", "kA4"} if degree == 2 else {"Lambda", "kS4"})

    def test_span_that_is_not_invariant(self):
        M = string_module(parse_word("gamma beta"))
        top = Mat(M.field, 1, M.dim, [1 << 2])  # the top basis vector alone
        assert C.socle_rows(M).row_space() != top
        with pytest.raises(DimensionMismatch, match="not invariant"):
            C.quotient_module(M, top)
        with pytest.raises(DimensionMismatch, match="not invariant"):
            quotient_module_section(M, top)


class TestExtensions:
    def test_uniserial_s00(self, lam):
        S0 = lam.simples[0]
        E = C.nonsplit_extension(S0, S0)
        assert E.dim == 2
        assert C.radical_series(E) == [[1, 0], [1, 0]]

    def test_split_only_error(self, ks4):
        # over the group algebra there is no self-extension of the
        # length-2 uniserial on the 2-dim simple
        T1 = ks4.simples[1]
        T11 = C.nonsplit_extension(T1, T1)
        with pytest.raises(SplitOnly):
            C.nonsplit_extension(T11, T11)

    def test_extension_is_nonsplit(self, lam):
        S0, S1 = lam.simples
        E = C.nonsplit_extension(S0, S1)
        assert len(C.decompose(E)) == 1


class TestStructure:
    def test_p1_picture(self, lam):
        info = C.structure(lam.pims[1])
        assert info["radical_series"] == [[0, 1], [1, 1], [1, 0], [0, 1]]

    def test_uniserial_x1(self, lam):
        info = C.structure(string_module(parse_word("beta alpha")))
        assert info["radical_series"] == [[1, 0], [1, 0], [0, 1]]

    def test_simple(self, lam):
        info = C.structure(lam.simples[0])
        assert info["radical_series"] == [[1, 0]]
        assert info["socle_series"] == [[1, 0]]

    def test_socle_series_of_projective(self, lam):
        assert C.socle_series(lam.pims[0]) == [[1, 0], [1, 1], [1, 1], [1, 0]]


class TestProjectiveHandling:
    def test_syzygy_absorbs_projective_summands(self, lam):
        # Omega(M + P) = Omega(M): covers do not see projective summands
        M = string_module(parse_word("gamma beta"))
        assert C.is_isomorphic(
            C.syzygy(direct_sum([M, lam.pims[1]])), C.syzygy(M)
        )

    def test_stable_end_of_projective_is_zero(self, lam):
        assert C.stable_end_dim(lam.pims[1]) == 0


class TestEndSolvedOnce:
    """hom_dim(M, M) solves End(M) once per module, and stable_end_dim and
    ext1_dim share that solve."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_against_a_plain_copy_before_and_after_the_end_basis(self, degree):
        for basis_first in (False, True):
            # built anew for each order, so that their caches start cold
            mods = _oracle_modules(degree) + [string_module(s, degree) for s in enumerate_strings(6)]
            for M in mods:
                P = M.plain()
                if basis_first:
                    assert len(C.hom_basis(M, M)) == C.hom_dim(M, M) == C.hom_dim(P, P), M
                else:
                    assert C.hom_dim(M, M) == C.hom_dim(P, P), M
                    assert len(C.hom_basis(M, M)) == C.hom_dim(M, M) == C.hom_dim(P, P), M

    def test_a_string_item_solves_five_hom_systems(self, monkeypatch):
        # the c03/c06 loop: Hom(M, S_i) for each simple, End(M), Hom(M, O M)
        # and Hom(O M, M); End(M) is read by both
        calls = _spy(monkeypatch, "_hom_rows")
        strings = [s for s in enumerate_strings(6) if s.letters]
        for s in strings:
            M = string_module(s)
            del calls[:]
            C.stable_end_dim(M)
            C.ext1_dim(M, M)
            O = C.syzygy(M)
            assert O.dim and len(calls) == 5, s.text()
            assert [(X is M, Y is M) for X, Y in calls].count((True, True)) == 1, s.text()

    def test_the_tower_solves_no_hom_pair_twice(self, monkeypatch):
        extension_tower(4, 1)  # PermRep's cover and its maps to the simples, cached on it
        calls = _spy(monkeypatch, "_hom_rows")
        extension_tower(4, 1)
        # each step: Hom(PermRep, V) for the hypothesis, then the
        # coboundaries and the cocycles that give both Ext^1 and V_n
        assert [M.label for M, _ in calls] == ["PermRep", "P(PermRep)", "O(PermRep)"] * 4
        assert len({(id(M), id(N)) for M, N in calls}) == len(calls)

    def test_tops_after_a_cover_solve_the_two_top_systems(self, monkeypatch):
        # the tops have one route, hom_dim(M, S_i), whether or not a cover
        # has solved the Hom(M, S_i) bases
        M = perm_module().plain()
        C.projective_cover(M)
        calls = _spy(monkeypatch, "_hom_rows")
        assert C.top_multiplicities(M) == [1, 0]
        assert calls == [(M, S) for S in M.algebra.simples]


def test_syzygy_refuses_a_step_count_that_is_not_an_int():
    # in a fresh interpreter, with a timeout: a count of 1.5 could swing
    # between 0.5 and -0.5 for ever
    code = (
        "from stringalg import calculus as C\n"
        "from stringalg.errors import ParseError\n"
        "from stringalg.modules import string_module\n"
        "from stringalg.words import make_string\n"
        "M = string_module(make_string('alpha'))\n"
        "for N in (M, M.plain()):\n"
        "    for steps in (1.5, 2.0, -0.5, True):\n"
        "        try:\n"
        "            C.syzygy(N, steps)\n"
        "        except ParseError:\n"
        "            print('ParseError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("syzygy did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ParseError"] * 8
