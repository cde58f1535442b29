import random
import types

import pytest

from stringalg import calculus as C
from stringalg import groupside
from stringalg.algebra import AlgebraContext, _assert_is_representation, _group_pims, group_context
from stringalg.errors import (
    ContextMismatch,
    FieldTooSmall,
    HypothesisFailed,
    LimitExceeded,
    NotInvolution,
    ParseError,
    SplitFailure,
)
from stringalg.gf import OMEGA
from stringalg.matrix import Mat
from stringalg.groupside import (
    extension_tower,
    induce,
    involution_profile,
    is_free_rank_one_over_c2,
    perm_module,
    restrict,
    standard_reps,
)
from stringalg.modules import string_module
from stringalg.rep import ModuleRep, direct_sum
from stringalg.words import parse_word

from oracles import ext1_dim_cocycles, is_free_rank_one_over_c2_restricted


@pytest.fixture(scope="module")
def reps():
    return standard_reps(1)


@pytest.fixture(scope="module")
def reps4():
    return standard_reps(2)


@pytest.fixture(scope="module")
def tower():
    return extension_tower(5)


class TestStandardReps:
    def test_perm_module_is_the_uniserial(self, reps):
        M = reps["PermRep"]
        assert M.dim == 4
        assert len(C.decompose(M)) == 1
        assert C.radical_series(M) == [[1, 0], [0, 1], [1, 0]]
        # same shape as the quiver-side string module on gamma.beta
        lam_side = string_module(parse_word("gamma beta"))
        assert C.radical_series(lam_side) == [[1, 0], [0, 1], [1, 0]]

    def test_perm_module_is_built_once_per_field(self, reps, reps4):
        assert perm_module() is perm_module(1) is reps["PermRep"] is standard_reps(1)["PermRep"]
        assert perm_module(2) is reps4["PermRep"] is not perm_module(1)

    def test_uniserial_extensions(self, reps):
        assert reps["T00"].dim == 2
        assert reps["T11"].dim == 4
        assert C.radical_series(reps["T11"]) == [[0, 1], [0, 1]]

    def test_e_modules_need_gf4(self):
        with pytest.raises(FieldTooSmall):
            group_context("A4", 1)

    def test_e_modules_need_a_cube_root_of_unity(self):
        # GF(2^d) has an element of order 3 iff d is even
        with pytest.raises(FieldTooSmall):
            group_context("A4", 3)
        ctx = group_context("A4", 4)
        # omega is the least element of order 3; in GF(4) it is OMEGA
        assert [S.action["u"].entry(0, 0) for S in ctx.simples] == [1, 6, 7]
        assert [S.action["u"].entry(0, 0) for S in group_context("A4", 2).simples] == [1, OMEGA, OMEGA ^ 1]
        assert [P.dim for P in ctx.pims] == [4, 4, 4]

    def test_e12_sequence(self, reps4):
        E12 = reps4["E12"]
        assert E12.dim == 2
        # socle E2, top E1
        assert C.socle_series(E12)[0] == [0, 0, 1]
        assert C.top_multiplicities(E12) == [0, 1, 0]


class TestGroupWords:
    def test_word_matrix(self, reps):
        M = reps["PermRep"]
        assert M.word_matrix(()) == Mat.identity(M.field, M.dim)
        assert M.word_matrix(("s", "t")) == M.action["s"].mul(M.action["t"])

    def test_pims_are_refused_when_a_simple_is_missing(self):
        # a fresh context over the regular module of S4 that knows only T0
        full = group_context("S4", 1)
        ctx = AlgebraContext(full.name, full.field, full.gen_names)
        ctx.regular = ModuleRep(ctx, full.regular.dim, full.regular.action, label=full.regular.label)
        ctx.simples = [ModuleRep(ctx, 1, full.simples[0].action, label="T0")]
        with pytest.raises(SplitFailure, match=r"a summand of the regular module has top \[0\]"):
            _group_pims(ctx)


class TestRestriction:
    def test_t00_restricts_free(self, reps):
        assert is_free_rank_one_over_c2(reps["T00"])

    def test_t1_restricts_free(self, reps):
        assert is_free_rank_one_over_c2(reps["T1"])

    def test_trivial_restricts_trivially(self, reps):
        assert involution_profile(reps["T0"]) == (1, 0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_free_rank_one_against_the_restriction(self, degree):
        ks4 = group_context("S4", degree)
        reps = [M for M in standard_reps(degree).values() if M.algebra is ks4]
        mods = reps + extension_tower(3, degree) + list(ks4.pims) + [ks4.regular]
        mods += [C.syzygy(M, step) for M in reps for step in (1, -1)]
        answers = [is_free_rank_one_over_c2(M) for M in mods]
        assert answers == [is_free_rank_one_over_c2_restricted(M) for M in mods]
        assert True in answers and False in answers

    def test_restriction_to_a4_of_t1(self, reps4):
        res = restrict(reps4["T1"], "A4")
        parts = C.decompose(res)
        labels = sorted(
            next(S.label for S in res.algebra.simples if C.is_isomorphic(p, S))
            for p in parts
        )
        assert labels == ["E1", "E2"]


class TestInduction:
    def test_induce_character(self, reps4):
        assert C.is_isomorphic(induce(reps4["E1"]), reps4["T1"])

    def test_induce_uniserial(self, reps4):
        assert C.is_isomorphic(induce(reps4["E12"]), reps4["T11"])

    def test_induced_modules_are_representations(self, reps4):
        s4 = group_context("S4", 2)
        for M in [reps4[name] for name in ("E0", "E1", "E2", "E12")] + [group_context("A4", 2).regular]:
            _assert_is_representation(s4, induce(M))

    def test_frobenius_reciprocity(self, reps4):
        rng = random.Random(9)
        a4 = group_context("A4", 2)
        s4 = group_context("S4", 2)
        pool_a4 = [
            reps4["E0"], reps4["E1"], reps4["E2"], reps4["E12"],
            a4.pims[0], C.syzygy(reps4["E12"]),
        ]
        pool_s4 = [reps4["T0"], reps4["T1"], reps4["T11"], reps4["T00"], s4.pims[1]]
        for _ in range(10):
            U = rng.choice(pool_a4)
            V = rng.choice(pool_s4)
            assert C.hom_dim(induce(U), V) == C.hom_dim(U, restrict(V, "A4"))


class TestInvolutionProfiles:
    def test_tower_profiles(self, tower):
        for n, v in enumerate(tower):
            a, b = involution_profile(v)
            assert (a, b) == (1, 2 * n)
            assert a + 2 * b == v.dim

    def test_projective_plus_uniserial(self, reps):
        ks4 = group_context("S4", 1)
        for n in (1, 2, 3):
            En = direct_sum([ks4.pims[0]] * n + [reps["T00"]])
            assert involution_profile(En) == (0, 4 * n + 1)


class TestTower:
    def test_dims(self, tower):
        assert [v.dim for v in tower] == [1, 5, 9, 13, 17, 21]

    def test_second_tower_solves_no_hom_system_from_the_perm_module_to_a_simple(self, monkeypatch):
        extension_tower(3, 1)
        calls = []
        real = C._hom_rows
        monkeypatch.setattr(C, "_hom_rows", lambda M, N: calls.append((M, N)) or real(M, N))
        extension_tower(3, 1)
        simples = group_context("S4", 1).simples
        assert calls
        assert not [N for M, N in calls if M.label == "PermRep" and any(N is S for S in simples)]

    def test_hypotheses_checked(self, tower):
        M = perm_module()
        for n in range(1, len(tower)):
            assert C.hom_dim(M, tower[n - 1]) == n
            assert C.ext1_dim(M, tower[n - 1]) == 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("hom_dim", r"^dim Hom\(PermRep, V_0\) = 2, expected 1$"),
            ("_extension", r"^dim Ext\^1\(PermRep, V_0\) = 2, expected 1$"),
        ],
    )
    def test_a_failed_hypothesis_stops_the_tower(self, monkeypatch, name, message):
        # the calculus as extension_tower sees it, with one count one too
        # high (of Ext^1, the first entry of _extension); the calculus
        # itself, and what it caches, stay exact
        real = getattr(C, name)

        def bumped(M, N):
            out = real(M, N)
            return out + 1 if name == "hom_dim" else (out[0] + 1, *out[1:])

        seen = types.SimpleNamespace(**vars(C))
        setattr(seen, name, bumped)
        monkeypatch.setattr(groupside, "calculus", seen)
        with pytest.raises(HypothesisFailed, match=message):
            extension_tower(2)

    def test_stable_end_and_self_ext(self, tower):
        for n in (1, 2, 3):
            assert C.stable_end_dim(tower[n]) == 1
            assert C.ext1_dim(tower[n], tower[n]) == 1

    def test_composition_profile(self, tower):
        # V_n has 2n+1 trivial factors and n copies of the 2-dim simple
        for n, v in enumerate(tower):
            assert C.composition_multiplicities(v) == [2 * n + 1, n]

    def test_bound(self):
        with pytest.raises(LimitExceeded):
            extension_tower(7)


class TestMoritaPairs:
    def test_stable_and_ext_match_across_the_equivalence(self, reps, tower):
        # paired modules on the two sides: equal stable-endo and self-ext
        pairs = [
            (string_module(parse_word("alpha")), reps["T00"]),        # S00 ~ T00
            (string_module(parse_word("eta")), reps["T11"]),          # uniserial S1,S1 ~ T11
            (string_module(parse_word("gamma beta")), reps["PermRep"]),
            (string_module(parse_word("alpha beta- gamma-")), tower[1]),
        ]
        for lam_side, group_side in pairs:
            assert C.stable_end_dim(lam_side) == C.stable_end_dim(group_side)
            assert C.ext1_dim(lam_side, lam_side) == C.ext1_dim(group_side, group_side)

    def test_ext_routes_agree_on_tower_steps(self, tower):
        M = perm_module()
        for n in (1, 2, 3):
            assert (
                C.ext1_dim(M, tower[n - 1])
                == ext1_dim_cocycles(M, tower[n - 1])
                == 1
            )


class TestTypedErrors:
    """Calls outside the documented domain raise a StringAlgError, never a
    bare KeyError or AttributeError."""

    def test_unknown_group_is_a_parse_error_that_lists_the_known_groups(self):
        with pytest.raises(ParseError, match="S4, A4, C2"):
            group_context("S5")

    def test_restriction_to_an_unknown_group(self, reps):
        with pytest.raises(ParseError, match="S5"):
            restrict(reps["T0"], "S5")

    def test_restriction_to_a_group_that_is_no_subgroup(self, reps4):
        # the generators of S4 are odd and A4 holds only even permutations
        with pytest.raises(ContextMismatch, match="not a subgroup"):
            restrict(reps4["E12"], "S4")
        with pytest.raises(ContextMismatch, match="not a subgroup"):
            restrict(reps4["E12"], "C2")

    def test_restriction_of_a_quiver_module(self):
        with pytest.raises(ContextMismatch, match="not over a group"):
            restrict(string_module(parse_word("alpha")), "C2")

    def test_involution_profile_of_a_quiver_module(self):
        with pytest.raises(ContextMismatch, match="not over a group"):
            involution_profile(string_module(parse_word("alpha")))

    def test_free_rank_one_test_of_a_quiver_module(self):
        with pytest.raises(ContextMismatch, match="not over a group"):
            is_free_rank_one_over_c2(string_module(parse_word("alpha")))

    def test_induction_from_a_group_other_than_a4(self, reps):
        with pytest.raises(ContextMismatch, match="from kA4 only"):
            induce(reps["T1"])

    def test_free_rank_one_test_of_an_a4_module(self, reps4):
        # A4 holds no transposition
        with pytest.raises(NotInvolution, match="does not contain h"):
            is_free_rank_one_over_c2(reps4["E12"])

    def test_negative_tower_bound(self):
        with pytest.raises(LimitExceeded):
            extension_tower(-1)
        assert len(extension_tower(0)) == 1
