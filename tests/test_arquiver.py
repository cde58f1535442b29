import pytest

from stringalg import calculus as C
from stringalg.arquiver import (
    ar_neighbors,
    classify,
    component_json,
    component_kind,
    component_window,
    export_dot,
    syzygy_string,
    three_tube_boundary,
    tube_rank,
)
from stringalg.errors import LimitExceeded, ParseError, Undecided
from stringalg.modules import string_module
from stringalg.words import String, enumerate_strings, is_inverse, make_string, mirror_string, parse_word, word_flaw


class TestNeighbors:
    def test_hook_neighbor_of_loop_inverse(self):
        nb = ar_neighbors(make_string("alpha-"))
        texts = [t.text() for t in nb["successors"]]
        assert make_string("alpha- gamma eta-").text() in texts

    def test_boundary_module_has_single_neighbors(self):
        nb = ar_neighbors(make_string("eta"))
        assert len(nb["successors"]) == 1
        assert len(nb["predecessors"]) == 1

    def test_empty_string_neighbor_dims(self):
        # dimensions add up along the almost split sequences
        # 0 -> M -> E -> Omega^-2 M -> 0 and 0 -> Omega^2 M -> E' -> M -> 0
        # (tau = Omega^2, the algebra being symmetric).  E is the
        # successors plus P(v) when M = rad P(v) = Omega(1_v); E' is the
        # predecessors plus P(v) when M = P(v)/soc P(v) = Omega^-1(1_v)
        projective = {}
        for v in (0, 1):
            simple = String((), v)
            dim_p = C.projective_cover(string_module(simple))[0].dim
            projective[syzygy_string(simple, 1), "successors"] = dim_p
            projective[syzygy_string(simple, -1), "predecessors"] = dim_p
            nb = ar_neighbors(simple)
            assert len(nb["successors"]) == len(nb["predecessors"]) == 2
        for s in enumerate_strings(10):
            M = string_module(s)
            nb = ar_neighbors(s)
            for side, step in (("successors", -2), ("predecessors", 2)):
                middle = sum(len(t.letters) + 1 for t in nb[side])
                middle += projective.get((s, side), 0)
                assert middle == M.dim + C.syzygy(M.plain(), step).dim, (s.text(), side)

    def test_edge_duality(self):
        # every successor edge is matched by a predecessor edge seen from
        # the other end
        for text in ("1_0", "alpha-", "gamma beta", "alpha beta- gamma-"):
            s = make_string(text)
            for t in ar_neighbors(s)["successors"]:
                assert s in ar_neighbors(t)["predecessors"], (text, t.text())
            for t in ar_neighbors(s)["predecessors"]:
                assert s in ar_neighbors(t)["successors"], (text, t.text())


class TestSyzygyStrings:
    def test_syzygy_of_vertex_strings(self):
        assert len(syzygy_string(String((), 0)).letters) == 4  # dim 5
        assert len(syzygy_string(String((), 1)).letters) == 3  # dim 4

    def test_matches_module_computation(self):
        # the module route is the oracle: M(Omega^{+-1}(S)) is the module
        # syzygy (cosyzygy) of M(S), through the cover of an untagged
        # copy, for every string of length <= 12
        for s in enumerate_strings(12):
            M = string_module(s).plain()
            for step in (1, -1):
                t = syzygy_string(s, step)
                assert C.indec_isomorphic(
                    string_module(t), C.syzygy(M, step)
                ), (s.text(), step, t.text())

    def test_word_rules_build_valid_words(self):
        # syzygy_word, mirror_string and ar_neighbors canonicalise without
        # re-checking their words; the check is kept here, over every
        # string <= 12
        for s in enumerate_strings(12):
            nb = ar_neighbors(s)
            built = [syzygy_string(s, 1), syzygy_string(s, -1), mirror_string(s)]
            built += nb["successors"] + nb["predecessors"]
            for t in built:
                assert word_flaw(t.letters) is None, (s.text(), t.text())
                assert String.from_word(t.word) == t, (s.text(), t.text())

    @pytest.mark.parametrize("power", [2.0, 1.5, 1e9, False])
    def test_a_power_that_is_not_an_int_is_refused(self, power):
        # before the bound on |power|, which 1e9 exceeds
        with pytest.raises(ParseError, match="must be an int"):
            syzygy_string(make_string("alpha"), power)

    def test_round_trip(self):
        for s in enumerate_strings(10):
            for k in (1, 2):
                assert syzygy_string(syzygy_string(s, k), -k) == s
                assert syzygy_string(syzygy_string(s, -k), k) == s

    def test_tube_rank_matches_module_period(self):
        # the least r with tau^r M = M, tau = Omega^2, on modules
        for s in enumerate_strings(8):
            M = string_module(s).plain()
            period = next(
                (r for r in (1, 2, 3) if C.indec_isomorphic(C.syzygy(M, 2 * r), M)),
                None,
            )
            assert tube_rank(s) == period, s.text()


class TestMesh:
    def test_translate_matches_hook_calculus(self):
        # the algebra is symmetric, so tau = Omega^2: the predecessors of
        # M(S) are the successors of tau M(S) in the stable quiver
        for s in enumerate_strings(10):
            tau = syzygy_string(s, 2)
            assert ar_neighbors(s)["predecessors"] == ar_neighbors(tau)["successors"], s.text()


class TestTubes:
    def test_boundary_strings(self):
        boundary = three_tube_boundary()
        texts = {b.text() for b in boundary}
        assert texts == {"beta alpha", "alpha gamma", "eta"}

    def test_period_three(self):
        boundary = three_tube_boundary()
        assert syzygy_string(boundary[2]) == boundary[0]

    def test_boundary_matches_radical_series(self):
        # the word rule against the module calculus: a string of direct
        # letters has its vertices, read from the right end, as radical
        # layers, and the length-2 strings with layers S0, S0, S1 are
        # exactly the first boundary string
        for s in enumerate_strings(6):
            if s.letters and not any(is_inverse(letter) for letter in s.letters):
                layers = [[int(v == 0), int(v == 1)] for v in s.word.vertices()[::-1]]
                assert C.radical_series(string_module(s)) == layers, s.text()
        mouth = [
            s
            for s in enumerate_strings(2)
            if len(s.letters) == 2 and C.radical_series(string_module(s)) == [[1, 0], [1, 0], [0, 1]]
        ]
        assert mouth == three_tube_boundary()[:1]

    def test_tube_ranks(self):
        assert tube_rank(three_tube_boundary()[0]) == 3
        assert tube_rank(make_string("beta- gamma-")) == 1
        assert tube_rank(String((), 0)) is None


class TestWindows:
    def test_radius_guard(self):
        for radius in (-1, 9):
            with pytest.raises(LimitExceeded):
                component_window(String((), 0), radius)
            with pytest.raises(LimitExceeded):
                classify(String((), 0), radius)

    @pytest.mark.parametrize("radius", [True, False, 1.5, 2.0, "2"])
    def test_a_radius_that_is_not_an_int_is_refused(self, radius):
        # True built a window of radius True, 1.5 failed inside the walk,
        # and classify reached the walk only for some strings
        for s in (String((), 0), three_tube_boundary()[0], make_string("beta- gamma-")):
            with pytest.raises(ParseError, match="must be an int"):
                component_window(s, radius)
            with pytest.raises(ParseError, match="must be an int"):
                classify(s, radius)

    def test_figure_window_contents(self):
        comp = component_window(String((), 1), 2)
        assert make_string("alpha") in comp.nodes  # the uniserial S0,S0
        target = C.syzygy(string_module(parse_word("alpha- gamma eta-")).plain())
        assert any(
            len(t.letters) + 1 == target.dim
            and C.indec_isomorphic(target, string_module(t))
            for t in comp.nodes
        )

    def test_deterministic_dot(self):
        a = export_dot(component_window(String((), 1), 2))
        b = export_dot(component_window(String((), 1), 2))
        assert a == b
        assert a.startswith("digraph")

    def test_component_json(self):
        # the kind is the seed's, with no set-up by the caller
        for text in ("1_0", "1_1", "eta", "beta alpha", "beta- gamma-", "alpha beta- gamma-"):
            seed = make_string(text)
            comp = component_window(seed, 1)
            data = component_json(comp)
            assert data["seed"] == seed.text()
            assert data["kind"] == component_kind(seed)
            assert [n["string"] for n in data["nodes"]] == [t.text() for t in comp.node_list()]


class TestClassification:
    def test_known_families(self):
        assert classify(make_string("alpha beta- gamma- alpha beta- gamma-")) == "s0-family"
        assert classify(String((), 1)) == "s1-family"
        assert classify(three_tube_boundary()[0]) == "tube-boundary"
        assert classify(make_string("beta- gamma-")) == "outside"
        assert classify(make_string("beta alpha beta- eta")) == "outside"  # tube interior

    def test_mirror_images_classified_alike(self):
        s = make_string("alpha- gamma beta")
        assert classify(s) == classify(mirror_string(s)) == "s0-family"

    def test_undecided_with_tiny_radius(self):
        # a string far out in a plain sheet cannot be located with radius 0
        with pytest.raises(Undecided):
            classify(make_string("alpha beta- gamma-"), radius=0)


class TestMirrorWindowInvariant:
    def test_stable_end_multisets_match_under_mirror(self):
        # windows around a string and its arrow-swap mirror carry the
        # same multiset of stable endomorphism dimensions
        s = make_string("alpha beta- gamma-")
        m = mirror_string(s)
        for seed_pair in ((s, m),):
            a, b = seed_pair
            wa = component_window(a, 2)
            wb = component_window(b, 2)
            da = sorted(C.stable_end_dim(string_module(t)) for t in wa.nodes)
            db = sorted(C.stable_end_dim(string_module(t)) for t in wb.nodes)
            assert da == db


class TestComponentKind:
    def test_kinds(self):
        from stringalg.arquiver import component_kind

        assert component_kind(make_string("beta alpha")) == "tube(3)"
        assert component_kind(make_string("beta- gamma-")) == "tube(1)"
        assert component_kind(String((), 0)) == "za-infinity-infinity"


class TestTubeDichotomy:
    def test_stable_end_one_exactly_on_the_boundary(self):
        # within the rank-3 tube, stable endomorphism ring k occurs
        # exactly at depth 1; deeper rows have strictly larger dimension
        boundary = set(three_tube_boundary())
        seed = sorted(boundary, key=lambda s: s.letters)[0]
        win = component_window(seed, 3)
        for t in win.nodes:
            se = C.stable_end_dim(string_module(t))
            assert (se == 1) == (t in boundary), (t.text(), se)
