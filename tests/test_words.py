import copy
import itertools
import pickle

import pytest

from stringalg.errors import (
    ForbiddenSubword,
    LimitExceeded,
    NotComposable,
    ParseError,
)
from stringalg.words import (
    ALPHA,
    ARMS,
    BETA,
    ETA,
    GAMMA,
    INV,
    MIRROR_ARROW,
    Band,
    String,
    Word,
    _LEGAL_RUNS,
    _band_canonical,
    _extensions,
    _runs,
    add_hook,
    band_flaw,
    empty_word,
    enumerate_bands,
    enumerate_strings,
    e_of,
    inv_letter,
    is_band,
    make_string,
    mirror_string,
    parse_word,
    remove_hook,
    s_of,
    syzygy_word,
    top_socle_decomposition,
    word_flaw,
)

from oracles import all_words_upto, enumerate_bands_scan, enumerate_strings_scan

# README's relations, transcribed as oracles for what words derives from
# ARMS: the minimal forbidden paths J (arrow tuples as written, the leftmost
# acting last) and the legal top-socle pieces of a band (inverse letters)
J_SET = {
    (ALPHA, ALPHA),
    (ETA, BETA),
    (BETA, GAMMA),
    (GAMMA, ETA),
    (ETA, ETA),
    (GAMMA, BETA, ALPHA),
    (ALPHA, GAMMA, BETA),
    (BETA, ALPHA, GAMMA),
}

TOP_SOCLE_PIECES = {
    (ALPHA | INV,),
    (BETA | INV,),
    (GAMMA | INV,),
    (ETA | INV,),
    (ALPHA | INV, BETA | INV),
    (BETA | INV, GAMMA | INV),
    (GAMMA | INV, ALPHA | INV),
}


def run_forbidden(letters, start, length, invflag):
    """Does the run contain a path of J (after orienting)?"""
    arrows = tuple(l & 3 for l in letters[start : start + length])
    if invflag:
        arrows = arrows[::-1]
    return any(arrows[k : k + ln] in J_SET for ln in (2, 3) for k in range(len(arrows) - ln + 1))


class TestArms:
    """ARMS is the one statement of Lambda's relations in words: it must be
    a consistent one, and say what J says."""

    ARM_LIST = [(v, arm) for v, pair in ARMS.items() for arm in pair]

    def test_each_arm_is_a_walk_from_and_to_its_vertex(self):
        for v, arm in self.ARM_LIST:
            # in the order of action: each arrow starts where the last ended
            assert s_of(arm[0]) == v and e_of(arm[-1]) == v, arm
            assert all(e_of(a) == s_of(b) for a, b in zip(arm, arm[1:])), arm

    def test_every_arrow_starts_exactly_one_arm(self):
        assert sorted(arm[0] for _, arm in self.ARM_LIST) == [ALPHA, BETA, GAMMA, ETA]

    def test_minimal_illegal_paths_are_j(self):
        # a path as written is a direct run: legal when it is in _LEGAL_RUNS;
        # minimal when every proper subpath is legal
        minimal = set()
        for n in (2, 3):
            for path in itertools.product(range(4), repeat=n):
                if path in _LEGAL_RUNS or any(s_of(a) != e_of(b) for a, b in zip(path, path[1:])):
                    continue
                subpaths = [path[i:j] for i in range(n) for j in range(i + 1, n + 1) if j - i < n]
                if all(sub in _LEGAL_RUNS for sub in subpaths):
                    minimal.add(path)
        assert minimal == J_SET

    def test_mirror_takes_each_arm_to_an_arm_at_its_vertex(self):
        for v, arm in self.ARM_LIST:
            assert tuple(MIRROR_ARROW[a] for a in reversed(arm)) in ARMS[v], arm


class TestParsing:
    def test_s0011_word(self):
        s = make_string("alpha- gamma eta-")
        assert len(s) == 3

    def test_square_is_forbidden(self):
        with pytest.raises(ForbiddenSubword):
            make_string("alpha alpha")

    def test_empty_at_vertex_zero(self):
        s = make_string("1_0")
        assert s.letters == () and s.vertex == 0

    def test_endpoint_mismatch(self):
        with pytest.raises(NotComposable):
            make_string("beta eta")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_word("delta")

    def test_reduced_rule(self):
        with pytest.raises(ForbiddenSubword):
            make_string("alpha alpha-")


class TestBands:
    def test_known_band(self):
        assert is_band(parse_word("eta- beta alpha- gamma"))

    def test_eta_inverse_is_not_a_band(self):
        # the square of its inverse contains the loop relation
        assert not is_band(parse_word("eta-"))

    def test_three_letter_band(self):
        assert is_band(parse_word("alpha- gamma beta"))

    def test_power_is_not_primitive(self):
        w = parse_word("alpha beta- gamma- alpha beta- gamma-")
        assert not is_band(w)

    def test_noncyclic_word_rejected(self):
        assert not is_band(parse_word("alpha- gamma"))


class TestBandCanonical:
    """_band_canonical: the least rotation of a band word or of its
    inverse, and which of the two it came from."""

    def test_every_rotation_of_either_orientation(self):
        for b in enumerate_bands(12):
            for i in range(len(b)):
                for w, flipped in ((b.rotation(i), False), (b.rotation(i).inverse(), True)):
                    assert _band_canonical(w.letters) == (b.letters, flipped), w.text()
                    assert Band.from_word(w).letters == b.letters, w.text()

    def test_no_band_is_a_rotation_of_its_inverse(self):
        # so the orientation of the least rotation is well defined
        for b in enumerate_bands(16):
            flipped = b.word.inverse().letters
            assert flipped not in {b.rotation(i).letters for i in range(len(b))}, b.text()


def least_rotation(letters):
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


class TestBandSyzygyWords:
    """Omega of a band module read off the cyclic word; the module route
    is checked in test_calculus."""

    BANDS = enumerate_bands(14)

    def test_syzygy_of_every_band_is_a_band(self):
        # band_module would raise ForbiddenSubword on a bad word, and so
        # would Omega; none is raised up to the bound
        for b in self.BANDS:
            for i in range(len(b)):
                for w in (b.rotation(i), b.rotation(i).inverse()):
                    assert band_flaw(syzygy_word(w)) is None, w.text()

    def test_rotation_and_inversion_commute_with_syzygy(self):
        for b in self.BANDS:
            omega = least_rotation(syzygy_word(b.word).letters)
            flipped = least_rotation(syzygy_word(b.word).inverse().letters)
            for i in range(len(b)):
                assert least_rotation(syzygy_word(b.rotation(i)).letters) == omega, b.text()
                assert least_rotation(syzygy_word(b.rotation(i).inverse()).letters) == flipped, b.text()

    def test_double_syzygy_is_a_rotation(self):
        # band modules lie in homogeneous tubes: tau = Omega^2 fixes
        # M(B, lambda, m), so it keeps B up to rotation, orientation included
        for b in self.BANDS:
            assert least_rotation(syzygy_word(syzygy_word(b.word)).letters) == least_rotation(b.letters), b.text()


class TestEnumeration:
    def test_empty_strings(self):
        assert [s.text() for s in enumerate_strings(0)] == ["1_0", "1_1"]

    def test_single_letters(self):
        # single letters are identified with their inverses
        assert [s.text() for s in enumerate_strings(1)] == [
            "1_0", "1_1", "alpha", "beta", "gamma", "eta",
        ]

    def test_guard(self):
        with pytest.raises(LimitExceeded):
            enumerate_strings(25)

    @pytest.mark.parametrize("enumerate_fn", [enumerate_strings, enumerate_bands])
    def test_negative_bound(self, enumerate_fn):
        with pytest.raises(LimitExceeded):
            enumerate_fn(-1)

    def test_oracle_equivalence(self):
        # independent generate-and-filter over all composable words
        out = {String((), 0), String((), 1)}
        frontier = [(l,) for l in range(8)]
        for n in range(1, 9):
            for w in frontier:
                if word_flaw(w) is None:
                    out.add(String.from_word(Word(w)))
            nxt = []
            if n < 8:
                for w in frontier:
                    for cand in range(8):
                        if e_of(cand) == s_of(w[-1]):
                            nxt.append(w + (cand,))
            frontier = nxt
        key = lambda s: (len(s.letters), s.vertex or 0, s.letters)
        assert sorted(out, key=key) == enumerate_strings(8)

    def test_band_oracle(self):
        # same style oracle for bands: filter all composable words
        found = set()
        frontier = [(l,) for l in range(8)]
        for n in range(1, 9):
            for w in frontier:
                word = Word(w)
                if is_band(word):
                    found.add(Band.from_word(word))
            nxt = []
            if n < 8:
                for w in frontier:
                    for cand in range(8):
                        if e_of(cand) == s_of(w[-1]):
                            nxt.append(w + (cand,))
            frontier = nxt
        assert sorted(found, key=lambda b: (len(b.letters), b.letters)) == enumerate_bands(8)
        for b in enumerate_bands(8):
            assert is_band(b.word)

    @pytest.mark.parametrize("n", range(17))
    def test_string_walk_matches_the_word_scan(self, n):
        assert enumerate_strings(n) == enumerate_strings_scan(n)

    @pytest.mark.parametrize(
        "n, count", [(12, 1045), (14, 2294), (16, 5031), (18, 11023), (20, 24111), (22, 52825), (24, 115470)]
    )
    def test_string_class_counts(self, n, count):
        # counted by the word scan, up to the enumeration bound
        assert len(enumerate_strings(n)) == count

    @pytest.mark.parametrize("n", range(17))
    def test_band_walk_matches_the_word_scan(self, n):
        assert enumerate_bands(n) == enumerate_bands_scan(n)

    @pytest.mark.parametrize("n, count", [(12, 18), (14, 29), (16, 58), (18, 114), (20, 211), (22, 448), (24, 812)])
    def test_band_class_counts(self, n, count):
        # counted by the word scan, up to the enumeration bound
        assert len(enumerate_bands(n)) == count

    def test_follow_rule_matches_full_scan(self):
        # reference: try all 8 letters against the last three letters of
        # the word, rescanning every run of the 4-letter tail
        def scan(letters):
            last = letters[-1]
            out = []
            for a in range(4):
                for cand in (a, a | INV):
                    if e_of(cand) != s_of(last) or cand == inv_letter(last):
                        continue
                    tail = letters[-3:] + (cand,)
                    if not any(run_forbidden(tail, *run) for run in _runs(tail)):
                        out.append(cand)
            return out

        words = all_words_upto(12)
        assert len(words) == len(set(words))
        for w in words:
            assert list(_extensions(w)) == scan(w), w
        # the reference grows the same words, level by level
        frontier, grown = [(l,) for l in range(8)], []
        while frontier:
            grown += frontier
            frontier = [w + (l,) for w in frontier if len(w) < 12 for l in scan(w)]
        assert sorted(grown) == sorted(words)
        for v in (0, 1):
            assert list(_extensions((), v)) == [l for l in range(8) if e_of(l) == v]

    def test_flaws_match_a_scan_against_j(self):
        # reference: no letter followed by its inverse and no path of J in
        # a run of one direction, of the word or (for a band) of its cube
        def flawless(letters, cyclic):
            n = len(letters)
            if cyclic and any(letters == letters[:d] * (n // d) for d in range(1, n) if n % d == 0):
                return False
            seq = letters * 3 if cyclic else letters
            if any(s_of(a) != e_of(b) or b == inv_letter(a) for a, b in zip(seq, seq[1:])):
                return False
            for ln in (2, 3):
                for k in range(len(seq) - ln + 1):
                    window = seq[k : k + ln]
                    if len({l & INV for l in window}) == 1:
                        arrows = tuple(l & 3 for l in window)
                        if window[0] & INV:
                            arrows = arrows[::-1]
                        if arrows in J_SET:
                            return False
            return True

        for w in itertools.chain.from_iterable(itertools.product(range(8), repeat=n) for n in range(6)):
            flaw = word_flaw(w)
            assert (flaw is None) == flawless(w, False), w
            composable = all(s_of(a) == e_of(b) for a, b in zip(w, w[1:]))
            assert (flaw == "not composable") == (not composable), w
            if w:
                assert (band_flaw(Word(w)) is None) == flawless(w, True), w

    def test_canonicalization_idempotent(self):
        for s in enumerate_strings(6):
            assert String.from_word(s.word) == s
        for b in enumerate_bands(8):
            assert Band.from_word(b.word) == b
            assert Band.from_word(b.rotation(1)) == b

    def test_class_accepts_inverse(self):
        for s in enumerate_strings(8):
            if s.letters:
                assert String.from_word(s.word.inverse()) == s


class TestHooks:
    def test_hook_right_of_alpha_inverse(self):
        [hook] = add_hook(parse_word("alpha-"))
        assert hook.text() == "alpha- gamma eta-"

    def test_hook_right_of_eta_is_on_peak(self):
        assert add_hook(parse_word("eta")) == []

    def test_hook_left_of_eta_exists(self):
        # eta does not end on a peak, so the left hook is defined; the
        # result is the depth-2 tube module over the boundary
        [hook] = add_hook(parse_word("eta").inverse())
        assert hook.inverse().text() == "beta alpha beta- eta"

    def test_empty_string_is_ambiguous(self):
        cands = add_hook(empty_word(0))
        assert sorted(w.text() for w in cands) == ["alpha beta- gamma-", "gamma eta-"]

    def test_cohook_round_trip(self):
        for text in ("alpha-", "gamma beta", "alpha beta- gamma-"):
            w = parse_word(text)
            for c in add_hook(w, cohook=True):
                assert remove_hook(c, cohook=True).letters == w.letters

    def test_hook_then_removal(self):
        a1 = parse_word("alpha beta- gamma-")
        [a2] = add_hook(a1)
        assert a2.text() == "alpha beta- gamma- alpha beta- gamma-"
        assert remove_hook(a2).letters == a1.letters

    def test_unique_for_nonempty(self):
        # at each end of a nonempty string there is at most one move each
        # way: a hook added or a cohook removed, a cohook added or a hook
        # removed
        for s in enumerate_strings(10):
            if not s.letters:
                continue
            for w in (s.word, s.word.inverse()):
                for cohook in (False, True):
                    added = add_hook(w, cohook)
                    removed = remove_hook(w, not cohook)
                    assert len(added) + (removed is not None) <= 1, (w.text(), cohook)


class TestMirror:
    def test_three_letter_example(self):
        m = mirror_string(String.from_word(parse_word("alpha beta- gamma-")))
        assert m == String.from_word(parse_word("alpha- gamma beta"))

    def test_involution_and_length(self):
        for s in enumerate_strings(8):
            if not s.letters:
                continue
            m = mirror_string(s)
            assert len(m) == len(s)
            assert mirror_string(m) == s

    def test_fixes_eta(self):
        assert mirror_string(make_string("eta")) == make_string("eta")

    def test_vertex_strings_are_their_own_mirror(self):
        for v in (0, 1):
            assert mirror_string(String((), v)) == String((), v)


class TestTopSocle:
    def test_four_piece_example(self):
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        pieces = sorted(p.text() for p in top_socle_decomposition(b))
        assert pieces == sorted(["alpha-", "beta-", "gamma-", "eta-"])

    def test_reconstruction_and_piece_set(self):
        for b in enumerate_bands(12):
            pieces = top_socle_decomposition(b)
            assert len(pieces) % 2 == 0 and len(pieces) >= 2
            concat = []
            for i, p in enumerate(pieces):
                concat.extend(p.letters if i % 2 == 0 else p.inverse().letters)
            n = len(b.letters)
            doubled = b.letters * 2
            rotations = {doubled[i : i + n] for i in range(n)}
            inv = tuple(inv_letter(x) for x in reversed(b.letters))
            doubled_inv = inv * 2
            rotations |= {doubled_inv[i : i + n] for i in range(n)}
            assert tuple(concat) in rotations

    def test_pieces_are_even_in_number_and_legal(self):
        # top_socle_decomposition returns the runs unchecked: every band
        # alternates direction and keeps each run legal
        for b in enumerate_bands(14):
            pieces = top_socle_decomposition(b)
            assert len(pieces) % 2 == 0, b.text()
            assert all(p.letters in TOP_SOCLE_PIECES for p in pieces), b.text()

    def test_piece_count_equals_run_count(self):
        b = Band.from_word(parse_word("eta- beta alpha- gamma"))
        assert len(top_socle_decomposition(b)) == 4


def test_cohook_of_deep_string_raises():
    # beta- gamma- starts in a deep (its trailing inverse run is maximal),
    # so no cohook can be added on the right
    assert add_hook(parse_word("beta- gamma-"), cohook=True) == []


class TestValueSemantics:
    """Word, String and Band behave as frozen dataclasses did: equal only
    to the same class with the same fields, hashed alike, immutable."""

    VALUES = [
        Word((0, 1)),
        Word((), 1),
        String((0, 1)),
        String((), 1),
        Band.from_word(parse_word("eta- beta alpha- gamma")),
    ]

    @staticmethod
    def fields(v):
        return (type(v), v.letters, getattr(v, "vertex", None))

    def test_equal_means_same_class_and_fields(self):
        for a, b in itertools.product(self.VALUES, repeat=2):
            same = self.fields(a) == self.fields(b)
            assert (a == b) == same and (a != b) == (not same)
        assert String((0, 1)) != Word((0, 1)) and Band((0, 1)) != Word((0, 1))
        assert Word((), 0) != Word((), 1) and String((0, 1)) != (0, 1)

    def test_equal_values_hash_equal(self):
        for v in self.VALUES:
            twin = copy.copy(v)
            assert twin is not v and twin == v and hash(twin) == hash(v) and len({twin, v}) == 1
        s = make_string("alpha- gamma")
        assert s.word is s.word  # cached
        assert String(s.letters) == s and hash(String(s.letters)) == hash(s)

    def test_immutable(self):
        cached = make_string("beta")
        cached.word
        for v in self.VALUES + [cached]:
            with pytest.raises(AttributeError):
                v.letters = (2,)
            with pytest.raises(AttributeError):
                v.other = 1
            with pytest.raises(AttributeError):
                del v.letters
            assert copy.deepcopy(v) == pickle.loads(pickle.dumps(v)) == v

    def test_repr(self):
        assert [repr(v) for v in self.VALUES] == [
            "Word('alpha beta')",
            "Word('1_1')",
            "String('alpha beta')",
            "String('1_1')",
            "Band('alpha beta- eta gamma-')",
        ]
