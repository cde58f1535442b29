"""Walk combinatorics for the fixed two-vertex quiver.

The quiver has vertices 0, 1 and arrows alpha: 0->0, beta: 0->1,
gamma: 1->0, eta: 1->1.  Letters of a word are arrows or formal inverses;
consecutive letters must compose (s(w_i) = e(w_{i+1})), so the rightmost
letter of a word acts first.  ARMS, the two arms of each projective, is
the one statement of the relations: each one-direction run of a string
must be a proper subpath of an arm, read in the order it acts (a whole
arm is the socle), and no relation table is kept beside it.  Bands are
primitive cyclic words all of whose powers are strings.

Letters are small ints: arrow index 0..3, with bit 2 set for an inverse.
The canonical representative of a string class is the lexicographically
smaller of the word and its inverse under alpha < beta < gamma < eta <
alpha- < beta- < gamma- < eta-; band classes are minimized over all
rotations of both orientations.  No band word is a rotation of its own
inverse (that would be a reflection of the cycle sending each letter to
its inverse, which fixes a letter or puts a letter next to its inverse),
so the least rotation comes from exactly one orientation.

AR neighbours of string modules follow the hook rule (Butler-Ringel 1987),
applied at the right end of a word.  A hook is a direct letter followed by
the longest inverse run; a cohook is the same with the directions swapped.
A successor adds a hook, or removes a cohook when no hook fits; a
predecessor adds a cohook, or removes a hook.  The left end is the right
end of the inverse word.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    ForbiddenSubword,
    LimitExceeded,
    NotComposable,
    ParseError,
)

ALPHA, BETA, GAMMA, ETA = 0, 1, 2, 3
INV = 4

ARROW_NAMES = ("alpha", "beta", "gamma", "eta")
_ARROW_S = (0, 0, 1, 1)
_ARROW_E = (0, 1, 0, 1)


def inv_letter(letter: int) -> int:
    return letter ^ INV


def is_inverse(letter: int) -> bool:
    return bool(letter & INV)


def s_of(letter: int) -> int:
    a = letter & 3
    return _ARROW_E[a] if letter & INV else _ARROW_S[a]


def e_of(letter: int) -> int:
    a = letter & 3
    return _ARROW_S[a] if letter & INV else _ARROW_E[a]


def letter_text(letter: int) -> str:
    return ARROW_NAMES[letter & 3] + ("-" if letter & INV else "")


# The two arms of each indecomposable projective P(v): arrows in the order
# they act from the top, the last one reaching the socle.  This is the one
# declaration of the algebra for the word and module layers: the legal
# runs of strings and bands below, syzygy_word and algebra.quiver_context,
# which builds each P(v), and from them the regular module, as the closed
# walk down one arm and back up the other, all read it.
ARMS = {
    0: ((ALPHA, BETA, GAMMA), (BETA, GAMMA, ALPHA)),
    1: ((GAMMA, ALPHA, BETA), (ETA, ETA)),
}


def _legal_runs() -> frozenset:
    """The one-direction runs a string may contain, as letter tuples: those
    that read, in the order they act, a proper subpath of an arm (a whole
    arm is the socle, zero in Lambda modulo its socle).  A direct run acts
    from its right end, an inverse run from its left."""
    runs = set()
    for arm in (arm for pair in ARMS.values() for arm in pair):
        for i in range(len(arm)):
            for j in range(i + 1, len(arm) + 1):
                if j - i < len(arm):
                    runs.add(tuple(reversed(arm[i:j])))
                    runs.add(tuple([a | INV for a in arm[i:j]]))
    return frozenset(runs)


_LEGAL_RUNS = _legal_runs()


_set = object.__setattr__


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class _Walk:
    """Value semantics of Word, String and Band, those of a frozen
    dataclass: fields set once, equal only to an object of the same class
    with the same letters and vertex, hashed on the two.  Only an empty
    walk needs its vertex; a band has none."""

    __slots__ = ("letters", "vertex")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, letters: tuple[int, ...], vertex: int | None = None):
        _set(self, "letters", letters)
        _set(self, "vertex", vertex)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.vertex == other.vertex

    def __hash__(self):
        return hash((self.letters, self.vertex))

    def __reduce__(self):
        return self.__class__, (self.letters, self.vertex)

    def __len__(self):
        return len(self.letters)

    def text(self) -> str:
        if not self.letters:
            return f"1_{self.vertex}"
        return " ".join(letter_text(l) for l in self.letters)

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class Word(_Walk):
    """A composable walk; an empty walk carries its vertex, 0 or 1."""

    __slots__ = ()

    def __init__(self, letters: tuple[int, ...], vertex: int | None = None):
        if not letters and vertex not in (0, 1):
            raise ParseError(f"an empty word needs vertex 0 or 1, not {vertex!r}")
        _set(self, "letters", letters)
        _set(self, "vertex", vertex)

    def inverse(self) -> "Word":
        if not self.letters:
            return self
        return Word(tuple([inv_letter(l) for l in reversed(self.letters)]))

    def vertices(self) -> tuple[int, ...]:
        """v(0..n): v(i) = e(w_{i+1}) for i < n, v(n) = s(w_n)."""
        if not self.letters:
            return (self.vertex,)
        vs = [e_of(l) for l in self.letters]
        vs.append(s_of(self.letters[-1]))
        return tuple(vs)


def empty_word(vertex: int) -> Word:
    return Word((), vertex)


def _runs(letters):
    """Maximal same-direction runs as (start, length, inverted)."""
    out = []
    i = 0
    n = len(letters)
    while i < n:
        j = i
        invflag = is_inverse(letters[i])
        while j + 1 < n and is_inverse(letters[j + 1]) == invflag:
            j += 1
        out.append((i, j - i + 1, invflag))
        i = j + 1
    return out


def _last_run(letters):
    """The maximal one-direction run that ends the letters."""
    k = len(letters) - 1
    while k and is_inverse(letters[k - 1]) == is_inverse(letters[-1]):
        k -= 1
    return letters[k:]


def word_flaw(letters) -> str | None:
    """None if the letter sequence is a valid string word, else a reason.

    Each letter must lie in 0..7; composability is checked next; then
    each letter must be one that may follow its two predecessors
    (_follow), which by induction form a valid word."""
    letters = tuple(letters)
    if letters and not 0 <= min(letters) <= max(letters) <= 7:
        return "letter out of range"
    for i in range(len(letters) - 1):
        if s_of(letters[i]) != e_of(letters[i + 1]):
            return "not composable"
    for i in range(1, len(letters)):
        if letters[i] not in _follow(letters[max(0, i - 2) : i], None):
            return "forbidden subword"
    return None


def validate_string_word(word: Word) -> Word:
    flaw = word_flaw(word.letters)
    if flaw == "letter out of range":
        raise ParseError(f"{word.letters}: {flaw}")
    if flaw == "not composable":
        raise NotComposable(word.text())
    if flaw is not None:
        raise ForbiddenSubword(f"{word.text()}: {flaw}")
    return word


class String(_Walk):
    """Canonical representative of a string class (word vs its inverse).
    The constructor trusts its letters; from_word checks."""

    __slots__ = ("_word",)  # the cached `word`

    @classmethod
    def from_word(cls, word: Word) -> "String":
        validate_string_word(word)
        return cls.from_valid_word(word)

    @classmethod
    def from_valid_word(cls, word: Word) -> "String":
        """The class of a word already known to be a string word (built by
        a rule that keeps words valid, or validated before): no check."""
        if not word.letters:
            return cls((), word.vertex)
        return cls(min(word.letters, word.inverse().letters))

    @property
    def word(self) -> Word:
        try:
            return self._word
        except AttributeError:
            _set(self, "_word", Word(self.letters, self.vertex))
            return self._word


class Band(_Walk):
    """Canonical representative of a band class (rotations of both
    orientations).  The constructor trusts its letters; from_word checks."""

    __slots__ = ()

    @classmethod
    def from_word(cls, word: Word) -> "Band":
        return cls(_band_canonical(validate_band_word(word).letters)[0])

    @property
    def word(self) -> Word:
        return Word(self.letters)

    def rotation(self, i: int) -> Word:
        n = len(self.letters)
        i %= n
        return Word(self.letters[i:] + self.letters[:i])


def _band_canonical(letters):
    """(least, flipped): the least rotation of the letters or of their
    inverse, and whether it is a rotation of the inverse."""
    n = len(letters)
    best = flipped = None
    for flip, seq in ((False, letters), (True, tuple([inv_letter(l) for l in reversed(letters)]))):
        for i in range(n):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best, flipped = rot, flip
    return best, flipped


def band_flaw(word: Word) -> str | None:
    """None if the word satisfies every band condition, else a reason.

    The "every power is a string" condition is finite: legal runs, the
    proper subpaths of the arms of ARMS, are at most two letters long, so
    it holds once each letter, read cyclically, may follow its two
    predecessors (_follow): letters 1..n+1 of w^3 are checked.
    """
    letters = word.letters
    n = len(letters)
    if n == 0:
        return "empty"
    if not 0 <= min(letters) <= max(letters) <= 7:
        return "letter out of range"
    for i in range(n):
        if s_of(letters[i - 1]) != e_of(letters[i]):
            return "not cyclically composable"
    for d in range(1, n):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return "proper power"
    cycled = (letters * 3)[: n + 2]
    for i in range(1, n + 2):
        if cycled[i] not in _follow(cycled[max(0, i - 2) : i], None):
            return "forbidden subword in a power"
    return None


def validate_band_word(word: Word) -> Word:
    flaw = band_flaw(word)
    if flaw == "letter out of range":
        raise ParseError(f"{word.letters}: {flaw}")
    if flaw is not None:
        raise ForbiddenSubword(f"{word.text()}: {flaw}")
    return word


def is_band(word: Word) -> bool:
    return band_flaw(word) is None


# -- parsing -------------------------------------------------------------

_TOKEN = {name: i for i, name in enumerate(ARROW_NAMES)}


def parse_word(text: str) -> Word:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty input")
    if len(tokens) == 1 and tokens[0] in ("1_0", "1_1"):
        return empty_word(int(tokens[0][-1]))
    letters = []
    for tok in tokens:
        name = tok[:-1] if tok.endswith("-") else tok
        if name not in _TOKEN:
            raise ParseError(f"unknown letter {tok!r}")
        letters.append(_TOKEN[name] | (INV if tok.endswith("-") else 0))
    word = Word(tuple(letters))
    for i in range(len(letters) - 1):
        if s_of(letters[i]) != e_of(letters[i + 1]):
            raise NotComposable(f"{letter_text(letters[i])} then {letter_text(letters[i+1])}")
    return word


def make_string(text: str) -> String:
    return String.from_word(parse_word(text))


# -- enumeration ----------------------------------------------------------

_ENUM_LIMIT = 24


def _extensions(letters, vertex=None):
    """Letters that may be appended on the right of a valid word keeping
    it valid; after an empty word at `vertex`, those that end there."""
    return _follow(letters[-2:], vertex)


@lru_cache(maxsize=None)
def _follow(tail, vertex):
    """The follow rule of :func:`_extensions`: a letter that composes, is
    not the inverse of the last one, and ends a legal run, a proper
    subpath of an arm of ARMS.  Every earlier run of a valid word is
    legal, and no arm is longer than three arrows, so no legal run is
    longer than two letters: only the last two letters (the vertex, for
    an empty word) decide which letters may follow."""
    if not tail:
        return tuple(l for l in range(8) if e_of(l) == vertex)
    last = tail[-1]
    return tuple(
        cand
        for a in range(4)
        for cand in (a, a | INV)
        if e_of(cand) == s_of(last)
        and cand != inv_letter(last)
        and _last_run(tail + (cand,)) in _LEGAL_RUNS
    )


def _walk(starts, max_len: int, keep=None):
    """Every string word of length <= max_len grown from a start word by
    _extensions, depth first; a letter l is appended to w only when
    keep(w, l) passes, if a filter is given.  A word is reached by one
    path, so none is yielded twice."""
    stack = list(starts) if max_len else []
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack += [w + (l,) for l in _extensions(w) if keep is None or keep(w, l)]


def _check_enum_bound(kind: str, max_len: int):
    """ParseError for a bound that is not an int, a bool among them;
    LimitExceeded for one outside 0.._ENUM_LIMIT."""
    if type(max_len) is not int:
        raise ParseError(f"the {kind} length bound must be an int, not {max_len!r}")
    if not 0 <= max_len <= _ENUM_LIMIT:
        raise LimitExceeded(f"{kind} length bound {max_len} not in 0..{_ENUM_LIMIT}")


def enumerate_strings(max_len: int) -> list[String]:
    """All canonical string classes of length <= max_len, sorted: the walk
    from every letter, keeping each word that is at most its inverse (no
    word equals its inverse, as no letter follows its own inverse)."""
    _check_enum_bound("string", max_len)
    classes = [String((), 0), String((), 1)]
    for w in _walk([(l,) for l in range(8)], max_len):
        if w <= tuple([inv_letter(l) for l in reversed(w)]):
            classes.append(String(w))
    return sorted(classes, key=lambda s: (len(s.letters), s.vertex or 0, s.letters))


def enumerate_bands(max_len: int) -> list[Band]:
    """All canonical band classes of length in 1..max_len, sorted.

    The walk of enumerate_strings, over the closed walks that can be
    canonical.  The canonical word of a class is the least rotation of the
    word or of its inverse, so it starts with the least letter a of the
    two: every letter l of it has l >= a and inv_letter(l) >= a, and a
    itself is direct.  Every power of a band word is a string, so the word
    is a string word.  The walk starts at each direct letter a, keeps to
    the letters that meet both bounds, and tests a word only when it
    closes up (s of its last letter = e of its first)."""
    _check_enum_bound("band", max_len)
    classes = []
    starts = [(a,) for a in range(8) if inv_letter(a) > a]
    for w in _walk(starts, max_len, lambda w, l: l >= w[0] and inv_letter(l) >= w[0]):
        # of the closed walks, few are canonical: that test rejects faster
        if s_of(w[-1]) == e_of(w[0]) and w == _band_canonical(w)[0] and is_band(Word(w)):
            classes.append(Band(w))
    return sorted(classes, key=lambda b: (len(b.letters), b.letters))


# -- hooks and cohooks ------------------------------------------------------


def add_hook(word: Word, cohook: bool = False) -> list[Word]:
    """The words got by adding a hook on the right: a direct letter z that
    may follow, then the longest inverse run after it (for a cohook, an
    inverse z and the longest direct run; Butler-Ringel 1987).  Special
    biseriality leaves at most one letter at each step, and two choices of
    z only after an empty word."""
    out = []
    for z in _extensions(word.letters, word.vertex):
        if is_inverse(z) != cohook:
            continue
        letters = word.letters + (z,)
        while run := [l for l in _extensions(letters) if is_inverse(l) != cohook]:
            letters += (run[0],)
        out.append(Word(letters))
    return out


def remove_hook(word: Word, cohook: bool = False) -> Word | None:
    """The word T with `word` in add_hook(T, cohook), if there is one: drop
    the trailing inverse run (direct for a cohook) and the letter before
    it."""
    letters = word.letters
    k = len(letters)
    while k and is_inverse(letters[k - 1]) != cohook:
        k -= 1
    if not 0 < k < len(letters):
        return None
    base = Word(letters[: k - 1]) if k > 1 else empty_word(e_of(letters[0]))
    if any(w.letters == letters for w in add_hook(base, cohook)):
        return base
    return None


# -- syzygies on words -------------------------------------------------------


def syzygy_word(s: String | Word, power: int = 1) -> String | Word:
    """The word of Omega^power (Butler-Ringel 1987; Erdmann, LNM 1428):
    for a String S, the String of Omega^power(M(S)); for a band word B (a
    Word read cyclically), a band word B' with Omega^power(M(B, lambda,
    m)) = M(B', lambda, m), in the orientation of B.  For power < 0, a
    String gets the mirror conjugate of Omega^-power (the mirror is the
    duality onto the opposite algebra, Lambda with beta and gamma
    swapped), and a band word Omega^-power itself: Lambda is symmetric and
    band modules lie in homogeneous tubes, so Omega^2 = tau fixes every
    band word, in its orientation (tests/test_words.py).  ParseError for
    a power that is not an int, a bool among them."""
    if type(power) is not int:
        raise ParseError(f"the power of Omega must be an int, not {power!r}")
    if power < 0 and isinstance(s, String):
        return mirror_string(syzygy_word(mirror_string(s), -power))
    for _ in range(abs(power)):
        s = _syzygy_step(s)
    return s


def _syzygy_step(s: String | Word) -> String | Word:
    """One step of Omega on a String or a band word.

    A peak z_p of the word at vertex v, with a direct run of l letters on
    its left and an inverse run of r letters on its right, is the image of
    the top of P(v), whose two arms cover the two runs.  Its part of the
    kernel is a V: down the left arm from position l to the socle
    (inverse letters), then up the right arm to position r (direct
    letters).  Neighbouring Vs share the point above the deep between
    their peaks; at either end of a string the V starts one position
    further along the arm.  A band has no ends: its runs are read
    cyclically and every V shares both its ends."""
    cyclic = not isinstance(s, String)
    w = s.letters
    n = len(w)
    verts = s.vertices() if cyclic else s.word.vertices()
    out = []
    for p in range(n if cyclic else n + 1):
        if ((p or cyclic) and is_inverse(w[p - 1])) or (p < n and not is_inverse(w[p])):
            continue  # z_p is not a peak
        l = 0
        while l < (n if cyclic else p) and not is_inverse(w[p - l - 1]):
            l += 1
        r = 0
        while r < (n if cyclic else n - p) and is_inverse(w[(p + r) % n]):
            r += 1
        v = verts[p]
        left, right = ARMS[v]
        if (l and left[0] != w[p - 1] & 3) or (not l and r and right[0] != w[p] & 3):
            left, right = right, left
        out += [a | INV for a in left[l + (not cyclic and l == p) :]]
        out += reversed(right[r + (not cyclic and p + r == n) :])
    if cyclic:
        return Word(tuple(out))
    if not out:
        return String((), v)  # a lone V on the socle of P(v)
    return String.from_valid_word(Word(tuple(out)))


# -- the arrow-swap mirror symmetry -----------------------------------------

# beta <-> gamma, read against the order of action, takes each arm of ARMS
# to an arm at the same vertex: an anti-automorphism of Lambda, which
# algebra.quiver_context reads as ctx.opposite
MIRROR_ARROW = (ALPHA, GAMMA, BETA, ETA)


def mirror_string(s: String) -> String:
    """Letterwise symmetry: swap beta/gamma, keep alpha/eta, invert each
    letter in place.  A length-preserving involution on strings that
    takes arms to arms, so it keeps words valid; 1_v is its own mirror."""
    if not s.letters:
        return s
    letters = tuple([MIRROR_ARROW[l & 3] | ((l & INV) ^ INV) for l in s.letters])
    return String.from_valid_word(Word(letters))


# -- top-socle pieces of bands -----------------------------------------------


def top_socle_decomposition(band: Band) -> list[Word]:
    """Pieces C_0, ..., C_s (s odd): rotate the band to start on an
    inverse run; inverse runs are pieces as-is, direct runs contribute
    their formal inverses.  A band alternates direct and inverse runs, so
    it has an even number of them, each legal."""
    letters = band.letters
    n = len(letters)
    starts = [i for i in range(n) if is_inverse(letters[i]) and not is_inverse(letters[i - 1])]
    if not starts:
        raise ForbiddenSubword(f"{band.text()}: no inverse run")
    rot = min(letters[i:] + letters[:i] for i in starts)
    pieces = []
    for start, length, invflag in _runs(rot):
        chunk = Word(rot[start : start + length])
        pieces.append(chunk if invflag else chunk.inverse())
    return pieces
