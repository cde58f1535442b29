"""Ordinary character arithmetic for the symmetric group on 4 letters.

Characters are integer vectors over the conjugacy classes
(e, (12), (12)(34), (123), (1234)) with sizes (1, 6, 3, 8, 6).  The
irreducible table is derived from the permutation and sign constructions
plus the regular character, then checked against the orthogonality
relations; nothing is transcribed.
"""

from __future__ import annotations

from .errors import LimitExceeded, NonIntegral

CLASS_NAMES = ("e", "(12)", "(12)(34)", "(123)", "(1234)")
CLASS_SIZES = (1, 6, 3, 8, 6)
GROUP_ORDER = 24

# multiplicities of the two mod-2 simples (dims 1 and 2) in the reductions
# of the five ordinary irreducibles
DECOMPOSITION_MATRIX = ((1, 0), (1, 0), (1, 1), (1, 1), (0, 1))
BRAUER_DEGREES = (1, 2)


class CharacterVector(tuple):
    """An integer class function on the five conjugacy classes."""

    def __new__(cls, values):
        values = tuple(int(v) for v in values)
        if len(values) != 5:
            raise NonIntegral("a character has 5 class values")
        return super().__new__(cls, values)

    def __add__(self, other):
        return CharacterVector(a + b for a, b in zip(self, other))

    def __mul__(self, other):
        if isinstance(other, int):
            return CharacterVector(a * other for a in self)
        return CharacterVector(a * b for a, b in zip(self, other))

    __rmul__ = __mul__

    @property
    def degree(self):
        return self[0]


def inner_product(chi: CharacterVector, psi: CharacterVector) -> int:
    """<chi, psi> (all characters here are rational, so no conjugation)."""
    total = sum(s * a * b for s, a, b in zip(CLASS_SIZES, chi, psi))
    if total % GROUP_ORDER:
        raise NonIntegral(f"inner product {total}/{GROUP_ORDER} is not integral")
    return total // GROUP_ORDER


TRIVIAL = CharacterVector((1, 1, 1, 1, 1))
SIGN = CharacterVector((1, -1, 1, 1, -1))
# fixed points of the natural 4-point action on each class
PERM_CHARACTER = CharacterVector((4, 2, 0, 1, 0))
REGULAR = CharacterVector((24, 0, 0, 0, 0))


def irreducible_characters() -> list[CharacterVector]:
    """chi_1 trivial, chi_2 sign, chi_3 = perm - trivial, chi_4 its sign
    twist, chi_5 from the regular character."""
    chi1 = TRIVIAL
    chi2 = SIGN
    chi3 = CharacterVector(p - t for p, t in zip(PERM_CHARACTER, chi1))
    chi4 = chi3 * chi2
    rest = REGULAR + (-1) * (chi1 + chi2 + 3 * chi3 + 3 * chi4)
    if any(v % 2 for v in rest):
        raise NonIntegral("degree-2 character is not integral")
    chi5 = CharacterVector(v // 2 for v in rest)
    return [chi1, chi2, chi3, chi4, chi5]


def char_table() -> dict:
    """Irreducible table plus the decomposition data, orthogonality
    verified."""
    chars = irreducible_characters()
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            if inner_product(a, b) != (1 if i == j else 0):
                raise NonIntegral(f"orthogonality fails at ({i+1},{j+1})")
    for chi, row in zip(chars, DECOMPOSITION_MATRIX):
        if chi.degree != sum(d * b for d, b in zip(row, BRAUER_DEGREES)):
            raise NonIntegral("decomposition matrix degree identity fails")
    return {
        "classes": CLASS_NAMES,
        "class_sizes": CLASS_SIZES,
        "irreducibles": chars,
        "decomposition_matrix": DECOMPOSITION_MATRIX,
        "brauer_degrees": BRAUER_DEGREES,
    }


def lift_characters(n: int) -> tuple[CharacterVector, CharacterVector]:
    """Characters of the two inequivalent lattice lifts of V_n, split on
    the parity of n; both have degree 4n + 1.  Levels start at n = 0."""
    if n < 0:
        raise LimitExceeded(f"lift level {n} < 0")
    chi1, chi2, chi3, chi4, _ = irreducible_characters()
    pair13 = chi1 + chi3
    pair24 = chi2 + chi4
    s, odd = divmod(n, 2)
    if not odd:
        u1 = chi1 + s * pair13 + s * pair24
        u2 = chi2 + s * pair13 + s * pair24
    else:
        u1 = chi1 + s * pair13 + (s + 1) * pair24
        u2 = chi2 + (s + 1) * pair13 + s * pair24
    return u1, u2


def check_lift_counts(n: int, hom_dim_k: int) -> bool:
    """The numeric hypothesis of the lifting step at level n: the generic
    Hom count for the right sign twist of the permutation lift equals
    n - 1 against both lifts of V_{n-1}, one less than the mod-2 count
    (which the caller computes and passes in)."""
    if n < 1:
        raise NonIntegral("lifting steps start at n = 1")
    chi1, chi2, chi3, chi4, _ = irreducible_characters()
    x_char = chi1 + chi3          # permutation lift
    x_twist = chi2 + chi4         # its sign twist
    u1, u2 = lift_characters(n - 1)
    if (n - 1) % 2 == 0:
        f1 = inner_product(x_twist, u1)
        f2 = inner_product(x_char, u2)
    else:
        f1 = inner_product(x_char, u1)
        f2 = inner_product(x_twist, u2)
    return f1 == n - 1 and f2 == n - 1 and hom_dim_k == n


def table_json() -> dict:
    data = char_table()
    return {
        "classes": list(data["classes"]),
        "class_sizes": list(data["class_sizes"]),
        "irreducibles": [list(c) for c in data["irreducibles"]],
        "decomposition_matrix": [list(r) for r in data["decomposition_matrix"]],
        "brauer_degrees": list(data["brauer_degrees"]),
    }
