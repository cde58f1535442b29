import pytest

from stringalg.chars import (
    DECOMPOSITION_MATRIX,
    PERM_CHARACTER,
    CharacterVector,
    char_table,
    check_lift_counts,
    inner_product,
    irreducible_characters,
    lift_characters,
)
from stringalg.errors import LimitExceeded, NonIntegral


def test_orthogonality():
    chars = irreducible_characters()
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_column_orthogonality():
    chars = irreducible_characters()
    sizes = (1, 6, 3, 8, 6)
    for c1 in range(5):
        for c2 in range(5):
            s = sum(chi[c1] * chi[c2] for chi in chars)
            expected = 24 // sizes[c1] if c1 == c2 else 0
            assert s == expected


def test_degree_two_row():
    chars = irreducible_characters()
    assert chars[4].degree == 2
    assert DECOMPOSITION_MATRIX[4] == (0, 1)


def test_degree_identity():
    table = char_table()
    for chi, row in zip(table["irreducibles"], table["decomposition_matrix"]):
        assert chi.degree == row[0] * 1 + row[1] * 2


def test_perm_character_decomposition():
    chars = irreducible_characters()
    assert inner_product(PERM_CHARACTER, chars[0]) == 1
    assert PERM_CHARACTER == chars[0] + chars[2]


def test_distinct_irreducibles_orthogonal():
    chars = irreducible_characters()
    assert inner_product(chars[0], chars[1]) == 0


def test_non_integral_input():
    with pytest.raises(NonIntegral):
        inner_product(CharacterVector((1, 0, 0, 0, 0)), CharacterVector((1, 1, 1, 1, 1)))


def test_lift_characters_base():
    u1, u2 = lift_characters(0)
    chars = irreducible_characters()
    assert u1 == chars[0] and u2 == chars[1]


def test_lift_characters_n3():
    chars = irreducible_characters()
    u1, _ = lift_characters(3)
    assert u1 == chars[0] + (chars[0] + chars[2]) + 2 * (chars[1] + chars[3])


def test_lift_characters_reject_negative_level():
    # the tower starts at V_0; a negative level would give degree 4n + 1 < 0
    with pytest.raises(LimitExceeded):
        lift_characters(-1)


@pytest.mark.parametrize("n", range(7))
def test_lift_degrees(n):
    u1, u2 = lift_characters(n)
    assert u1.degree == 4 * n + 1 == u2.degree


def test_lift_count_step():
    # the generic count is one below the modular one at every step
    for n in range(1, 7):
        assert check_lift_counts(n, n)
    assert not check_lift_counts(2, 3)
