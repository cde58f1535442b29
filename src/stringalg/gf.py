"""Arithmetic in GF(2^m) for m <= 8.

Elements are integers whose binary digits are polynomial coefficients over
GF(2); arithmetic is modulo a fixed irreducible polynomial per degree, so
encodings are reproducible across runs.  Addition is XOR.  Multiplication
and inverses go through precomputed tables (the fields are tiny).
"""

from __future__ import annotations

from .errors import DimensionMismatch

# One irreducible polynomial per extension degree, bit-encoded.
# Degree 2 is x^2 + x + 1, so GF(4) = {0, 1, w, w+1} with w = 2.
_IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}

_CACHE: dict[int, "FiniteField"] = {}


def _mul_mod(a: int, b: int, degree: int, modulus: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a >> degree:
            a ^= modulus
        b >>= 1
    return p


class FiniteField:
    """GF(2^m) with a fixed modulus; use :func:`GF` to get the shared instance."""

    def __init__(self, degree: int):
        if degree not in _IRREDUCIBLE:
            raise DimensionMismatch(f"unsupported field degree {degree}; need 1..8")
        self.degree = degree
        self.modulus = _IRREDUCIBLE[degree]
        self.order = 1 << degree
        q = self.order
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = _mul_mod(a, b, degree, self.modulus)
                mul[a][b] = v
                mul[b][a] = v
        self._mul = mul
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv = inv
        # plane_sources[s][i] = tuple of source plane indices j such that
        # bit i of s * x^j is set; used for scalar multiplication of
        # bit-plane packed row vectors.
        self.plane_sources = []
        for s in range(q):
            per_plane = []
            for i in range(degree):
                srcs = tuple(j for j in range(degree) if (mul[s][1 << j] >> i) & 1)
                per_plane.append(srcs)
            self.plane_sources.append(tuple(per_plane))

    # -- element operations -------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.degree == other.degree

    def __hash__(self):
        return hash(("FiniteField", self.degree))

    def __repr__(self):
        return f"GF(2^{self.degree})"


def GF(degree: int) -> FiniteField:
    """Shared field instance for the given extension degree."""
    if degree not in _CACHE:
        _CACHE[degree] = FiniteField(degree)
    return _CACHE[degree]


GF2 = GF(1)
GF4 = GF(2)
OMEGA = 2  # the class of x in GF(4); a primitive cube root of unity
# The band scalars of `module --lam` and of the band scan: name ->
# (lambda, least field degree holding it).
BAND_SCALARS = {"1": (1, 1), "w": (OMEGA, 2), "w2": (GF4.inv(OMEGA), 2)}
