"""Finite-dimensional modules given by generator matrices."""

from __future__ import annotations

from .errors import ContextMismatch, DimensionMismatch
from .matrix import Mat, block_diag


class ModuleRep:
    """A module over an algebra context: one square matrix per generator.

    Instances are treated as immutable; ``cache`` holds derived data
    (Hom bases to the simples, projective cover, ...) keyed by name, and
    what the constructors know of the module: the isomorphism class of a
    string or band module ("tag") and the parts of a direct sum
    ("parts").
    """

    __slots__ = ("algebra", "dim", "action", "label", "cache")

    def __init__(self, algebra, dim: int, action: dict[str, Mat], label: str = ""):
        for name in algebra.gen_names:
            m = action[name]
            if m.nrows != dim or m.ncols != dim:
                raise DimensionMismatch(f"generator {name} is not {dim}x{dim}")
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.label = label
        self.cache = {}

    @property
    def field(self):
        return self.algebra.field

    def word_matrix(self, word) -> Mat:
        """The matrix of a word in the generator names: the identity for
        (), otherwise the product, with the rightmost generator acting
        first."""
        if not word:
            return Mat.identity(self.field, self.dim)
        out = self.action[word[0]]
        for name in word[1:]:
            out = out.mul(self.action[name])
        return out

    def relabel(self, label: str) -> "ModuleRep":
        out = ModuleRep(self.algebra, self.dim, self.action, label)
        out.cache = self.cache
        return out

    def plain(self) -> "ModuleRep":
        """The same action matrices and label with an empty cache: no tag,
        no parts and no derived data, so that every question about the
        copy is answered from its matrices."""
        return ModuleRep(self.algebra, self.dim, self.action, self.label)

    def to_json_dict(self) -> dict:
        field = self.field
        m = field.degree

        def pack_row(mat, r):
            v = 0
            for c in range(mat.ncols):
                v |= mat.entry(r, c) << (c * m)
            width = max(1, (mat.ncols * m + 3) // 4)
            return f"{v:0{width}x}"

        return {
            "algebra": self.algebra.name,
            "field": {"degree": field.degree, "modulus": field.modulus},
            "dim": self.dim,
            "label": self.label,
            "generators": {
                name: [pack_row(mat, r) for r in range(mat.nrows)]
                for name, mat in sorted(self.action.items())
            },
        }

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"ModuleRep({self.algebra.name}, dim={self.dim}{tag})"


def direct_sum(mods: list[ModuleRep], label: str = "") -> ModuleRep:
    """The block-diagonal sum of mods, in order.  The parts are kept in
    its cache as a tuple ("parts"), the same objects, not copies, so that
    decompose and is_isomorphic can read a sum of string and band modules
    off the parts' tags."""
    if not mods:
        raise DimensionMismatch("direct sum of nothing")
    algebra = mods[0].algebra
    for m in mods:
        if m.algebra is not algebra:
            raise ContextMismatch("direct sum across contexts")
    action = {
        name: block_diag([m.action[name] for m in mods])
        for name in algebra.gen_names
    }
    if not label:
        label = " + ".join(m.label or "?" for m in mods)
    out = ModuleRep(algebra, sum(m.dim for m in mods), action, label)
    out.cache["parts"] = tuple(mods)
    return out
