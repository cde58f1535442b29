"""Concrete kS4, kA4 and kC2 module constructions: the mod-2 natural
permutation module, the uniserial extensions of the simples, restriction
and induction along A4 and the order-2 subgroup, involution profiles, and
the tower of extensions of the permutation module over the trivial one.
"""

from __future__ import annotations

from .algebra import element_matrices, group_context, perm_compose, perm_inverse
from . import calculus
from .errors import ContextMismatch, HypothesisFailed, LimitExceeded, NotInvolution
from .matrix import Mat, repack
from .rep import ModuleRep

# the transposition generating the order-2 subgroup; the loop generator of
# the quiver algebra is (1 + h)e0 for this h
H_PERM = (1, 0, 2, 3)

_COSET_REPS = ((0, 1, 2, 3), H_PERM)  # S4 = A4 + h.A4

# the largest n_max of extension_tower (verify.GUARDS reads it)
TOWER_LIMIT = 6


_PERM_MODULES: dict[int, ModuleRep] = {}


def perm_module(degree: int = 1) -> ModuleRep:
    """The natural 4-point permutation module mod 2 (one matrix per
    generator, columns are images of basis points), built once per field,
    so that its cover, Omega and Hom systems with the simples, cached on
    it, are solved once."""
    if degree not in _PERM_MODULES:
        ctx = group_context("S4", degree)
        # point i goes to g[i], so the row of point j holds the column of g^-1 j
        mats = {
            name: Mat(ctx.field, 4, 4, [1 << i for i in perm_inverse(ctx.gen_perms[name])])
            for name in ctx.gen_names
        }
        _PERM_MODULES[degree] = ModuleRep(ctx, 4, mats, label="PermRep")
    return _PERM_MODULES[degree]


def standard_reps(degree: int = 1) -> dict[str, ModuleRep]:
    """The named modules used throughout: T0, T1, PermRep, T00, T11 over
    kS4, and for GF(4) also E0, E1, E2, E12 over kA4."""
    ctx = group_context("S4", degree)
    T0, T1 = ctx.simples
    reps = {
        "T0": T0,
        "T1": T1,
        "PermRep": perm_module(degree),
        "T00": calculus.nonsplit_extension(T0, T0).relabel("T00"),
        "T11": calculus.nonsplit_extension(T1, T1).relabel("T11"),
    }
    if degree >= 2:
        a4 = group_context("A4", degree)
        E0, E1, E2 = a4.simples
        reps.update(
            {
                "E0": E0,
                "E1": E1,
                "E2": E2,
                "E12": calculus.nonsplit_extension(E1, E2).relabel("E12"),
            }
        )
    return reps


def restrict(M: ModuleRep, subgroup: str) -> ModuleRep:
    """View a module over the group algebra of a smaller permutation
    group; subgroup generators act through their words in the parent."""
    sub = group_context(subgroup, M.field.degree)
    mats = element_matrices(M)
    if any(g not in mats for g in sub.gen_perms.values()):
        raise ContextMismatch(f"{subgroup} is not a subgroup of the group of {M.algebra.name}")
    action = {name: mats[sub.gen_perms[name]] for name in sub.gen_names}
    return ModuleRep(sub, M.dim, action, label=f"Res_{subgroup}({M.label})")


def induce(M: ModuleRep) -> ModuleRep:
    """Induction from kA4 to kS4 with coset representatives (e, h): g
    sends the coset block r to the block of the coset of gr, through the
    element r'^-1 g r of A4."""
    if M.algebra.name != "kA4":
        raise ContextMismatch(f"induction is implemented from kA4 only, not {M.algebra.name}")
    s4 = group_context("S4", M.field.degree)
    mats = element_matrices(M)
    d = M.dim
    action = {}
    for name in s4.gen_names:
        g = s4.gen_perms[name]
        rows = [0] * (2 * d)
        for i, r in enumerate(_COSET_REPS):
            gr = perm_compose(g, r)
            j = 0 if gr in mats else 1
            block = mats[perm_compose(perm_inverse(_COSET_REPS[j]), gr)]
            for k, v in enumerate(repack(block.rows, d, 2 * d, M.field.degree)):
                rows[j * d + k] |= v << (i * d)
        action[name] = Mat(s4.field, 2 * d, 2 * d, rows)
    return ModuleRep(s4, 2 * d, action, label=f"Ind({M.label})")


def involution_matrix(M: ModuleRep) -> Mat:
    """Action of the fixed transposition h on M: the matrix of its word in
    the generators of M's group, without the element table."""
    elements = M.algebra.elements
    if elements is None:
        raise ContextMismatch(f"{M.label} is a module over {M.algebra.name}, not over a group")
    if H_PERM not in elements:
        raise NotInvolution(f"{M.algebra.name} does not contain h")
    return M.word_matrix(elements[H_PERM])


def involution_profile(M: ModuleRep) -> tuple[int, int]:
    """(a, b) with Res_C M = k^a + (kC)^b: b = rank(h - 1), a = dim - 2b."""
    h = involution_matrix(M)
    ident = Mat.identity(M.field, M.dim)
    if h.mul(h) != ident:
        raise NotInvolution(f"h does not act as an involution on {M.label}")
    b = h.add(ident).rank()
    a = M.dim - 2 * b
    if a < 0:
        raise NotInvolution(f"profile of {M.label} is inconsistent")
    return a, b


def is_free_rank_one_over_c2(M: ModuleRep) -> bool:
    """Is the restriction to the order-2 subgroup free of rank one?  It is
    k^a + (kC)^b (involution_profile), so iff (a, b) = (0, 1)."""
    return involution_profile(M) == (0, 1)


def extension_tower(n_max: int, degree: int = 1) -> list[ModuleRep]:
    """V_0 = T0 and V_n the non-split extension of the permutation module
    by V_{n-1}; checks dim Hom(PermRep, V_{n-1}) = n and
    Ext^1(PermRep, V_{n-1}) = k before each step."""
    if not 0 <= n_max <= TOWER_LIMIT:
        raise LimitExceeded(f"tower bound {n_max} not in 0..{TOWER_LIMIT}")
    ctx = group_context("S4", degree)
    M = perm_module(degree)
    tower = [ctx.simples[0].relabel("V0")]
    for n in range(1, n_max + 1):
        prev = tower[-1]
        h = calculus.hom_dim(M, prev)
        if h != n:
            raise HypothesisFailed(f"dim Hom(PermRep, V_{n-1}) = {h}, expected {n}")
        # Ext^1 and V_n from one cocycle basis and coboundary span
        e, V = calculus._extension(M, prev)
        if e != 1:
            raise HypothesisFailed(f"dim Ext^1(PermRep, V_{n-1}) = {e}, expected 1")
        tower.append(V.relabel(f"V{n}"))
    return tower
