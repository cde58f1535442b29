"""Concrete kS4, kA4 and kC2 module constructions: the mod-2 natural
permutation module, the uniserial extensions of the simples, restriction
and induction along A4 and the order-2 subgroup, involution profiles, and
the tower of extensions of the permutation module over the trivial one.
"""

from __future__ import annotations

from .algebra import (
    group_context,
    perm_compose,
    perm_inverse,
    perm_is_even,
)
from . import calculus
from .errors import ContextMismatch, HypothesisFailed, LimitExceeded, NotInvolution
from .matrix import Mat
from .rep import ModuleRep

# the transposition generating the order-2 subgroup; the loop generator of
# the quiver algebra is (1 + h)e0 for this h
H_PERM = (1, 0, 2, 3)

_COSET_REPS = ((0, 1, 2, 3), H_PERM)  # S4 = A4 + h.A4


def perm_module(degree: int = 1) -> ModuleRep:
    """The natural 4-point permutation module mod 2 (one matrix per
    generator, columns are images of basis points)."""
    ctx = group_context("S4", degree)
    mats = {}
    for name in ctx.gen_names:
        g = ctx.gen_perms[name]
        m = Mat.zeros(ctx.field, 4, 4)
        for i in range(4):
            m.set_entry(g[i], i, 1)
        mats[name] = m
    return ModuleRep(ctx, 4, mats, label="PermRep")


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


def _group_elements(M: ModuleRep) -> dict:
    """The words of the elements of M's group; ContextMismatch unless M is
    a module over a group algebra."""
    if M.algebra.elements is None:
        raise ContextMismatch(f"{M.label} is a module over {M.algebra.name}, not over a group")
    return M.algebra.elements


def _element_matrices(M: ModuleRep) -> dict:
    """Matrix of every group element acting on M."""
    key = "element_mats"
    if key not in M.cache:
        M.cache[key] = {
            x: M.evaluate(((1, w),)) for x, w in _group_elements(M).items()
        }
    return M.cache[key]


def restrict(M: ModuleRep, subgroup: str) -> ModuleRep:
    """View a module over the group algebra of a smaller permutation
    group; subgroup generators act through their words in the parent."""
    sub = group_context(subgroup, M.field.degree)
    elements = _group_elements(M)
    if any(g not in elements for g in sub.gen_perms.values()):
        raise ContextMismatch(f"{subgroup} is not a subgroup of the group of {M.algebra.name}")
    mats = _element_matrices(M)
    action = {name: mats[sub.gen_perms[name]] for name in sub.gen_names}
    return ModuleRep(sub, M.dim, action, label=f"Res_{subgroup}({M.label})")


def induce(M: ModuleRep) -> ModuleRep:
    """Induction from kA4 to kS4 with coset representatives (e, h)."""
    if M.algebra.name != "kA4":
        raise ContextMismatch(f"induction is implemented from kA4 only, not {M.algebra.name}")
    s4 = group_context("S4", M.field.degree)
    mats = _element_matrices(M)
    d = M.dim
    action = {}
    for name in s4.gen_names:
        g = s4.gen_perms[name]
        out = Mat.zeros(s4.field, 2 * d, 2 * d)
        for i, r in enumerate(_COSET_REPS):
            gr = perm_compose(g, r)
            j = 0 if perm_is_even(gr) else 1
            a = perm_compose(perm_inverse(_COSET_REPS[j]), gr)
            block = mats[a]
            for rr in range(d):
                for cc in range(d):
                    e = block.entry(rr, cc)
                    if e:
                        out.set_entry(j * d + rr, i * d + cc, e)
        action[name] = out
    return ModuleRep(s4, 2 * d, action, label=f"Ind({M.label})")


def involution_matrix(M: ModuleRep) -> Mat:
    """Action of the fixed transposition h on M (via its word in the
    generators of M's group)."""
    word = _group_elements(M).get(H_PERM)
    if word is None:
        raise NotInvolution(f"{M.algebra.name} does not contain h")
    return M.evaluate(((1, word),))


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
    """Is the restriction to the order-2 subgroup free of rank one?"""
    res = restrict(M, "C2")
    return res.dim == 2 and calculus.is_isomorphic(res, group_context("C2", M.field.degree).regular)


def extension_tower(n_max: int, degree: int = 1) -> list[ModuleRep]:
    """V_0 = T0 and V_n the non-split extension of the permutation module
    by V_{n-1}; checks dim Hom(PermRep, V_{n-1}) = n and
    Ext^1(PermRep, V_{n-1}) = k before each step."""
    if n_max < 0:
        raise LimitExceeded(f"tower bound {n_max} < 0")
    if n_max > 6:
        raise HypothesisFailed("tower bound exceeded")
    ctx = group_context("S4", degree)
    M = perm_module(degree)
    tower = [ctx.simples[0].relabel("V0")]
    for n in range(1, n_max + 1):
        prev = tower[-1]
        h = calculus.hom_dim(M, prev)
        e = calculus.ext1_dim(M, prev)
        if h != n:
            raise HypothesisFailed(f"dim Hom(PermRep, V_{n-1}) = {h}, expected {n}")
        if e != 1:
            raise HypothesisFailed(f"dim Ext^1(PermRep, V_{n-1}) = {e}, expected 1")
        tower.append(calculus.nonsplit_extension(M, prev).relabel(f"V{n}"))
    return tower
