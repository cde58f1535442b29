"""Algebra contexts: the fixed two-vertex path algebra with relations and
the group algebras over GF(2)/GF(4) it is compared against.

A context carries the regular module, the image of each generator under
an anti-automorphism as one word in the generators (evaluated on a
module by ModuleRep.word_matrix), the simple modules and the projective
indecomposables; a group context also carries the word of each group
element.  The module calculus reads the radical of a module off its
Hom spaces with the simples, and the socle as the top of its dual D, so
the simples are checked at set-up to be absolutely simple (their
matrices span End_k(S), Burnside) and pairwise non-isomorphic; the PIM
dimension count checks that the list is complete, and the
symmetric-algebra properties D(P) projective and soc(P) = top(P), the
latter read as top D(P_i) = D(S_i), are asserted rather than assumed.
With vertex idempotents set-up also checks that S_i is e_i acting by 1
and the rest by 0: the calculus reads [M : S_i] off the rank of e_i.
The context keeps no table of arrows: the Hom systems read the vertices
of a module off its idempotents alone, as one known-zero mask.
The projective indecomposables of the path algebra are closed walks,
down one arm of words.ARMS and back up the other, built by the code that
builds band modules; those of a group algebra are the summands of the
regular module, each found by its top.
"""

from __future__ import annotations

from .errors import ContextMismatch, FieldTooSmall, ParseError, SplitFailure
from .gf import GF
from .matrix import Mat, RowBasis, repack
from .rep import ModuleRep, direct_sum
from . import calculus
from .words import ARMS, ARROW_NAMES, INV, MIRROR_ARROW, e_of, is_inverse


class AlgebraContext:
    __slots__ = (
        "name",
        "field",
        "gen_names",
        "idempotents",
        "regular",
        "opposite",
        "simples",
        "pims",
        "gen_perms",
        "elements",
    )

    def __init__(self, name, field, gen_names):
        self.name = name
        self.field = field
        self.gen_names = tuple(gen_names)
        # vertex idempotents, one per vertex and the first generators
        # (none: a single vertex); the Hom systems read each module's
        # vertices off them alone, as one known-zero mask of the unknowns
        # across two vertices
        self.idempotents = ()
        self.regular = None
        # generator -> the word of its image under an anti-automorphism
        self.opposite = {}
        self.simples = []
        self.pims = []
        self.gen_perms = None
        self.elements = None

    def __repr__(self):
        return f"AlgebraContext({self.name}, {self.field})"


_CONTEXTS: dict[tuple, AlgebraContext] = {}


# -- the path algebra --------------------------------------------------------


def closed_walk_module(ctx, letters, label: str, twist: Mat | None = None) -> ModuleRep:
    """The module of a closed walk w_1...w_n on the cyclic basis
    z_0..z_{n-1} tensored with k^m: a direct letter w_i sends z_i to
    z_{i-1}, an inverse letter z_{i-1} to z_i (indices mod n), each as the
    identity on k^m but the wrap-around letter w_n, which acts through the
    m x m matrix `twist` (the identity on k, m = 1, when omitted).  z_i
    lies at the vertex e(w_{i+1}).  A band module is the walk of its band
    word; P(v) is the walk down one arm from its top and back up the
    other, with m = 1."""
    field = ctx.field
    if twist is None:
        twist = Mat.identity(field, 1)
    n = len(letters)
    mult = twist.nrows
    dim = n * mult
    ident = [1 << j for j in range(mult)]
    wrap = repack(twist.rows, mult, dim, field.degree)
    rows = {name: [0] * dim for name in ctx.gen_names}
    for i, letter in enumerate(letters):
        vertex = rows[ctx.idempotents[e_of(letter)]]
        for j, v in enumerate(ident):
            vertex[i * mult + j] = v << (i * mult)
    for k, letter in enumerate(letters, start=1):
        src, dst = (k - 1, k % n) if is_inverse(letter) else (k % n, k - 1)
        arrow = rows[ARROW_NAMES[letter & 3]]
        for j, v in enumerate(wrap if k == n else ident):
            arrow[dst * mult + j] |= v << (src * mult)
    return ModuleRep(ctx, dim, {name: Mat(field, dim, dim, r) for name, r in rows.items()}, label)


def quiver_context(degree: int = 1) -> AlgebraContext:
    """The 11-dimensional special biserial algebra over GF(2^degree), whose
    regular module is the sum of the projectives P(v), each the closed walk
    on its two arms in words.ARMS."""
    key = ("Lambda", degree)
    if key in _CONTEXTS:
        return _CONTEXTS[key]
    field = GF(degree)
    ctx = AlgebraContext("Lambda", field, ("e0", "e1") + ARROW_NAMES)
    ctx.idempotents = ctx.gen_names[:2]

    # the mirror table of words.mirror_string is an anti-automorphism
    ctx.opposite = {e: (e,) for e in ctx.idempotents}
    ctx.opposite |= {name: (ARROW_NAMES[MIRROR_ARROW[a]],) for a, name in enumerate(ARROW_NAMES)}

    for v, name in ((0, "S0"), (1, "S1")):
        act = {g: Mat.zeros(field, 1, 1) for g in ctx.gen_names}
        act[ctx.idempotents[v]] = Mat.identity(field, 1)
        ctx.simples.append(ModuleRep(ctx, 1, act, label=name))

    # the top of P(v) is z_l, l the length of the first arm; both arms
    # meet in the socle z_0
    for v, (first, second) in ARMS.items():
        walk = tuple(reversed(first)) + tuple(a | INV for a in second)
        ctx.pims.append(closed_walk_module(ctx, walk, f"P{v}"))
    ctx.regular = direct_sum(ctx.pims, "Lambda")

    _verify_context(ctx)
    _CONTEXTS[key] = ctx
    return ctx


# -- group algebras ---------------------------------------------------------------

_GROUP_GENS = {
    "S4": {"s": (1, 0, 2, 3), "t": (1, 2, 3, 0)},
    "A4": {"u": (1, 2, 0, 3), "v": (1, 0, 3, 2)},
    "C2": {"h": (1, 0, 2, 3)},
}

# The simples of each group, in order: label -> the entries of each
# generator's matrix.  kS4's T1 is inflated through the quotient onto the
# symmetric group on the three pair-partitions, acting on the 3-point
# permutation module mod the all-ones vector; kA4's E_k sends u to
# omega^k, written ("w", k), with omega the least element of
# multiplicative order 3 in the field (_cube_root).
_GROUP_SIMPLES = {
    "S4": {"T0": {"s": [[1]], "t": [[1]]}, "T1": {"s": [[1, 1], [0, 1]], "t": [[1, 0], [1, 1]]}},
    "A4": {f"E{k}": {"u": [[("w", k)]], "v": [[1]]} for k in range(3)},
    "C2": {"k": {"h": [[1]]}},
}


def _cube_root(field) -> int:
    """The least element of multiplicative order 3: OMEGA in GF(4).
    GF(2^d) has one iff 3 divides 2^d - 1, that is iff d is even;
    FieldTooSmall otherwise."""
    for x in field.nonzero_elements():
        if x != 1 and field.pow(x, 3) == 1:
            return x
    raise FieldTooSmall(f"{field} has no primitive cube root of unity")


def perm_compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def group_elements(gens: dict) -> dict:
    """BFS words: element permutation -> tuple of generator names, with the
    leftmost name acting last."""
    ident = tuple(range(4))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for name, g in gens.items():
                y = perm_compose(g, x)
                if y not in words:
                    words[y] = (name,) + words[x]
                    nxt.append(y)
        frontier = nxt
    return words


def group_context(name: str, degree: int = 1) -> AlgebraContext:
    key = (name, degree)
    if key in _CONTEXTS:
        return _CONTEXTS[key]
    gens = _GROUP_GENS.get(name)
    if gens is None:
        raise ParseError(f"unknown group {name!r}; known groups: {', '.join(_GROUP_GENS)}")
    field = GF(degree)
    ctx = AlgebraContext("k" + name, field, sorted(gens))
    ctx.gen_perms = dict(gens)
    ctx.elements = group_elements(gens)
    order = len(ctx.elements)

    # basis: the elements in sorted order; g sends x to gx, so the row of
    # y holds the column of g^-1 y
    basis = sorted(ctx.elements)
    pos = {x: i for i, x in enumerate(basis)}
    inverses = {g: perm_inverse(gens[g]) for g in ctx.gen_names}
    action = {
        g: Mat(field, order, order, [1 << pos[perm_compose(inv, y)] for y in basis])
        for g, inv in inverses.items()
    }
    ctx.regular = ModuleRep(ctx, order, action, label="k" + name)
    # g -> g^-1
    ctx.opposite = {g: ctx.elements[inv] for g, inv in inverses.items()}

    def entry(x):
        return field.pow(_cube_root(field), x[1]) if isinstance(x, tuple) else x

    ctx.simples = [
        ModuleRep(
            ctx,
            len(act[ctx.gen_names[0]]),
            {g: Mat.from_entries(field, [[entry(x) for x in row] for row in m]) for g, m in act.items()},
            label,
        )
        for label, act in _GROUP_SIMPLES[name].items()
    ]
    for S in ctx.simples:
        _assert_is_representation(ctx, S)

    ctx.pims = _group_pims(ctx)
    _verify_context(ctx)
    _CONTEXTS[key] = ctx
    return ctx


def element_matrices(M: ModuleRep) -> dict:
    """The matrix of every group element acting on M, cached in M.cache, a
    dict that callers only read; ContextMismatch unless M is a module over
    a group algebra."""
    elements = M.algebra.elements
    if elements is None:
        raise ContextMismatch(f"{M.label} is a module over {M.algebra.name}, not over a group")
    if "element_mats" not in M.cache:
        M.cache["element_mats"] = {x: M.word_matrix(w) for x, w in elements.items()}
    return M.cache["element_mats"]


def _assert_is_representation(ctx, M):
    mats = element_matrices(M)
    for x, mx in mats.items():
        for gname in ctx.gen_names:
            g = ctx.gen_perms[gname]
            if mats[perm_compose(g, x)] != M.action[gname].mul(mx):
                raise SplitFailure(f"{M.label} is not a {ctx.name}-representation")


def _group_pims(ctx):
    """P_i is the first summand of the regular module whose top is S_i,
    and there are dim S_i such summands.  Every summand must have a
    simple top; _verify_context, which runs next, certifies that the
    simples are absolutely simple and pairwise non-isomorphic, so that
    the top names the summand up to isomorphism."""
    parts = calculus.decompose(ctx.regular)
    tops = []
    for part in parts:
        top = calculus.top_multiplicities(part)
        if sum(top) != 1:
            raise SplitFailure(f"{ctx.name}: a summand of the regular module has top {top}")
        tops.append(top.index(1))
    pims = []
    for i, S in enumerate(ctx.simples):
        if tops.count(i) != S.dim:
            raise SplitFailure(
                f"{ctx.name}: {S.label} has cover multiplicity {tops.count(i)}, expected {S.dim}"
            )
        pims.append(parts[tops.index(i)].relabel(f"P({S.label})"))
    return pims


def _spans_its_endomorphisms(S) -> bool:
    """Do the matrices of the algebra span End_k(S)?  By Burnside's
    theorem that holds iff S is absolutely simple.  The span of the
    identity is closed under left multiplication by the generators, one
    new independent product at a time."""
    ident = Mat.identity(S.field, S.dim)
    span = RowBasis(S.field, S.dim * S.dim)
    span.insert(ident.vector())
    frontier = [ident]
    while frontier:
        products = [S.action[g].mul(m) for m in frontier for g in S.algebra.gen_names]
        frontier = [x for x in products if span.insert(x.vector())]
    return span.rank == S.dim * S.dim


def _verify_context(ctx):
    # the simples are absolutely simple and pairwise non-isomorphic: then
    # the basis maps M -> S_i take M onto its top (calculus.rad_rows,
    # projective_cover), and those from D(M) read its socle (socle_rows)
    for i, S in enumerate(ctx.simples):
        if not _spans_its_endomorphisms(S):
            raise SplitFailure(f"{ctx.name}: {S.label} is not absolutely simple")
        for T in ctx.simples[:i]:
            if calculus.hom_dim(T, S):
                raise SplitFailure(f"{ctx.name}: simples {T.label} and {S.label} are isomorphic")
    # with vertex idempotents [M : S_i] = rank e_i on the module
    # (calculus.composition_multiplicities): e_j acts on S_i as delta_ij
    # and every arrow as 0
    for S, vertex in zip(ctx.simples, ctx.idempotents):
        one, zero = Mat.identity(ctx.field, S.dim), Mat.zeros(ctx.field, S.dim, S.dim)
        if any(S.action[g] != (one if g == vertex else zero) for g in ctx.gen_names):
            raise SplitFailure(f"{ctx.name}: {S.label} is not the simple at {vertex}")
    # dim check: regular = sum of PIMs with multiplicity dim(simple), so
    # the list of simples is complete
    if sum(P.dim * S.dim for P, S in zip(ctx.pims, ctx.simples)) != ctx.regular.dim:
        raise SplitFailure(f"{ctx.name}: PIM/simple dimension count failed")
    # Omega^-1 = D Omega D: the dual of each PIM is a PIM.  An invertible
    # intertwiner proves it whatever the premise of indec_isomorphic, so
    # D(regular) satisfies the relations; the regular module is faithful,
    # so ctx.opposite is an anti-automorphism and D an exact duality that
    # takes projectives to projectives
    for P in ctx.pims:
        DP = calculus.dual(P)
        if not any(calculus.indec_isomorphic(DP, Q) for Q in ctx.pims):
            raise SplitFailure(f"{ctx.name}: the dual of {P.label} is not projective")
    # so D is exact and D(soc P) = top D(P): the socle of each PIM is its
    # top when top D(P_i) = D(S_i), and P_i is the injective hull of S_i
    # (stable Hom without a cover)
    for P, S in zip(ctx.pims, ctx.simples):
        if calculus.top_multiplicities(calculus.dual(P)) != calculus.top_multiplicities(calculus.dual(S)):
            raise SplitFailure(f"{ctx.name}: socle of {P.label} is not its top")
