"""Independent routes that the library itself no longer takes, kept as
test oracles."""

from stringalg import calculus as C


def ext1_dim_cocycles(M, N) -> int:
    """dim Ext^1(M, N) as the classes of cocycles Omega(M) -> N modulo the
    restrictions of maps P(M) -> N, on the cover of M and its kernel."""
    C._check_context(M, N)
    _, OmegaM, _, cob = C._coboundaries(M, N)
    return C.hom_dim(OmegaM, N) - cob.rank


def composition_multiplicities_hom(M) -> list[int]:
    """[M : S_i] as dim Hom(P_i, M), the simples being split."""
    return [C.hom_dim(P_i, M) for P_i in M.algebra.pims]
