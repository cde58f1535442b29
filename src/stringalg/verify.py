"""The verification suite: every headline finite computation behind the
classification, run as named checks with machine-readable results.

Each check compares computed values against stated expectations with exact
arithmetic.  Reports are deterministic for a fixed config (check order is
fixed and timings are excluded unless requested).
"""

from __future__ import annotations

import json
import time

from . import __version__, calculus as C
from .algebra import group_context, quiver_context
from .arquiver import (
    classification_targets,
    component_window,
    syzygy_string,
    three_tube_boundary,
)
from .chars import (
    PERM_CHARACTER,
    char_table,
    check_lift_counts,
    lift_characters,
)
from .errors import ConfigError
from .gf import BAND_SCALARS, GF4, OMEGA
from .groupside import (
    TOWER_LIMIT,
    extension_tower,
    induce,
    involution_profile,
    is_free_rank_one_over_c2,
    perm_module,
    standard_reps,
)
from .matrix import Mat
from .modules import band_module, string_hom_dim, string_module
from .rep import direct_sum
from .words import (
    Band,
    String,
    enumerate_bands,
    enumerate_strings,
    make_string,
    mirror_string,
    parse_word,
    top_socle_decomposition,
)

# the largest value of each scan bound of SuiteConfig
GUARDS = {"string_scan_len": 16, "pair_len": 10, "mirror_len": 16, "band_len": 14, "tower_n": TOWER_LIMIT, "radius": 8}

C_PERIOD = "gamma eta- beta alpha- beta- eta gamma- alpha-"
# the same band, rotated by six letters
X_PERIOD = " ".join(C_PERIOD.split()[6:] + C_PERIOD.split()[:6])


class SuiteConfig:
    """The suite's settings: each field defaults to its class attribute
    and may be given by keyword."""

    sections: tuple = ()  # empty = all
    string_scan_len: int = 12
    pair_len: int = 8
    mirror_len: int = 10
    band_len: int = 12
    tower_n: int = 5
    radius: int = 6
    seed: int = 0
    include_timings: bool = False

    def __init__(self, **fields):
        for key, value in fields.items():
            if key not in _CONFIG_TYPES:
                raise TypeError(f"SuiteConfig has no field {key!r}")
            setattr(self, key, value)

    def validate(self):
        """ConfigError unless each field has its type (a bool is not an
        int; sections is a tuple or list of check ids), each scan bound
        lies in 0..its guard, and each section is a known check."""
        for key, kind in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if kind is list:
                typed = type(value) in (tuple, list) and all(type(s) is str for s in value)
            else:
                typed = type(value) is kind
            if not typed:
                want = "a list of check ids" if kind is list else f"of type {kind.__name__}"
                raise ConfigError(f"config key {key!r} must be {want}, not {value!r}")
        for key, guard in GUARDS.items():
            if not 0 <= getattr(self, key) <= guard:
                raise ConfigError(f"{key} must lie in 0..{guard}, not {getattr(self, key)}")
        known = set(ALL_CHECKS)
        for s in self.sections:
            if s not in known:
                raise ConfigError(f"unknown section {s!r}")


_CONFIG_TYPES = {**dict.fromkeys((*GUARDS, "seed"), int), "include_timings": bool, "sections": list}


def config_from_dict(data: dict) -> SuiteConfig:
    """The suite config of a JSON object; an unknown key raises
    ConfigError, and so does SuiteConfig.validate."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    cfg = SuiteConfig()
    for key, value in data.items():
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _c_family_word(level: int, n: int):
    parts = ["alpha-"] + [C_PERIOD] * (n - 1)
    if level >= 2:
        parts.append("gamma eta-")
    if level >= 3:
        parts.append("beta alpha- beta-")
    return parse_word(" ".join(parts))


def _x_family_word(level: int, n: int):
    if level == 1:
        parts = [X_PERIOD] * n + ["gamma- alpha-"]
    else:
        parts = [X_PERIOD] * (n - 1) + ["gamma- alpha- gamma eta-"]
        if level == 0:
            parts.append("beta alpha- beta-")
    return parse_word(" ".join(parts))


def _witness(word, src: int, dst: int) -> bool:
    """Is f: z_src -> z_dst, all else 0, an endomorphism of M(word) that
    does not factor through a projective, with stable End(M) of dimension
    >= 2?  The last test follows from the first two (f is a nonzero
    nilpotent, so f and 1 are independent in the stable End of a
    non-projective M); it stays as the stable-Hom-formula cross-check of
    the lifting route behind factors_through_projective."""
    M = string_module(word)
    f = Mat.zeros(M.field, M.dim, M.dim)
    f.set_entry(dst, src, 1)
    return C.is_module_map(f, M, M) and not C.factors_through_projective(f, M, M) and C.stable_end_dim(M) >= 2


# -- the checks -----------------------------------------------------------------


def check_algebra_structure(cfg, memo):
    lam = quiver_context(1)
    ks4 = group_context("S4", 1)
    computed = {
        "quiver_algebra_dim": lam.regular.dim,
        "quiver_pim_dims": [P.dim for P in lam.pims],
        "quiver_p0_layers": C.radical_series(lam.pims[0]),
        "quiver_p1_layers": C.radical_series(lam.pims[1]),
        "s4_simple_dims": [S.dim for S in ks4.simples],
        "s4_pim_dims": [P.dim for P in ks4.pims],
        "s4_regular_summands": sorted(p.dim for p in C.decompose(ks4.regular)),
    }
    expected = {
        "quiver_algebra_dim": 11,
        "quiver_pim_dims": [6, 5],
        "quiver_p0_layers": [[1, 0], [1, 1], [1, 1], [1, 0]],
        "quiver_p1_layers": [[0, 1], [1, 1], [1, 0], [0, 1]],
        "s4_simple_dims": [1, 2],
        "s4_pim_dims": [8, 8],
        "s4_regular_summands": [8, 8, 8],
    }
    return (
        "algebra structure: 11-dim quiver algebra with the stated projective "
        "layers; mod-2 S4 group algebra with simples (1,2) and projectives (8,8)",
        {},
        expected,
        computed,
    )


def _a_string(n: int) -> String:
    """A_n = (alpha beta- gamma-)^n; B_n is its mirror."""
    return make_string(" ".join(["alpha beta- gamma-"] * n))


def check_ab_tower_stable_endo(cfg, memo):
    rows = {}
    for n in range(1, 6):
        a = _a_string(n)
        for name, w in (("A", a), ("B", mirror_string(a))):
            M = string_module(w)
            rows[f"{name}{n}"] = [C.stable_end_dim(M), C.ext1_dim(M, M)]
    return (
        "the two families of repeated three-letter strings have stable "
        "endomorphism ring k and one-dimensional self-extensions for n = 1..5",
        {"n_max": 5},
        {k: [1, 1] for k in rows},
        rows,
    )


def check_mirror_symmetry(cfg, memo):
    bound = cfg.mirror_len
    data = {}
    bad = []
    for s in enumerate_strings(bound):
        if not s.letters or s in data:
            continue
        m = mirror_string(s)
        for t in (s, m):
            if t not in data:
                M = string_module(t)
                data[t] = (C.stable_end_dim(M), C.ext1_dim(M, M))
        if data[s] != data[m]:
            bad.append([s.text(), m.text(), list(data[s]), list(data[m])])
    return (
        "stable endomorphism and self-extension dimensions are invariant "
        f"under the arrow-swap mirror on all strings of length <= {bound}",
        {"max_len": bound},
        {"violations": []},
        {"violations": bad, "strings_checked": len(data)},
    )


def check_s1_component(cfg, memo):
    (s1,) = classification_targets()["s1-family"]
    orbit_dims = {}
    M1 = string_module(s1)
    for i in range(-4, 5):
        N = C.syzygy(M1, i) if i else M1
        orbit_dims[str(i)] = [N.dim, C.stable_end_dim(N)]
    seds = {k: v[1] for k, v in orbit_dims.items()}

    witnesses = {}
    for n in range(1, 5):
        for level in (1, 2, 3):
            witnesses[f"C{level},{n}"] = _witness(_c_family_word(level, n), 0, 1)

    nodes = component_window(s1, 2).nodes
    found_s00 = make_string("alpha") in nodes
    found_o = syzygy_string(make_string("alpha- gamma eta-")) in nodes
    return (
        "the syzygy orbit of the 1-dim string at the second vertex has stable "
        "endomorphism ring k for |i| <= 4; the three surrounding string "
        "families have a non-projective endomorphism z0 -> z1 (n = 1..4); "
        "the radius-2 window contains the uniserial S0,S0 and the syzygy of "
        "the length-3 mixed string module",
        {"orbit_range": 4, "family_n_max": 4, "radius": 2},
        {
            "stable_end_on_orbit": {str(i): 1 for i in range(-4, 5)},
            "witnesses": {k: True for k in witnesses},
            "window_hits": [True, True],
        },
        {
            "stable_end_on_orbit": seds,
            "orbit_dims": {k: v[0] for k, v in orbit_dims.items()},
            "witnesses": witnesses,
            "window_hits": [found_s00, found_o],
        },
    )


def check_three_tube_and_induction(cfg, memo):
    boundary = three_tube_boundary()
    boundary_sed = {b.text(): C.stable_end_dim(string_module(b)) for b in boundary}
    period3 = syzygy_string(boundary[2]) == boundary[0]

    witnesses = {}
    for n in range(1, 5):
        for level in (-1, 0, 1):
            w = _x_family_word(level, n)
            witnesses[f"X{level},{n}"] = len(w.letters) + 1 == 8 * n + 3 * level and _witness(w, 0, 4)

    reps4 = standard_reps(2)
    T1, T11, E12 = reps4["T1"], reps4["T11"], reps4["E12"]
    ind_ok = C.is_isomorphic(induce(reps4["E12"]), T11)
    exts = {
        "T11_self": C.ext1_dim(T11, T11),
        "E12_self": C.ext1_dim(E12, E12),
        "T1_self": C.ext1_dim(T1, T1),
    }
    return (
        "the rank-3 tube boundary consists of three modules with stable "
        "endomorphism ring k, closed under the triple syzygy; interior "
        "families have a non-projective z0 -> z4 endomorphism; over GF(4) "
        "the induced length-2 uniserial matches the uniserial on two copies "
        "of the 2-dim simple, whose self-extensions vanish while the 2-dim "
        "simple has a one-dimensional one",
        {"interior_n_max": 4},
        {
            "boundary_stable_end": {b.text(): 1 for b in boundary},
            "syzygy_period_3": True,
            "witnesses": {k: True for k in witnesses},
            "induction_match": True,
            "ext_dims": {"T11_self": 0, "E12_self": 0, "T1_self": 1},
        },
        {
            "boundary_stable_end": boundary_sed,
            "syzygy_period_3": period3,
            "witnesses": witnesses,
            "induction_match": ind_ok,
            "ext_dims": exts,
        },
    )


def check_sheet_classification_scan(cfg, memo):
    bound = cfg.string_scan_len
    targets = classification_targets()
    (s1,) = targets["s1-family"]
    windows = [component_window(seed, 12, guard=False) for seed in targets["s0-family"]]
    for w in windows:
        deep = [t for t, d in w.nodes.items() if len(t.letters) <= bound and d > 10]
        if deep:
            raise ConfigError("window radius margin violated; enlarge the window")
    family0 = {t for w in windows for t in w.nodes if len(t.letters) <= bound}
    orbit1 = {s1}
    for step in (1, -1):
        cur = s1
        while True:
            cur = syzygy_string(cur, step)
            if len(cur.letters) + 1 > bound + 1:
                break
            orbit1.add(cur)
    boundary3 = {t for t in three_tube_boundary() if len(t.letters) <= bound}
    expected_family = family0 | orbit1 | boundary3

    sedim1 = set()
    for s in enumerate_strings(bound):
        if C.stable_end_dim(string_module(s)) == 1:
            sedim1.add(s)
    missing = sorted(t.text() for t in expected_family - sedim1)
    extra = sorted(t.text() for t in sedim1 - expected_family)
    return (
        "among all strings of bounded length, stable endomorphism ring k "
        "occurs exactly on the two components through the trivial-vertex "
        "string and its syzygy, the syzygy orbit of the other vertex "
        "string, and the rank-3 tube boundary",
        {"max_len": bound},
        {"missing": [], "extra": []},
        {
            "missing": missing,
            "extra": extra,
            "stable_end_k_count": len(sedim1),
            "family_sizes": {
                "trivial_vertex_components": len(family0),
                "second_vertex_orbit": len(orbit1),
                "tube_boundary": len(boundary3),
            },
        },
    )


def check_band_scan(cfg, memo):
    bound = cfg.band_len
    bands = enumerate_bands(bound)
    bad_pieces = []
    bad_stable = []
    for b in bands:
        texts = {p.text() for p in top_socle_decomposition(b)}
        if "beta- gamma-" not in texts and "eta-" not in texts:
            bad_pieces.append(b.text())
        for lam, degree in BAND_SCALARS.values():
            se = C.stable_end_dim(band_module(b, lam, 1, degree=degree))
            if se < 2:
                bad_stable.append([b.text(), lam, degree, se])
    tube_witnesses = {}
    for n in range(0, 4):
        w = parse_word(" ".join(["beta- gamma-"] + ["alpha beta- gamma-"] * n))
        tube_witnesses[f"n={n}"] = _witness(w, 0, 3 * n + 2)
    return (
        "every band of bounded length has a top/socle piece beta-gamma- or "
        "eta-, and all its one-parameter modules (three scalar values over "
        "GF(2)/GF(4)) have stable endomorphism dimension >= 2; the string "
        "1-tube family is witnessed by the z0 -> z_{3n+2} endomorphism",
        {"max_len": bound, "scalars": [f"{name}@GF{2**degree}" for name, (_, degree) in BAND_SCALARS.items()]},
        {"bad_pieces": [], "bad_stable": [], "tube_witnesses": {f"n={n}": True for n in range(4)}},
        {
            "bad_pieces": bad_pieces,
            "bad_stable": bad_stable,
            "tube_witnesses": tube_witnesses,
            "bands_checked": len(bands),
        },
    )


def _tower(cfg, memo):
    if "tower" not in memo:
        memo["tower"] = extension_tower(cfg.tower_n)
    return memo["tower"]


def check_extension_tower(cfg, memo):
    tower = _tower(cfg, memo)
    reps = standard_reps(1)
    M = perm_module()
    dims = [v.dim for v in tower]
    profiles = {f"V{n}": list(involution_profile(v)) for n, v in enumerate(tower)}
    hom_dims = {
        f"n={n}": C.hom_dim(M, tower[n - 1]) for n in range(1, len(tower))
    }
    ext_dims = {
        f"n={n}": C.ext1_dim(M, tower[n - 1]) for n in range(1, len(tower))
    }
    ks4 = group_context("S4", 1)
    e_profiles = {}
    for n in range(1, cfg.tower_n + 1):
        En = direct_sum([ks4.pims[0]] * n + [reps["T00"]])
        e_profiles[f"n={n}"] = list(involution_profile(En))
    free = {
        "T00": is_free_rank_one_over_c2(reps["T00"]),
        "T1": is_free_rank_one_over_c2(reps["T1"]),
    }
    n_max = cfg.tower_n
    return (
        "the extension tower over the trivial module builds with dims 4n+1, "
        "Hom/Ext counts n and 1 at each step, involution profiles (1,2n), "
        "profiles (0,4n+1) for projective-plus-uniserial sums, and free "
        "rank-1 restrictions of the two length-2 uniserials",
        {"n_max": n_max},
        {
            "dims": [4 * n + 1 for n in range(n_max + 1)],
            "profiles": {f"V{n}": [1, 2 * n] for n in range(n_max + 1)},
            "hom_dims": {f"n={n}": n for n in range(1, n_max + 1)},
            "ext_dims": {f"n={n}": 1 for n in range(1, n_max + 1)},
            "e_profiles": {f"n={n}": [0, 4 * n + 1] for n in range(1, n_max + 1)},
            "free_rank_one": {"T00": True, "T1": True},
        },
        {
            "dims": dims,
            "profiles": profiles,
            "hom_dims": hom_dims,
            "ext_dims": ext_dims,
            "e_profiles": e_profiles,
            "free_rank_one": free,
        },
    )


def check_characters(cfg, memo):
    table = char_table()
    chi = table["irreducibles"]
    perm_ok = PERM_CHARACTER == chi[0] + chi[2]
    degrees = {f"n={n}": lift_characters(n)[0].degree for n in range(7)}
    tower = _tower(cfg, memo)
    M = perm_module()
    n_hi = min(6, len(tower))  # step n needs V_{n-1}
    lift_checks = {}
    for n in range(1, n_hi + 1):
        k_side = C.hom_dim(M, tower[n - 1])
        lift_checks[f"n={n}"] = check_lift_counts(n, k_side)
    degree_identity = all(
        c.degree == sum(d * b for d, b in zip(row, table["brauer_degrees"]))
        for c, row in zip(chi, table["decomposition_matrix"])
    )
    return (
        "the permutation character is the sum of the trivial and the "
        "standard character; lift characters have degrees 4n+1; the "
        "generic Hom count sits one below the modular one at every tower "
        "step; decomposition degrees are consistent",
        {"n_max": n_hi},
        {
            "perm_character_split": True,
            "degrees": {f"n={n}": 4 * n + 1 for n in range(7)},
            "lift_checks": {f"n={n}": True for n in range(1, n_hi + 1)},
            "degree_identity": True,
        },
        {
            "perm_character_split": perm_ok,
            "degrees": degrees,
            "lift_checks": lift_checks,
            "degree_identity": degree_identity,
        },
    )


def check_cross_engine_morita(cfg, memo):
    bound = cfg.pair_len
    strings = enumerate_strings(bound)
    mods = {s: string_module(s) for s in strings}
    mismatches = []
    for a in strings:
        for b in strings:
            d1 = string_hom_dim(a, b)
            d2 = C.hom_dim(mods[a], mods[b])
            if d1 != d2:
                mismatches.append([a.text(), b.text(), d1, d2])

    tower = _tower(cfg, memo)
    morita = {}
    for n in range(1, min(4, cfg.tower_n) + 1):
        a = string_module(_a_string(n))
        b = string_module(mirror_string(_a_string(n)))
        v = tower[n]
        morita[f"n={n}"] = {
            "A_side": [C.stable_end_dim(a), C.ext1_dim(a, a)],
            "B_side": [C.stable_end_dim(b), C.ext1_dim(b, b)],
            "group_side": [C.stable_end_dim(v), C.ext1_dim(v, v)],
        }

    ks4 = group_context("S4", 1)
    # the heart rad(P)/soc(P) is rad(P/soc P), as soc P lies in rad P
    PT0 = ks4.pims[0]
    Q = C.quotient_module(PT0, C.socle_rows(PT0))
    heart, _ = C.sub_module(Q, C.rad_rows(Q))
    parts = C.decompose(heart)
    lam_a1 = string_module(_a_string(1))
    lam_b1 = string_module(mirror_string(_a_string(1)))
    targets = [C.syzygy(lam_b1, -1), C.syzygy(lam_a1, 1)]
    target_group_dims = sorted(
        m[0] + 2 * m[1] for m in (C.composition_multiplicities(t) for t in targets)
    )
    heart_dims = sorted(p.dim for p in parts)
    return (
        "the combinatorial and linear-algebra hom engines agree on all "
        "bounded string pairs; stable and extension dimensions agree "
        "between the quiver-side families and the group-side tower; the "
        "heart of the first projective splits into two indecomposables "
        "with the matching dimensions",
        {"pair_len": bound, "n_max": min(4, cfg.tower_n)},
        {
            "hom_mismatches": [],
            "morita": {
                k: {"A_side": [1, 1], "B_side": [1, 1], "group_side": [1, 1]}
                for k in morita
            },
            "heart_summand_dims": target_group_dims,
        },
        {
            "hom_mismatches": mismatches,
            "pairs_checked": len(strings) ** 2,
            "morita": morita,
            "heart_summand_dims": heart_dims,
        },
    )


def observe_band_conventions(cfg, memo):
    """Open-question observations, recorded rather than asserted: how the
    scalar transforms under band inversion, and double-syzygy invariance
    of band modules.  The band tags encode the conventions observed here,
    so the isomorphism tests run on plain copies, on Hom."""

    def untagged(word, lam):
        return band_module(word, lam, 1, degree=2).plain()

    b = Band.from_word(parse_word("eta- beta alpha- gamma"))
    lam = OMEGA
    m_inv = untagged(b.word.inverse(), lam)
    same = C.is_isomorphic(m_inv, untagged(b, lam))
    inverted = C.is_isomorphic(m_inv, untagged(b, GF4.inv(lam)))
    tau_fixed = {}
    for band in enumerate_bands(6):
        M = band_module(band, 1, 1).plain()
        tau_fixed[band.text()] = C.indec_isomorphic(C.syzygy(M, 2), M)
    rotation_ok = all(C.is_isomorphic(untagged(b, lam), untagged(b.rotation(i), lam)) for i in range(len(b.letters)))
    return (
        "observations: rotation invariance of band modules at fixed scalar; "
        "the scalar inverts under band inversion (recorded, not asserted); "
        "double syzygy fixes the tested band modules",
        {"band": b.text(), "scalar": "w over GF(4)"},
        {"rotation_invariant": True, "tau_fixed": {k: True for k in tau_fixed}},
        {
            "rotation_invariant": rotation_ok,
            "inversion_keeps_scalar": same,
            "inversion_inverts_scalar": inverted,
            "tau_fixed": tau_fixed,
        },
    )


ALL_CHECKS = {
    "c01-algebra-structure": check_algebra_structure,
    "c02-ab-families-stable-endo": check_ab_tower_stable_endo,
    "c03-mirror-symmetry": check_mirror_symmetry,
    "c04-s1-component": check_s1_component,
    "c05-three-tube-and-induction": check_three_tube_and_induction,
    "c06-sheet-classification-scan": check_sheet_classification_scan,
    "c07-band-scan": check_band_scan,
    "c08-extension-tower": check_extension_tower,
    "c09-characters": check_characters,
    "c10-cross-engine-morita": check_cross_engine_morita,
    "obs-band-conventions": observe_band_conventions,
}


def _subset_ok(expected, computed):
    """Expected values must appear in computed with equal values (computed
    may carry extra observational keys)."""
    if isinstance(expected, dict):
        return all(k in computed and _subset_ok(v, computed[k]) for k, v in expected.items())
    return expected == computed


def _raising_module(exc: Exception) -> str | None:
    """The stringalg module of the innermost traceback frame that lies in
    stringalg, or None if no frame does."""
    found = None
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("stringalg."):
            found = name
        tb = tb.tb_next
    return found


def run_suite(cfg: SuiteConfig) -> dict:
    cfg.validate()
    sections = cfg.sections or tuple(ALL_CHECKS)
    memo = {}
    records = []
    for check_id in ALL_CHECKS:
        if check_id not in sections:
            continue
        fn = ALL_CHECKS[check_id]
        started = time.perf_counter()
        try:
            claim, inputs, expected, computed = fn(cfg, memo)
            status = "pass" if _subset_ok(expected, computed) else "fail"
        except Exception as exc:  # a crashed check is a failed check
            claim, inputs, expected = "", {}, {}
            computed = {
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
                "error_module": _raising_module(exc),
            }
            status = "fail"
        record = {
            "check_id": check_id,
            "claim": claim,
            "inputs": inputs,
            "expected": expected,
            "computed": computed,
            "status": status,
        }
        if cfg.include_timings:
            record["seconds"] = round(time.perf_counter() - started, 3)
        records.append(record)
    summary = {
        "pass": sum(r["status"] == "pass" for r in records),
        "fail": sum(r["status"] == "fail" for r in records),
        "undecided": sum(r["status"] == "undecided" for r in records),
    }
    return {
        "suite_version": __version__,
        "config": {
            "sections": list(sections),
            **{key: getattr(cfg, key) for key in GUARDS},
            "seed": cfg.seed,
        },
        "checks": records,
        "summary": summary,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
