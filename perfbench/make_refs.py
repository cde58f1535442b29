"""Write the workload populations and their reference answers to ref/.

    python3 perfbench/make_refs.py [workload ...]

Every item is run once through the same code the benchmark times, so the
stored answer is what the existing routes give; inputs the program refuses
stay in the population with their refusal as the answer.  hom-pairs also
checks that its two Hom routes agree on every pair.  Run this only to
define a new population; the benchmark checks every answer against these
files.
"""

from __future__ import annotations

import json
import os
import random
import sys

from workloads import REF_DIR, WORKLOADS, CliQueries, Workload, commit, jsonable, require_sources

BAND_DIM_CAP = 16  # dim of M(B, lambda, m) = len(B) * m; see README.md
BAND_SCALARS = ("w", "w2")
SUMS = 12  # per sum stratum
CLI_STRINGS = 24  # items per string-argument CLI command
CLI_OMEGA_LENGTHS = (3, 4, 5, 6, 7, 8, 9, 4, 6, 8)
CLI_OMEGA_MAX_OUT = 9  # letters of the syzygy string; see README.md
VERIFY_SECTION = "c02-ab-families-stable-endo"  # a light check: string modules, stable End


def string_scan_population(words):
    return [("strings", [s.text() for s in words.enumerate_strings(12)])]


def gf4_group_population(words, rng):
    from stringalg.calculus import end_dim
    from stringalg.modules import string_module

    bands = words.enumerate_bands(14)
    strata = []
    for mult in (1, 2, 3):
        items = [
            {"kind": "band", "band": b.text(), "lam": lam, "mult": mult, "rot": rng.randrange(1, len(b))}
            for b in bands
            if len(b) * mult <= BAND_DIM_CAP
            for lam in BAND_SCALARS
        ]
        strata.append((f"band-m{mult}", items))
    # direct-sum summands over GF(4) by End dimension: decompose certifies an
    # indecomposable by trying all 4^d endomorphisms, so d sets the cost, and
    # it refuses (SplitFailure) from d = 7 on (ROADMAP item 4)
    by_end = {}
    for s in words.enumerate_strings(6):
        if s.letters:
            by_end.setdefault(end_dim(string_module(s, 2)), []).append(["string", s.text()])
    light = [p for d in (1, 2, 3) for p in by_end.get(d, [])]
    light += [["band", b.text(), lam] for b in words.enumerate_bands(4) for lam in BAND_SCALARS]
    heavy = by_end[5]
    refused = [p for d, parts in by_end.items() if d >= 7 for p in parts]
    for stratum, pool in (("sum", heavy), ("sum-refused", refused)):
        sums = []
        for _ in range(SUMS):
            parts = [rng.choice(pool)] + rng.sample(light, rng.choice((1, 2)))
            perm = list(range(len(parts)))
            while perm == sorted(perm):
                rng.shuffle(perm)
            sums.append({"kind": "sum", "parts": parts, "perm": perm})
        strata.append((stratum, sums))
    group = [{"kind": "tower", "n": n} for n in range(1, 6)]
    group += [{"kind": "induce", "module": name} for name in ("E0", "E1", "E2", "E12")]
    group += [
        {"kind": "restrict", "module": name, "sub": sub}
        for name in ("T0", "T1", "PermRep", "T00", "T11", "V1", "V2", "V3", "V4")
        for sub in ("A4", "C2")
    ]
    strata.append(("group", group))
    return strata


def cli_queries_population(words, rng):
    from stringalg.calculus import syzygy
    from stringalg.modules import string_module

    strings = [s.text() for s in words.enumerate_strings(9) if 3 <= len(s.letters) <= 9]
    by_len = {}
    for s in words.enumerate_strings(9):
        if 3 <= len(s.letters) and syzygy(string_module(s)).dim - 1 <= CLI_OMEGA_MAX_OUT:
            by_len.setdefault(len(s.letters), []).append(s.text())
    omega = [["omega", "--string", rng.choice(by_len[n])] for n in CLI_OMEGA_LENGTHS]
    component = [["component", "--string", t, "--radius", str(rng.choice((1, 2, 3)))] for t in rng.sample(strings, CLI_STRINGS)]
    taxonomy = [["taxonomy", "--string", t] for t in rng.sample(strings, CLI_STRINGS)]
    stable_end = [["stable-end", "--string", t] for t in rng.sample(strings, CLI_STRINGS)]
    hom = [["hom", "--source", rng.choice(strings), "--target", rng.choice(strings)] for _ in range(CLI_STRINGS)]
    ext1 = [["ext1", "--source", rng.choice(strings), "--target", rng.choice(strings)] for _ in range(CLI_STRINGS)]
    modules = [
        ["module", "--band", b.text(), "--lam", lam, "--mult", str(mult)]
        for b in words.enumerate_bands(8)
        for lam in ("1", "w", "w2")
        for mult in (1, 2)
    ]
    verify = [["verify", "--sections", VERIFY_SECTION]]
    strata = [omega, component, taxonomy, stable_end, hom, ext1, rng.sample(modules, CLI_STRINGS), verify]
    return list(zip(CliQueries.COMMANDS, strata))


def answer(wl: Workload, strata):
    """Run every item once; the outcome is its reference answer."""
    out = {"workload": wl.name, "commit": commit(), "strata": []}
    wl.ref = {"strata": [{"name": name, "items": [{"spec": spec} for spec in items]} for name, items in strata]}
    wl.prepare()
    if wl.setup_errors:
        raise SystemExit("; ".join(wl.setup_errors))
    for k, (name, items) in enumerate(strata):
        entries = []
        for i, spec in enumerate(items):
            entry = {"spec": spec, "ref": jsonable(wl.run(wl.item(k, i)))}
            truth = known_answer(spec)
            if truth is not None:
                entry["truth"] = truth
            entries.append(entry)
            print(wl.name, name, i, entry["ref"], file=sys.stderr, flush=True)
        out["strata"].append({"name": name, "items": entries})
    return out


def known_answer(spec):
    """The answer known by construction, where there is one: a rotated band
    module is isomorphic to the band module, and a direct sum of string and
    one-parameter band modules (all indecomposable) splits into them."""
    if not isinstance(spec, dict):
        return None
    if spec["kind"] == "band":
        return [None, True]
    if spec["kind"] == "sum":
        dims = sorted(len(p[1].split()) + (1 if p[0] == "string" else 0) for p in spec["parts"])
        return [dims, True]
    return None


def hom_pairs(wl: Workload):
    """The full pair table, one row of base-36 digits per source string."""
    wl.ref = {"strings": [s.text() for s in wl.words.enumerate_strings(10)]}
    wl.prepare()
    rows = []
    for a in wl.strings:
        row = []
        for b in wl.strings:
            comb, mat = wl.run((a, b))
            if comb != mat:
                raise SystemExit(f"Hom routes disagree on {a.text()} -> {b.text()}: {comb} vs {mat}")
            row.append("0123456789abcdefghijklmnopqrstuvwxyz"[comb])
        rows.append("".join(row))
        print(wl.name, a.text(), file=sys.stderr, flush=True)
    return {"workload": wl.name, "commit": commit(), "strings": wl.ref["strings"], "dims": rows}


def dump(data, path):
    """JSON with one population item per line, for readable diffs."""
    head = {k: v for k, v in data.items() if k not in ("strata", "dims", "strings")}
    lines = ["{"] + [f"{json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    if "strata" in data:
        lines.append('"strata": [')
        for n, stratum in enumerate(data["strata"]):
            lines.append(f'{{"name": {json.dumps(stratum["name"])}, "items": [')
            items = [json.dumps(entry) for entry in stratum["items"]]
            lines.append(",\n".join(items))
            lines.append("]}" + ("," if n + 1 < len(data["strata"]) else ""))
        lines.append("]")
    else:
        for key, end in (("strings", ","), ("dims", "")):
            lines.append(f"{json.dumps(key)}: [")
            lines.append(",\n".join(json.dumps(v) for v in data[key]))
            lines.append("]" + end)
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    json.loads(open(path).read())  # the file must parse


def main(names):
    require_sources()
    import stringalg.words as words

    os.makedirs(REF_DIR, exist_ok=True)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name](ref={})
        wl.import_package()
        rng = random.Random(f"{name}/population")
        if name == "hom-pairs":
            data = hom_pairs(wl)
        elif name == "string-scan":
            data = answer(wl, string_scan_population(words))
        elif name == "gf4-group":
            data = answer(wl, gf4_group_population(words, rng))
        else:
            data = answer(wl, cli_queries_population(words, rng))
        dump(data, REF_DIR / f"{name}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
