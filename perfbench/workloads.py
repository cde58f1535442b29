"""The four workloads of the stringalg benchmark.

Each workload has a fixed population of items, split into strata of
items of similar cost.  The population and the answer to every item were
computed once with the existing routes and are stored in
ref/<workload>.json (written by make_refs.py).  A run walks the population
in a seeded order: round after round it takes one item from each stratum,
each stratum following its own seeded shuffle and reshuffled when used up.
So every round costs about the same, and a run's throughput does not hinge
on which items its seed draws.

Items go through stringalg's public functions, always looked up on the
module object at call time, so that a traced run sees the same calls.

An item's outcome is a list with one entry per operation.  An operation
that raises a typed `StringAlgError` yields "!<ErrorName>" (a refusal); any
other exception fails the whole item.  An item passes when every entry
equals the reference.  Where the reference is a refusal and the right
answer is known by construction (a direct sum of known indecomposables, a
rotated band), that answer is accepted too, so a later fix of the refusal
does not read as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from spans import merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"

OK, REFUSED, FAILED = "ok", "refused", "failed"


class MissingSources(Exception):
    pass


def require_sources():
    """Put the checkout's src/ first on sys.path; refuse to run without it,
    so that no other installed copy of stringalg is measured."""
    if not (SRC / "stringalg" / "__init__.py").is_file():
        raise MissingSources(f"no stringalg package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout (git may
    not look above the checkout for a repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def item_order(sizes, tag):
    """Endless seeded sequence of (stratum, index) pairs: round after round
    one index per stratum, each stratum walked through its own shuffle."""
    rng = random.Random(tag)
    pending = [[] for _ in sizes]
    while True:
        for k, size in enumerate(sizes):
            if not pending[k]:
                pending[k] = rng.sample(range(size), size)
            yield k, pending[k].pop()


def is_refusal(value) -> bool:
    return isinstance(value, str) and value.startswith("!")


def verdict(outcome, ref, truth=None) -> str:
    """OK, REFUSED (a refusal the reference also records) or FAILED."""
    if len(outcome) != len(ref):
        return FAILED
    refused = False
    for k, (got, want) in enumerate(zip(outcome, ref)):
        if got == want:
            refused = refused or is_refusal(got)
        elif not (is_refusal(want) and truth is not None and truth[k] is not None and got == truth[k]):
            return FAILED
    return REFUSED if refused else OK


def jsonable(value):
    """Tuples become lists, as they are in the stored reference."""
    return json.loads(json.dumps(value))


class Workload:
    name = ""
    why = ""
    tail_pct = 90.0  # fixed per workload so that runs compare the same statistic
    trace_rate = 1.0  # items/s untraced at the reference commit; sizes the traced run
    speed_kernel = "python"  # which run.SPEED_KERNELS entry tracks the host speed for it

    def __init__(self, ref=None):
        if ref is None:
            with open(REF_DIR / f"{self.name}.json") as fh:
                ref = json.load(fh)
        self.ref = ref
        self.setup_errors: list[str] = []

    def strata_sizes(self) -> list[int]:
        return [len(s["items"]) for s in self.ref["strata"]]

    def order(self, seed):
        return item_order(self.strata_sizes(), f"{self.name}/{seed}")

    def spec(self, k, i):
        return self.ref["strata"][k]["items"][i]["spec"]

    def expected(self, k, i):
        entry = self.ref["strata"][k]["items"][i]
        return entry["ref"], entry.get("truth")

    def attempt(self, fn, *args):
        try:
            return fn(*args)
        except self.errors.StringAlgError as exc:
            return "!" + type(exc).__name__

    def import_package(self):
        """Import the stringalg modules the items use (part of set-up)."""
        import stringalg.calculus
        import stringalg.errors
        import stringalg.modules
        import stringalg.words

        self.C = stringalg.calculus
        self.errors = stringalg.errors
        self.mods = stringalg.modules
        self.words = stringalg.words

    def prepare(self):
        """Build what the items need: contexts, enumerations, parsed items."""
        raise NotImplementedError

    def item(self, k, i):
        """The prepared input of item i of stratum k."""
        raise NotImplementedError

    def run(self, item) -> list:
        raise NotImplementedError

    def _check_enumeration(self, what, enumerated, population):
        missing = set(population) - set(enumerated)
        if missing:
            self.setup_errors.append(f"{what} lacks {len(missing)} population items, e.g. {sorted(missing)[0]!r}")

    def _string(self, text):
        return self.words.String.from_word(self.words.parse_word(text))

    def _band(self, text):
        return self.words.Band.from_word(self.words.parse_word(text))


class StringScan(Workload):
    name = "string-scan"
    why = "GF(2) stable-End and Ext^1 of each string module, the c03/c06 loop; no item shares work"
    tail_pct = 90.0
    trace_rate = 40.0

    def prepare(self):
        from stringalg.algebra import quiver_context

        quiver_context(1)
        texts = [it["spec"] for it in self.ref["strata"][0]["items"]]
        self._check_enumeration("enumerate_strings(12)", [s.text() for s in self.words.enumerate_strings(12)], texts)
        self.strings = [self._string(t) for t in texts]

    def item(self, k, i):
        return self.strings[i]

    def run(self, s):
        M = self.mods.string_module(s)
        return [self.attempt(self.C.stable_end_dim, M), self.attempt(self.C.ext1_dim, M, M)]


class HomPairs(Workload):
    name = "hom-pairs"
    why = "combinatorial vs matrix Hom for ordered string pairs, the c10 loop; no rref, strings recur across pairs"
    tail_pct = 99.0
    trace_rate = 1100.0

    def strata_sizes(self):
        return [len(self.ref["strings"]) ** 2]

    def spec(self, k, i):
        a, b = divmod(i, len(self.ref["strings"]))
        return [self.ref["strings"][a], self.ref["strings"][b]]

    def expected(self, k, i):
        a, b = divmod(i, len(self.ref["strings"]))
        d = int(self.ref["dims"][a][b], 36)
        return [d, d], None

    def prepare(self):
        from stringalg.algebra import quiver_context

        quiver_context(1)
        texts = self.ref["strings"]
        self._check_enumeration("enumerate_strings(10)", [s.text() for s in self.words.enumerate_strings(10)], texts)
        self.strings = [self._string(t) for t in texts]

    def item(self, k, i):
        a, b = divmod(i, len(self.strings))
        return self.strings[a], self.strings[b]

    def run(self, pair):
        a, b = pair
        return [
            self.attempt(self.mods.string_hom_dim, a, b),
            self.attempt(self.C.hom_dim, self.mods.string_module(a), self.mods.string_module(b)),
        ]


S4_NAMES = ("T0", "T1", "PermRep", "T00", "T11")


class Gf4Group(Workload):
    name = "gf4-group"
    why = "GF(4) band modules, direct sums through decompose/is_isomorphic, group-side tower and induce/restrict"
    tail_pct = 90.0
    trace_rate = 8.0

    def import_package(self):
        super().import_package()
        import stringalg.groupside
        import stringalg.rep

        self.gs = stringalg.groupside
        self.rep = stringalg.rep

    def prepare(self):
        from stringalg.algebra import group_context, quiver_context
        from stringalg.gf import GF4, OMEGA

        lams = {"w": OMEGA, "w2": GF4.inv(OMEGA)}  # the CLI's names for the band scalars
        quiver_context(2)
        for group in ("S4", "A4", "C2"):
            group_context(group, 2)
        self.reps = dict(self.gs.standard_reps(2))
        tower = self.gs.extension_tower(4, 2)
        self.reps.update({f"V{n}": v for n, v in enumerate(tower) if n})
        bands = {b.text() for b in self.words.enumerate_bands(14)}
        strings = {s.text() for s in self.words.enumerate_strings(6)}
        used_bands, used_strings = set(), set()
        self.items = []
        for stratum in self.ref["strata"]:
            prepared = []
            for entry in stratum["items"]:
                spec = entry["spec"]
                if spec["kind"] == "band":
                    used_bands.add(spec["band"])
                    prepared.append((spec["kind"], self._band(spec["band"]), lams[spec["lam"]], spec["mult"], spec["rot"]))
                elif spec["kind"] == "sum":
                    parts = []
                    for part in spec["parts"]:
                        if part[0] == "string":
                            used_strings.add(part[1])
                            parts.append((part[0], self._string(part[1]), None))
                        else:
                            used_bands.add(part[1])
                            parts.append((part[0], self._band(part[1]), lams[part[2]]))
                    prepared.append((spec["kind"], parts, spec["perm"]))
                else:
                    prepared.append((spec["kind"], spec))
            self.items.append(prepared)
        self._check_enumeration("enumerate_bands(14)", bands, used_bands)
        self._check_enumeration("enumerate_strings(6)", strings, used_strings)

    def item(self, k, i):
        return self.items[k][i]

    def run(self, item):
        kind = item[0]
        C = self.C
        if kind == "band":
            _, band, lam, mult, rot = item
            M = self.mods.band_module(band, lam, mult, 2)
            N = self.mods.band_module(band.rotation(rot), lam, mult, 2)
            return [self.attempt(C.stable_end_dim, M), self.attempt(C.is_isomorphic, M, N)]
        if kind == "sum":
            _, parts, perm = item
            summands = [
                self.mods.string_module(obj, 2) if part == "string" else self.mods.band_module(obj, lam, 1, 2)
                for part, obj, lam in parts
            ]
            M = self.rep.direct_sum(summands)
            N = self.rep.direct_sum([summands[j] for j in perm])
            return [self.attempt(self._summand_dims, M), self.attempt(C.is_isomorphic, M, N)]
        spec = item[1]
        if kind == "tower":
            return [self.attempt(self._tower_counts, spec["n"])]
        if kind == "induce":
            return [self.attempt(self._induced, spec["module"])]
        return [self.attempt(self._restricted_dims, spec["module"], spec["sub"])]

    def _summand_dims(self, M):
        return sorted(part.dim for part in self.C.decompose(M))

    def _tower_counts(self, n):
        tower = self.gs.extension_tower(n, 2)
        perm = self.reps["PermRep"]
        top = tower[-1]
        return [[v.dim for v in tower], self.C.hom_dim(perm, top), self.C.ext1_dim(perm, top)]

    def _induced(self, name):
        ind = self.gs.induce(self.reps[name])
        same_dim = [t for t in S4_NAMES if self.reps[t].dim == ind.dim]
        return [self.C.radical_series(ind), [self.C.is_isomorphic(ind, self.reps[t]) for t in same_dim]]

    def _restricted_dims(self, name, sub):
        return self._summand_dims(self.gs.restrict(self.reps[name], sub))


class CliQueries(Workload):
    name = "cli-queries"
    why = "one cold `python -m stringalg.cli` process per query: import, context set-up, arquiver, words enumeration"
    tail_pct = 85.0
    trace_rate = 4.0
    speed_kernel = "process"
    timeout_s = 120.0
    COMMANDS = ("omega", "component", "taxonomy", "stable-end", "hom", "ext1", "module", "verify")  # one stratum each
    SPANS_MARK = "@@perfbench-spans "

    def __init__(self, ref=None):
        super().__init__(ref)
        self.traced = False  # run queries through the traced child entry point
        self.spans: dict = {}  # merged span snapshots of traced children

    def import_package(self):
        import stringalg.cli  # noqa: F401  (the cold import every query pays)
        import stringalg.errors

        self.errors = stringalg.errors

    def prepare(self):
        pass

    def item(self, k, i):
        return self.spec(k, i)

    def command(self, argv):
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
        return [sys.executable, "-m", "stringalg.cli", *argv]

    def run(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            self.command(argv), capture_output=True, text=True, env=env, cwd=ROOT, timeout=self.timeout_s
        )
        stderr = proc.stderr.splitlines()
        if self.traced and stderr and stderr[-1].startswith(self.SPANS_MARK):
            merge(self.spans, json.loads(stderr.pop()[len(self.SPANS_MARK):]))
        if proc.returncode == 0:
            return [hashlib.sha256(proc.stdout.encode()).hexdigest()]
        for line in stderr:
            if line.startswith("error: "):
                return ["!" + line[len("error: "):].split(":", 1)[0]]
            if line.startswith("config error: "):
                return ["!ConfigError"]
        return [f"!exit{proc.returncode}"]


WORKLOADS = {w.name: w for w in (StringScan, HomPairs, Gf4Group, CliQueries)}
