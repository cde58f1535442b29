"""In-memory spans around stringalg's public functions.

`Tracer.install` wraps each function listed in LAYERS wherever a stringalg
module binds it (and the listed `Mat` methods on the class), so calls made
from inside the package are recorded as well as the benchmark's own.  Each
span adds to per-function counters when it closes: calls, self time (span
time minus the time of the spans it encloses), failures and a few
function-specific counts.  Aggregating at close keeps memory constant; a
run makes millions of `Mat.mul` calls.  `uninstall` restores the original
bindings.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer (= stringalg module) -> wrapped public functions; "Mat.x" is a method
LAYERS = {
    "matrix": ("Mat.rref", "Mat.nullspace", "Mat.rank", "Mat.solve", "Mat.mul", "Mat.power"),
    "calculus": (
        "hom_dim",
        "hom_basis",
        "projective_cover",
        "syzygy",
        "stable_hom_dim",
        "ext1_dim",
        "factors_through_projective",
        "is_isomorphic",
        "indec_isomorphic",
        "decompose",
    ),
    "modules": ("string_module", "band_module", "string_hom_basis"),
    "words": ("enumerate_strings", "enumerate_bands"),
    "arquiver": ("syzygy_string", "component_window", "classify"),
    "algebra": ("quiver_context", "group_context"),
    "groupside": ("extension_tower", "induce", "restrict"),
}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _count_cells(tracer, stat, args, kwargs):
    m = args[0]
    stat["cells"] += m.nrows * m.ncols


def _count_unknowns(tracer, stat, args, kwargs):
    stat["unknowns"] += _arg(args, kwargs, 0, "M").dim * _arg(args, kwargs, 1, "N").dim


def _cover_cache(tracer, stat, args, kwargs):
    stat["cache_hits"] += "cover" in _arg(args, kwargs, 0, "M").cache


def _syzygy_cache(tracer, stat, args, kwargs):
    steps = _arg(args, kwargs, 1, "steps", 1)
    key = "syzygy" if steps > 0 else "cosyzygy"
    stat["cache_hits"] += key in _arg(args, kwargs, 0, "M").cache


def _iso_under_syzygy_string(tracer, stat, args, kwargs):
    if "arquiver.syzygy_string" in tracer.open_spans:
        tracer.stats["arquiver.syzygy_string"]["iso_tests"] += 1


def _count_maps(stat, result):
    stat["maps"] += len(result)


def _count_nodes(stat, result):
    stat["nodes"] += len(result.nodes)


# span name -> (extra counters, hook before the call, hook after it)
_HOOKS = {
    "matrix.rref": (("cells",), _count_cells, None),
    "calculus.hom_dim": (("unknowns",), _count_unknowns, None),
    "calculus.projective_cover": (("cache_hits",), _cover_cache, None),
    "calculus.syzygy": (("cache_hits",), _syzygy_cache, None),
    "calculus.indec_isomorphic": ((), _iso_under_syzygy_string, None),
    "modules.string_hom_basis": (("maps",), None, _count_maps),
    "arquiver.component_window": (("nodes",), None, _count_nodes),
    "arquiver.syzygy_string": (("iso_tests",), None, None),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.open_spans: list[str] = []  # names of the open spans, innermost last
        self.covered = 0.0  # time inside outermost spans
        self._child_time: list[float] = []  # per open span: time of closed children
        self._undo: list[tuple] = []

    def install(self):
        """Wrap every function in LAYERS; stringalg must be importable."""
        layers = {layer: importlib.import_module("stringalg." + layer) for layer in LAYERS}
        bindings = [m for n, m in list(sys.modules.items()) if n.startswith("stringalg.")]
        for layer, module in layers.items():
            for qual in LAYERS[layer]:
                if qual.startswith("Mat."):
                    attr = qual[4:]
                    orig = module.Mat.__dict__[attr]
                    self._bind(module.Mat, attr, self._wrap(f"{layer}.{attr}", orig))
                    continue
                orig = getattr(module, qual)
                traced = self._wrap(f"{layer}.{qual}", orig)
                for mod in bindings:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._bind(mod, attr, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        extras, pre, post = _HOOKS.get(name, ((), None, None))
        stat = {"calls": 0, "self_s": 0.0, "failed": 0}
        stat.update({k: 0 for k in extras})
        self.stats[name] = stat
        child_time = self._child_time
        open_spans = self.open_spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer, stat, args, kwargs)
            child_time.append(0.0)
            open_spans.append(name)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                elapsed = clock() - start
                open_spans.pop()
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                else:
                    tracer.covered += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - inner
                if not done:
                    stat["failed"] += 1
            if post is not None:
                post(stat, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {"covered": self.covered, "stats": {name: dict(stat) for name, stat in self.stats.items()}}

    def reset(self):
        """Zero the counters (in place: the wrappers hold the dicts)."""
        self.covered = 0.0
        for stat in self.stats.values():
            for key in stat:
                stat[key] = 0


def merge(total: dict, part: dict):
    """Add one snapshot (e.g. from a traced child process) into another."""
    total["covered"] = total.get("covered", 0.0) + part["covered"]
    stats = total.setdefault("stats", {})
    for name, stat in part["stats"].items():
        into = stats.setdefault(name, {})
        for key, value in stat.items():
            into[key] = into.get(key, 0) + value
