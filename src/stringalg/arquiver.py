"""Walking stable components of the module category along hooks and
cohooks, computing syzygies on the level of strings, classifying
components (plain sheets vs tubes), and locating strings in the
classification families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import calculus
from .errors import IdentificationFailed, LimitExceeded, Undecided
from .modules import string_module
from .words import (
    String,
    enumerate_strings,
    modify_candidates,
    removal_candidates,
)

_RADIUS_LIMIT = 8


def _classes(words) -> set[String]:
    return {String.from_word(w) for w in words}


def _skey(s: String):
    return (len(s.letters), s.vertex or 0, s.letters)


def ar_neighbors(s: String) -> dict[str, list[String]]:
    """Successors and predecessors of M(S) in the stable quiver.

    Successors are targets of canonical injections (hooks added to S) and
    of canonical projections (cohooks removed from S); predecessors dually.
    Both orientations of the word are scanned, which covers both sides;
    the two legal extensions of an empty string are both genuine
    neighbors, one per side."""
    words = [s.word]
    if s.letters:
        words.append(s.word.inverse())
    succ: set[String] = set()
    pred: set[String] = set()
    for w in words:
        succ |= _classes(modify_candidates(w, "hook", "right"))
        succ |= _classes(removal_candidates(w, "cohook", "right"))
        pred |= _classes(modify_candidates(w, "cohook", "right"))
        pred |= _classes(removal_candidates(w, "hook", "right"))
    return {"successors": sorted(succ, key=_skey), "predecessors": sorted(pred, key=_skey)}


@dataclass
class ARComponent:
    seed: String
    radius: int
    nodes: dict = field(default_factory=dict)  # String -> BFS distance
    edges: list = field(default_factory=list)  # (source String, target String)
    kind: str | None = None

    def node_list(self) -> list[String]:
        return sorted(self.nodes, key=lambda t: (self.nodes[t],) + _skey(t))


def component_window(seed: String, radius: int, guard: bool = True) -> ARComponent:
    """Closure of the seed under neighbor moves up to the given distance."""
    if guard and radius > _RADIUS_LIMIT:
        raise LimitExceeded(f"radius {radius} > {_RADIUS_LIMIT}")
    nodes = {seed: 0}
    edges = set()
    frontier = [seed]
    for dist in range(1, radius + 1):
        nxt = []
        for s in frontier:
            nb = ar_neighbors(s)
            for t in nb["successors"]:
                edges.add((s, t))
                if t not in nodes:
                    nodes[t] = dist
                    nxt.append(t)
            for t in nb["predecessors"]:
                edges.add((t, s))
                if t not in nodes:
                    nodes[t] = dist
                    nxt.append(t)
        frontier = nxt
    comp = ARComponent(seed=seed, radius=radius, nodes=nodes)
    comp.edges = sorted(
        ((a, b) for (a, b) in edges if a in nodes and b in nodes),
        key=lambda ab: (_skey(ab[0]), _skey(ab[1])),
    )
    return comp


def syzygy_string(s: String, power: int = 1, degree: int = 1) -> String:
    """The string whose module is the syzygy (or cosyzygy) of M(S),
    identified among enumerated strings by dimension, vertex multiplicities
    and an isomorphism test."""
    cur = s
    step = 1 if power > 0 else -1
    for _ in range(abs(power)):
        cur = _syzygy_string_once(cur, step, degree)
    return cur


def _identify_string(module) -> String:
    length = module.dim - 1
    if length < 0:
        raise IdentificationFailed("zero module has no string")
    v0 = module.action["e0"].rank()
    if length == 0:
        return String((), 0 if v0 else 1)
    candidates = [
        t
        for t in enumerate_strings(length)
        if len(t.letters) == length and t.word.vertices().count(0) == v0
    ]
    hits = []
    for t in candidates:
        # syzygies of indecomposables stay indecomposable here, so the
        # local-ring certificate decides isomorphism deterministically
        if calculus.indec_isomorphic(module, string_module(t, module.field.degree)):
            hits.append(t)
    if len(hits) != 1:
        raise IdentificationFailed(
            f"{len(hits)} strings match a module of dimension {module.dim}"
        )
    return hits[0]


def _syzygy_string_once(s: String, step: int, degree: int) -> String:
    M = string_module(s, degree)
    omega = calculus.syzygy(M, step)
    return _identify_string(omega)


def tube_rank(s: String, max_rank: int = 3, degree: int = 1) -> int | None:
    """r if M(S) is fixed by the r-th power of the translate (= double
    syzygy), None if no period up to max_rank (a plain sheet here)."""
    M = string_module(s, degree)
    cur = M
    for r in range(1, max_rank + 1):
        cur = calculus.syzygy(cur, 2)
        if cur.dim == M.dim and calculus.indec_isomorphic(cur, M):
            return r
    return None


def component_kind(s: String, degree: int = 1) -> str:
    """'tube(r)' when the translate has period r at this string, else
    'za-infinity-infinity' (the only component shapes strings live in)."""
    rank = tube_rank(s, degree=degree)
    return f"tube({rank})" if rank else "za-infinity-infinity"


def three_tube_boundary(degree: int = 1) -> list[String]:
    """The three boundary strings of the rank-3 tube: the uniserial with
    socle and top non-isomorphic and its two syzygies (derived, not
    transcribed)."""
    x1 = None
    for s in enumerate_strings(2):
        if len(s.letters) != 2:
            continue
        layers = calculus.radical_series(string_module(s, degree))
        if layers == [[1, 0], [1, 0], [0, 1]]:
            x1 = s
            break
    if x1 is None:
        raise IdentificationFailed("no uniserial length-3 string with distinct ends")
    o1 = syzygy_string(x1, 1, degree)
    o2 = syzygy_string(o1, 1, degree)
    return [x1, o1, o2]


def classification_targets(degree: int = 1) -> dict[str, list[String]]:
    """Strings whose components make up the families of the main
    classification: the trivial-vertex empty string and its syzygy
    (their two components form one syzygy-closed family), and the other
    empty string (its component is syzygy-closed)."""
    s0 = String((), 0)
    s1 = String((), 1)
    return {
        "s0-family": [s0, syzygy_string(s0, 1, degree)],
        "s1-family": [s1],
    }


def classify(s: String, radius: int = 6, degree: int = 1) -> str:
    """Locate a string in the classification: 's0-family' (component or
    its syzygy shift reaches the trivial vertex string), 's1-family',
    'tube-boundary', or 'outside' (tube interior / band tubes); raises
    Undecided when the explored window is too small to tell."""
    if radius > _RADIUS_LIMIT:
        raise LimitExceeded(f"radius {radius} > {_RADIUS_LIMIT}")
    rank = tube_rank(s, degree=degree)
    if rank == 1:
        return "outside"
    if rank == 3:
        boundary = set(three_tube_boundary(degree))
        if s in boundary:
            return "tube-boundary"
        return "outside"
    targets = classification_targets(degree)
    window = component_window(s, radius, guard=False)
    for name in ("s0-family", "s1-family"):
        if any(t in window.nodes for t in targets[name]):
            return name
    raise Undecided(
        f"{s.text()}: no family target within radius {radius}"
    )


def export_dot(comp: ARComponent) -> str:
    """Deterministic DOT text: nodes keyed by canonical word, ranked by
    BFS distance."""
    lines = ["digraph component {"]
    lines.append('  rankdir="LR";')
    for s in comp.node_list():
        dim = len(s.letters) + 1
        lines.append(
            f'  "{s.text()}" [label="{s.text()}\\ndim {dim}", dist={comp.nodes[s]}];'
        )
    for a, b in comp.edges:
        lines.append(f'  "{a.text()}" -> "{b.text()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def component_json(comp: ARComponent, stable_end_dims: bool = False) -> dict:
    nodes = []
    for s in comp.node_list():
        entry = {
            "string": s.text(),
            "dim": len(s.letters) + 1,
            "distance": comp.nodes[s],
        }
        if stable_end_dims:
            entry["stable_end_dim"] = calculus.stable_end_dim(string_module(s))
        nodes.append(entry)
    return {
        "seed": comp.seed.text(),
        "radius": comp.radius,
        "kind": comp.kind,
        "nodes": nodes,
        "edges": [[a.text(), b.text()] for a, b in comp.edges],
    }
