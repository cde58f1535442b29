"""Walking stable components of the module category along hooks and
cohooks, syzygies of strings, classifying components (plain sheets vs
tubes), and locating strings in the classification families.

Syzygies, tube ranks and the mouth of the rank-3 tube are read off the
word (`words.syzygy_word`); no module is built for them.  The test
oracle is `calculus.syzygy` of a `.plain()` copy of the string module (a
cover's kernel) with an isomorphism test on Hom, and radical series.
"""

from __future__ import annotations

from .errors import LimitExceeded, ParseError, Undecided
from .words import (
    String,
    add_hook,
    enumerate_strings,
    is_inverse,
    remove_hook,
    syzygy_word,
)

_RADIUS_LIMIT = 8
# Largest |power| of syzygy_string: Omega^n of a short string has about 3n
# letters, so n steps cost about n^2 (0.1 s at 256, 2 s at 1024).
_POWER_LIMIT = 256


def _skey(s: String):
    return (len(s.letters), s.vertex or 0, s.letters)


def ar_neighbors(s: String) -> dict[str, list[String]]:
    """Successors and predecessors of M(S) in the stable quiver, by the
    hook rule (Butler-Ringel 1987): at each end, a successor adds a hook,
    or removes a cohook when no hook fits; predecessors dually.  The left
    end is the right end of the inverse word.  An empty string has two
    hooks, one per end."""
    succ: set[String] = set()
    pred: set[String] = set()
    for w in {s.word, s.word.inverse()}:
        for moves, cohook in ((succ, False), (pred, True)):
            ends = add_hook(w, cohook) or [remove_hook(w, not cohook)]
            moves.update(String.from_valid_word(t) for t in ends if t is not None)
    return {"successors": sorted(succ, key=_skey), "predecessors": sorted(pred, key=_skey)}


class ARComponent:
    def __init__(self, seed: String, radius: int, nodes: dict, edges: list):
        self.seed = seed
        self.radius = radius
        self.nodes = nodes  # String -> BFS distance
        self.edges = edges  # (source String, target String)

    def node_list(self) -> list[String]:
        return sorted(self.nodes, key=lambda t: (self.nodes[t],) + _skey(t))


def _check_radius(radius: int, guard: bool = True):
    """ParseError for a radius that is not an int, a bool among them;
    LimitExceeded for a negative one, or one above _RADIUS_LIMIT when
    guarded."""
    if type(radius) is not int:
        raise ParseError(f"the radius must be an int, not {radius!r}")
    if radius < 0 or (guard and radius > _RADIUS_LIMIT):
        raise LimitExceeded(f"radius {radius} not in 0..{_RADIUS_LIMIT}")


def component_window(seed: String, radius: int, guard: bool = True) -> ARComponent:
    """Closure of the seed under neighbor moves up to the given distance."""
    _check_radius(radius, guard)
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
    edges = sorted(
        ((a, b) for (a, b) in edges if a in nodes and b in nodes),
        key=lambda ab: (_skey(ab[0]), _skey(ab[1])),
    )
    return ARComponent(seed, radius, nodes, edges)


def syzygy_string(s: String, power: int = 1) -> String:
    """The string of Omega^power(M(S)), negative powers being cosyzygies,
    read off the word (words.syzygy_word) for |power| up to _POWER_LIMIT.
    No field enters: strings have 0/1 modules.  syzygy_word refuses a
    power that is not an int, with ParseError."""
    if type(power) is int and abs(power) > _POWER_LIMIT:
        raise LimitExceeded(f"power {power} not in -{_POWER_LIMIT}..{_POWER_LIMIT}")
    return syzygy_word(s, power)


def tube_rank(s: String) -> int | None:
    """r if M(S) is fixed by the r-th power of the translate (= double
    syzygy, the algebra being symmetric), None if no period up to 3 (a
    plain sheet here)."""
    cur = s
    for r in (1, 2, 3):
        cur = syzygy_word(cur, 2)
        if cur == s:
            return r
    return None


def component_kind(s: String) -> str:
    """'tube(r)' when the translate has period r at this string, else
    'za-infinity-infinity' (the only component shapes strings live in)."""
    rank = tube_rank(s)
    return f"tube({rank})" if rank else "za-infinity-infinity"


def three_tube_boundary() -> list[String]:
    """The three boundary strings of the rank-3 tube: the uniserial with
    radical layers S0, S0, S1 and its two syzygies (derived, not
    transcribed).  A string of direct letters is uniserial, its radical
    layers being its vertices read from the right end."""
    x1 = next(
        s
        for s in enumerate_strings(2)
        if not any(is_inverse(letter) for letter in s.letters)
        and s.word.vertices()[::-1] == (0, 0, 1)
    )
    o1 = syzygy_string(x1)
    return [x1, o1, syzygy_string(o1)]


def classification_targets() -> dict[str, list[String]]:
    """Strings whose components make up the families of the main
    classification: the trivial-vertex empty string and its syzygy
    (their two components form one syzygy-closed family), and the other
    empty string (its component is syzygy-closed)."""
    s0 = String((), 0)
    s1 = String((), 1)
    return {
        "s0-family": [s0, syzygy_string(s0)],
        "s1-family": [s1],
    }


def classify(s: String, radius: int = 6) -> str:
    """Locate a string in the classification: 's0-family' (component or
    its syzygy shift reaches the trivial vertex string), 's1-family',
    'tube-boundary', or 'outside' (tube interior / band tubes); raises
    Undecided when the explored window is too small to tell."""
    _check_radius(radius)
    rank = tube_rank(s)
    if rank == 1:
        return "outside"
    if rank == 3:
        boundary = set(three_tube_boundary())
        if s in boundary:
            return "tube-boundary"
        return "outside"
    targets = classification_targets()
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


def component_json(comp: ARComponent) -> dict:
    """The window as a JSON-ready dict, its nodes in `node_list` order and
    its kind that of the seed's component."""
    nodes = [
        {"string": s.text(), "dim": len(s.letters) + 1, "distance": comp.nodes[s]}
        for s in comp.node_list()
    ]
    return {
        "seed": comp.seed.text(),
        "radius": comp.radius,
        "kind": component_kind(comp.seed),
        "nodes": nodes,
        "edges": [[a.text(), b.text()] for a, b in comp.edges],
    }
