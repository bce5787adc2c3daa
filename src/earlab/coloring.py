"""Proper 3-colorings along an ear decomposition, plus dichromatic bounds.

Also home to VertexMapping, the shared value type for colorings and
tournament homomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .ears import EarDecomposition, require_decomposition
from .errors import InvalidInputError, VerificationError
from .oracles import CHROMATIC_CAP, chromatic_oracles

KINDS = ("proper", "oriented", "homomorphism")


@dataclass(frozen=True)
class VertexMapping:
    assignment: dict
    target: object
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown mapping kind {self.kind!r}")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def to_json(self) -> dict:
        target = self.target
        if hasattr(target, "code_string"):
            target = target.code_string()
        return {"assignment": {int(v): self.assignment[v]
                               for v in sorted(self.assignment)},
                "target": target, "kind": self.kind}


def verify_proper(d: Digraph, m: VertexMapping) -> None:
    a = m.assignment
    if set(a) != d.vertices:
        raise VerificationError("coloring does not cover the vertex set")
    bad = [(u, v) for u, v in d.arcs if a[u] == a[v]]
    if bad:  # the smallest bad arc, as a sorted scan would name it
        u, v = min(bad)
        raise VerificationError(f"arc ({u},{v}) joins two vertices of color {a[u]}")


def verify_homomorphism(d: Digraph, m: VertexMapping) -> None:
    a, t = m.assignment, m.target
    if set(a) != d.vertices:
        raise VerificationError("mapping does not cover the vertex set")
    bad = [(u, v) for u, v in d.arcs if not t.has_arc(a[u], a[v])]
    if bad:  # the smallest bad arc, as a sorted scan would name it
        u, v = min(bad)
        raise VerificationError(
            f"arc ({u},{v}) maps to non-arc ({a[u]},{a[v]}) of the target")


def _cycle_colors(n: int) -> list[int]:
    colors = [1 + (i % 2) for i in range(n)]
    if n % 2 == 1:
        colors[-1] = 3
    return colors


def _free_color(*used: int) -> int:
    return min(c for c in (1, 2, 3) if c not in used)


def proper_3_coloring(d: Digraph, e: EarDecomposition) -> VertexMapping:
    """Proper coloring with colors {1,2,3}, built ear by ear.

    Length-2 ears take any free color for the middle vertex; length-3 ears
    color greedily; longer ears reuse one color at both ends of the ear and
    2-color the bipartite interior.
    """
    require_decomposition(d, e, 2, "coloring")
    cycle = e.base[:-1]
    colors = dict(zip(cycle, _cycle_colors(len(cycle))))
    for xs, r in zip(e.ears, e.lengths):
        c0, cr = colors[xs[0]], colors[xs[-1]]
        if r == 2:
            colors[xs[1]] = _free_color(c0, cr)
        elif r == 3:
            i = _free_color(c0, cr)
            colors[xs[1]] = i
            colors[xs[2]] = _free_color(i, cr)
        else:
            i = _free_color(c0, cr)
            colors[xs[1]] = colors[xs[-2]] = i
            a, b = sorted(c for c in (1, 2, 3) if c != i)
            for offset, idx in enumerate(range(2, r - 1)):
                colors[xs[idx]] = a if offset % 2 == 0 else b
    mapping = VertexMapping(colors, 3, "proper")
    verify_proper(d, mapping)
    if mapping.colors_used() > 3:
        raise VerificationError("coloring uses more than 3 colors")
    return mapping


@dataclass(frozen=True)
class DichromaticBounds:
    lower: int
    upper: int
    exact: int | None
    coloring: VertexMapping  # proper 3-coloring witnessing the upper bound

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact}


def dichromatic_bounds(d: Digraph, e: EarDecomposition,
                       force_exact: bool = False) -> DichromaticBounds:
    """Bounds on the least acyclic-class partition size.

    The constructed proper coloring gives 3 as an upper bound and is kept
    as its witness; strongness gives 2 as a lower bound since one class
    cannot swallow a cycle.  The exact value comes from the oracle at desk
    scale.
    """
    coloring = proper_3_coloring(d, e)
    exact = None
    if force_exact or d.n <= CHROMATIC_CAP:
        exact = chromatic_oracles(d).details["dichromatic"]
    return DichromaticBounds(lower=2, upper=3, exact=exact, coloring=coloring)
