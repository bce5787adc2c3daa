"""Constructive certificates along an ear decomposition.

Three builders: Seymour vertex, longest-path transversal and small
quasi-kernel.  Every construction re-verifies its output and raises rather
than returning an unchecked certificate; the transversal and the
quasi-kernel are checked in one ear-local O(n + m) pass, with no oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_

from .digraph import (Digraph, NeighborhoodReport, _require_asymmetrical,
                      neighborhoods)
from .ears import EarDecomposition, require_decomposition
from .errors import InvalidInputError, VerificationError

ROLES = ("kernel", "quasi_kernel", "transversal")


@dataclass(frozen=True)
class CertifiedSet:
    members: tuple[int, ...]
    role: str
    stage: int | None = None
    size_bound_met: bool | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise InvalidInputError(f"unknown role {self.role!r}")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def to_json(self) -> dict:
        doc = {"members": list(self.members), "role": self.role, "verified": True}
        if self.stage is not None:
            doc["stage"] = self.stage
        if self.size_bound_met is not None:
            doc["size_bound_met"] = self.size_bound_met
        return doc


def seymour_vertex(d: Digraph, e: EarDecomposition) -> tuple[int, NeighborhoodReport]:
    """Vertex whose second out-neighborhood is at least as large as its first.

    With ears present this is the next-to-last vertex of the final ear: its
    single out-arc points at the ear's end, so the second neighborhood is
    that end's out-neighborhood.  A bare cycle qualifies everywhere.
    """
    _require_asymmetrical(d, "Seymour vertex")
    require_decomposition(d, e, 2, "Seymour vertex")
    if e.ears:
        v = e.ears[-1][-2]
    else:
        v = min(d.vertices)
    report = neighborhoods(d, v)
    if report.second_out_degree < report.out_degree:
        raise VerificationError(
            f"vertex {v} fails the second-neighborhood bound: "
            f"{report.second_out_degree} < {report.out_degree}")
    return v, report


def _transversal_members(e: EarDecomposition) -> set[int]:
    """The set longest_path_transversal builds, before its check."""
    s = {min(e.base)}
    for xs, r in zip(e.ears, e.lengths):
        in0, inr = xs[0] in s, xs[-1] in s
        if in0 and inr:
            continue
        if not in0 and not inr:
            s.add(xs[1])
        elif in0 and r >= 3:
            s.add(xs[2])
        elif inr and r >= 3:
            s.add(xs[1])
        # length-2 ears with exactly one endpoint inside need no addition
    return s


def longest_path_transversal(d: Digraph, e: EarDecomposition) -> CertifiedSet:
    """Independent set meeting every maximum-length path.

    Builds inductively: a single base vertex, then per ear at most one
    internal vertex chosen by endpoint membership.  One O(n + m) pass checks
    that S meets every part (the base, and each ear with its ends) and
    spans no arc of one; as the parts cover d's arcs, S is independent.
    (a) So S meets every cycle C.  Let P be the last ear whose
    interior C touches.  Ears have length >= 2, so every arc of a later ear
    has a new interior end; C lies in P's stage, where P's interior has in-
    and out-degree 1, so C runs along P, ends included.  With no such P, C
    is the base.  (b) So S meets every longest path: d is strong on >= 2
    vertices, so a path avoiding S ends at a vertex with an out-neighbour w
    off the path (in S, or else closing a cycle avoiding S): it extends.
    """
    require_decomposition(d, e, 2, "transversal")
    s = _transversal_members(e)
    for j, part in enumerate((e.base,) + e.ears):
        hits = list(map(s.__contains__, part))
        if not any(hits):
            raise VerificationError(f"constructed transversal {sorted(s)} misses part {j}")
        if any(map(and_, hits, hits[1:])):
            raise VerificationError(f"constructed transversal {sorted(s)} is not independent")
    return CertifiedSet(tuple(s), "transversal", stage=len(e.ears))


def _stride_back(length: int, xr_in: bool, stride: int) -> list[int]:
    """Interior indices 1 <= t < length taken every stride-th vertex back
    from the ear's end xr, ascending: the one rule by which a kernel
    (stride 2) and a small quasi-kernel (stride 3) fill an ear.

    The first pick is stride steps before an in-set xr, else right before
    xr.  An ear shorter than the stride is outside the rule's domain.
    """
    if length < stride:
        raise InvalidInputError(
            f"stride-{stride} ear rule needs ear length >= {stride}, got {length}")
    return sorted(range(length - (stride if xr_in else 1), 0, -stride))


def quasi_kernel_ear_indices(x0_in: bool, xr_in: bool, r: int) -> list[int]:
    """Internal-vertex indices added for one ear of length r >= 3.

    Every third interior vertex back from xr (_stride_back), except that a
    pick at index 1 next to an in-set x0 moves to index 2: the seam at p1.

    Claim: if Q is a quasi-kernel of D_j and P = x0 p1 ... p(r-1) xr is
    the ear glued onto it, then Q plus these picks is a quasi-kernel of
    D_{j+1}.  Proof: the interior is new, so the only out-neighbourhood of
    D_j that changes is x0's, which gains p1; every arc of D_j and every
    path of length at most 2 in it survives, so Q stays independent on the
    old arcs and every old vertex outside Q still reaches Q within two
    arcs.  The new arcs are x0 p1, p_t p_(t+1) and p(r-1) xr.
      (a) Picks are at least 2 apart (stride 3, or 2 -> 4 after the move),
          none is p1 when x0 is in, and none is p(r-1) when xr is in (the
          first pick is then r - 3), so no new arc joins two members.
      (b) Call the picks plus r (when xr is in) anchors.  Consecutive
          anchors are at most 3 apart, the highest is at least r - 1 and
          the lowest at most 3 (the range stops within one stride of 0,
          or is empty with r = 3 and xr in, and the move keeps it at 2).
          Each interior p_t moves forward along the ear only, so every
          unpicked one reaches a pick, or an in-set xr, within two arcs.
    At most ceil((r - 1) / 3) <= (r - 1) / 2 picks join r - 1 new
    vertices, so a small quasi-kernel stays small.
    """
    picks = _stride_back(r, xr_in, 3)
    if x0_in and 1 in picks:
        picks[0] = 2
    return picks


def cycle_quasi_kernel_indices(n: int) -> list[int]:
    """Positions of a small quasi-kernel on a cycle of length n >= 2.

    Every third position from 0, with position n - 1 moved to n - 2: the
    ear's seam read forward from the in-set anchor, since n - 1 would sit
    next to 0 while n - 2 still reaches 0 within two steps.
    """
    if n < 2:
        raise InvalidInputError("cycle length must be >= 2")
    picks = list(range(0, n, 3))
    if picks[-1] == n - 1:
        picks[-1] = n - 2
    return picks


def quasi_kernel_failing_stage(e: EarDecomposition,
                               members: set[int]) -> int | None:
    """First stage j at which members ∩ V(D_j) is no quasi-kernel of D_j.

    Ear-local and O(n + m); e must be valid.  Stages and members only grow,
    so a passing stage keeps passing, and stage j can newly fail only by an
    arc born with it joining two members, or a vertex born with it neither
    in the set nor reaching it within 2 steps.  absorbed holds every vertex
    with an out-arc into the set among the arcs born so far.
    """
    absorbed: set[int] = set()
    for j, xs in enumerate((e.base,) + e.ears):
        for u, v in zip(xs, xs[1:]):
            if v in members:
                if u in members:
                    return j
                absorbed.add(u)
        for idx, x in enumerate(xs[:-1]):
            # the base is checked at every vertex, an ear at its interior
            if (j == 0 or idx > 0) and x not in members and x not in absorbed:
                if xs[idx + 1] not in absorbed:
                    return j
    return None


def small_quasi_kernel(d: Digraph, e: EarDecomposition) -> CertifiedSet:
    """Quasi-kernel of size at most n/2, grown stage by stage.

    The base cycle takes every third vertex; each ear contributes the
    stride-3 pattern matching its endpoint membership.  One ear-local pass
    (quasi_kernel_failing_stage) checks every stage; the last is d, as the
    parts cover d's vertices and arcs exactly once (require_decomposition).
    """
    require_decomposition(d, e, 3, "small quasi-kernel")
    cycle = e.base[:-1]
    q: set[int] = {cycle[i] for i in cycle_quasi_kernel_indices(len(cycle))}
    for xs, r in zip(e.ears, e.lengths):
        for idx in quasi_kernel_ear_indices(xs[0] in q, xs[-1] in q, r):
            q.add(xs[idx])
    failed = quasi_kernel_failing_stage(e, q)
    if failed is not None:
        raise VerificationError(
            f"quasi-kernel {sorted(q)} failed verification at stage {failed}")
    if 2 * len(q) > d.n:
        raise VerificationError(
            f"quasi-kernel has {len(q)} members on {d.n} vertices: not small")
    return CertifiedSet(tuple(q), "quasi_kernel", stage=len(e.ears),
                        size_bound_met=True)
