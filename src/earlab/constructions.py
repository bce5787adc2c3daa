"""Constructive certificates along an ear decomposition.

Three builders (Seymour vertex, longest-path transversal, small
quasi-kernel) plus a regression harness for the quasi-kernel extension
failure on length-2 ears.  Every construction re-verifies its output and
raises rather than returning an unchecked certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import (Digraph, NeighborhoodReport, is_asymmetrical,
                      neighborhoods, set_predicates)
from .ears import Ear, EarDecomposition, require_decomposition
from .errors import InvalidInputError, VerificationError
from .oracles import longest_path_oracle, quasi_kernel_oracle

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
    if not is_asymmetrical(d):
        raise InvalidInputError("Seymour vertex needs an asymmetrical digraph")
    require_decomposition(d, e, 2, "Seymour vertex")
    if e.ears:
        v = e.ears[-1].vertices[-2]
    else:
        v = min(d.vertices)
    report = neighborhoods(d, v)
    if report.second_out_degree < report.out_degree:
        raise VerificationError(
            f"vertex {v} fails the second-neighborhood bound: "
            f"{report.second_out_degree} < {report.out_degree}")
    return v, report


def longest_path_transversal(d: Digraph, e: EarDecomposition) -> CertifiedSet:
    """Independent set meeting every maximum-length path.

    Builds inductively: a single base vertex, then per ear at most one
    internal vertex chosen by endpoint membership.  The result is checked
    against the exhaustive longest-path oracle, so the digraph must fit
    under its cap.
    """
    require_decomposition(d, e, 2, "transversal")
    s: set[int] = {min(v for v in e.base.vertices)}
    for ear in e.ears:
        in0, inr = ear.x0 in s, ear.xr in s
        if in0 and inr:
            continue
        if not in0 and not inr:
            s.add(ear.vertices[1])
        elif in0 and ear.length >= 3:
            s.add(ear.vertices[2])
        elif inr and ear.length >= 3:
            s.add(ear.vertices[1])
        # length-2 ears with exactly one endpoint inside need no addition
    if not set_predicates(d, s).independent:
        raise VerificationError(f"constructed transversal {sorted(s)} is not independent")
    report = longest_path_oracle(d)
    missed = [p for p in report.details["all_longest"] if not s.intersection(p)]
    if missed:
        raise VerificationError(
            f"longest path {missed[0]} avoids the constructed set {sorted(s)}")
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
    for j, part in enumerate((e.base,) + e.ears):
        for u, v in part.arcs:
            if v in members:
                if u in members:
                    return j
                absorbed.add(u)
        xs = part.vertices
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
    cycle = e.base.vertices[:-1]
    q: set[int] = {cycle[i] for i in cycle_quasi_kernel_indices(len(cycle))}
    for ear in e.ears:
        in0, inr = ear.x0 in q, ear.xr in q
        for idx in quasi_kernel_ear_indices(in0, inr, ear.length):
            q.add(ear.vertices[idx])
    failed = quasi_kernel_failing_stage(e, q)
    if failed is not None:
        raise VerificationError(
            f"quasi-kernel {sorted(q)} failed verification at stage {failed}")
    if 2 * len(q) > d.n:
        raise VerificationError(
            f"quasi-kernel has {len(q)} members on {d.n} vertices: not small")
    return CertifiedSet(tuple(q), "quasi_kernel", stage=len(e.ears),
                        size_bound_met=True)


@dataclass
class ExtensionCandidate:
    added: int | None
    members: tuple[int, ...]
    independent: bool
    quasi_absorbent: bool
    small: bool

    @property
    def is_quasi_kernel(self) -> bool:
        return self.independent and self.quasi_absorbent


@dataclass
class ExtensionReport:
    stage: int
    ear: Ear
    candidates: list[ExtensionCandidate] = field(default_factory=list)

    @property
    def any_quasi_kernel(self) -> bool:
        return any(c.is_quasi_kernel for c in self.candidates)

    @property
    def any_small_quasi_kernel(self) -> bool:
        return any(c.is_quasi_kernel and c.small for c in self.candidates)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "ear": list(self.ear.vertices),
            "any_quasi_kernel": self.any_quasi_kernel,
            "any_small_quasi_kernel": self.any_small_quasi_kernel,
            "candidates": [
                {"added": c.added, "members": list(c.members),
                 "independent": c.independent,
                 "quasi_absorbent": c.quasi_absorbent,
                 "is_quasi_kernel": c.is_quasi_kernel, "small": c.small}
                for c in self.candidates
            ],
        }


def le2_quasi_kernel_obstruction(d: Digraph, e: EarDecomposition,
                                 q: CertifiedSet) -> ExtensionReport:
    """Try every one-vertex ear extension of a stage quasi-kernel.

    Reports which candidates survive as quasi-kernels of the next stage and
    whether any stays small; with short ears the answer can be none, which
    is exactly the phenomenon this harness captures.
    """
    require_decomposition(d, e, 1, "quasi-kernel obstruction harness")
    if not any(ear.length == 2 for ear in e.ears):
        raise InvalidInputError("harness needs a decomposition with a length-2 ear")
    if q.stage is None or not 0 <= q.stage < len(e.ears):
        raise InvalidInputError("certified set must name a stage with a next ear")
    here = e.stage(q.stage)
    if not set_predicates(here, set(q.members)).is_quasi_kernel:
        raise VerificationError(
            f"{list(q.members)} is not a quasi-kernel of stage {q.stage}")
    ear = e.ears[q.stage]
    nxt = e.stage(q.stage + 1)
    base = set(q.members)
    candidates: list[tuple[int | None, frozenset[int]]] = [(None, frozenset(base))]
    seen = {frozenset(base)}
    for v in ear.vertices:
        trial = frozenset(base | {v})
        if trial not in seen:
            seen.add(trial)
            candidates.append((v, trial))
    result = ExtensionReport(stage=q.stage, ear=ear)
    for added, members in candidates:
        preds = set_predicates(nxt, set(members))
        result.candidates.append(ExtensionCandidate(
            added=added,
            members=tuple(sorted(members)),
            independent=preds.independent,
            quasi_absorbent=preds.quasi_absorbent,
            small=2 * len(members) <= nxt.n,
        ))
    return result


def find_quasi_kernel_obstruction():
    """Search small one-ear instances for a total extension failure.

    Scans cycles of length 3..7 plus a single length-2 ear over all
    endpoint pairs and all stage quasi-kernels; returns the first instance
    where no candidate survives, or None if the scan is exhausted.
    """
    for base_len in range(3, 8):
        cycle = Digraph.cycle(base_len)
        stage_qks = quasi_kernel_oracle(cycle, enumerate_all=True)
        base = Ear(tuple(range(base_len)) + (0,))
        z = base_len
        for x0 in range(base_len):
            for xr in range(base_len):
                if x0 == xr:
                    continue
                host = cycle.union([z], [(x0, z), (z, xr)])
                ear = Ear((x0, z, xr))
                decomp = EarDecomposition(base, [ear])
                for members in stage_qks.details["all_quasi_kernels"]:
                    cert = CertifiedSet(tuple(members), "quasi_kernel", stage=0,
                                        size_bound_met=2 * len(members) <= base_len)
                    report = le2_quasi_kernel_obstruction(host, decomp, cert)
                    if not report.any_quasi_kernel:
                        return host, decomp, cert, report
    return None
