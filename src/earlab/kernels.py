"""Kernel propagation across path ears.

One rule carries a kernel across an ear in both directions: its interior
alternates back from the ear's end xr, every second vertex, and p1 decides
the rest (see trace_kernels).  Extension pushes a stage kernel forward
unless x0 and p1 are both in; restriction pulls a glued-stage kernel back
unless x0 is out and p1 in.  Tracing lists every kernel of every stage,
each stage below the last scanned once and each next stage's kernels
forced along its ear, and classifies the result against the two parity
dichotomies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import CertifiedSet, _stride_back
from .digraph import Digraph, is_nonseparable, is_strong, set_predicates
from .ears import (Ear, EarDecomposition, require_decomposition,
                   require_ear_fits)
from .errors import InvalidInputError, VerificationError
from .oracles import (KERNEL_CAP, _absorbing_sets, _check_cap, _index_maps,
                      kernel_oracle)


def _pattern(x0_in: bool, xr_in: bool, length: int) -> str:
    """Name of an endpoint pattern and ear parity, e.g. both_out_even."""
    ends = ("both_in" if x0_in and xr_in else "x0_in_xr_out" if x0_in
            else "x0_out_xr_in" if xr_in else "both_out")
    return f"{ends}_{'even' if length % 2 == 0 else 'odd'}"


@dataclass(frozen=True)
class KernelObstruction:
    operation: str
    x0_in: bool
    xr_in: bool
    length: int

    @property
    def pattern(self) -> str:
        return _pattern(self.x0_in, self.xr_in, self.length)

    def to_json(self) -> dict:
        return {"operation": self.operation, "pattern": self.pattern,
                "x0_in": self.x0_in, "xr_in": self.xr_in, "length": self.length}


def _case(x0_in: bool, xr_in: bool) -> int:
    """Endpoint pattern as a case number: 1 both in, 2 x0 only, 3 xr only,
    4 both out."""
    return 4 - 2 * x0_in - xr_in


def restrict_condition(x0_in: bool, xr_in: bool, length: int) -> int | None:
    """Which of the four pull-back conditions the endpoint pattern meets;
    None when the pattern is a pull-back obstruction.

    This is the trace_kernels lemma read backward on one kernel K of the
    glued stage: S = K minus the interior is a kernel of the stage iff S
    absorbs x0, which K forces unless x0 is out and p1 in.  The interior
    alternates back from xr, so with x0 out the two obstructions are xr in
    with the length odd, and xr out with the length even.
    """
    p1_in = 1 in _stride_back(length, xr_in, 2)
    return None if p1_in and not x0_in else _case(x0_in, xr_in)


def extend_case(x0_in: bool, xr_in: bool, length: int):
    """Case number and internal-index range (start, stop, stride 2); None
    when the pattern is a push-forward obstruction.

    This is the trace_kernels lemma applied to one kernel N of the stage:
    N absorbs x0, so its forced extension is a kernel unless x0 and p1 are
    both in.  The interior alternates back from xr, so p1 is in for
    both_in_odd and x0_in_xr_out_even, the two obstructions, and the range
    below is exactly the interior the extension takes.
    """
    p1_in = 1 in _stride_back(length, xr_in, 2)
    if p1_in and x0_in:
        return None
    stop = length - (2 if xr_in else 1)
    return _case(x0_in, xr_in), 2 - stop % 2, stop


def _check_stage_and_ear(h: Digraph, p: Ear) -> Digraph:
    if p.is_cycle:
        raise InvalidInputError(
            "kernel propagation needs a path ear: endpoints must differ")
    if p.length < 2:
        raise InvalidInputError("kernel propagation needs ear length >= 2")
    # every arc of a path ear of length >= 2 has an internal end, so new
    # internal vertices also make every ear arc new
    require_ear_fits(h, p)
    if not is_strong(h):
        raise InvalidInputError("stage digraph must be strong")
    if not is_nonseparable(h):
        raise InvalidInputError("stage digraph must be nonseparable")
    return h.union(p.vertices, p.arcs)


def restrict_kernel(h: Digraph, p: Ear, n_prime) -> CertifiedSet | KernelObstruction:
    """Pull a kernel of the glued digraph back to the stage digraph."""
    glued = _check_stage_and_ear(h, p)
    n_prime = set(n_prime)
    if not set_predicates(glued, n_prime).is_kernel:
        raise VerificationError(
            f"{sorted(n_prime)} is not a kernel of the glued digraph")
    x0_in, xr_in = p.x0 in n_prime, p.xr in n_prime
    condition = restrict_condition(x0_in, xr_in, p.length)
    if condition is None:
        return KernelObstruction("restrict", x0_in, xr_in, p.length)
    restricted = n_prime & h.vertices
    if not set_predicates(h, restricted).is_kernel:
        raise VerificationError(
            f"restriction {sorted(restricted)} under condition {condition} "
            f"is not a kernel of the stage digraph")
    return CertifiedSet(tuple(restricted), "kernel")


def extend_kernel(h: Digraph, p: Ear, n) -> CertifiedSet | KernelObstruction:
    """Push a kernel of the stage digraph forward across a path ear."""
    glued = _check_stage_and_ear(h, p)
    n = set(n)
    if not set_predicates(h, n).is_kernel:
        raise VerificationError(f"{sorted(n)} is not a kernel of the stage digraph")
    x0_in, xr_in = p.x0 in n, p.xr in n
    plan = extend_case(x0_in, xr_in, p.length)
    if plan is None:
        return KernelObstruction("extend", x0_in, xr_in, p.length)
    extended = n | {p.vertices[t] for t in _stride_back(p.length, xr_in, 2)}
    if not set_predicates(glued, extended).is_kernel:
        raise VerificationError(
            f"extension {sorted(extended)} under case {plan[0]} "
            f"is not a kernel of the glued digraph")
    return CertifiedSet(tuple(extended), "kernel")


@dataclass
class StageEntry:
    stage: int
    has_kernel: bool
    kernel: CertifiedSet | None
    transitions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"stage": self.stage, "has_kernel": self.has_kernel,
                "kernel": self.kernel.to_json() if self.kernel else None,
                "transitions": self.transitions}


@dataclass
class KernelTrace:
    entries: list[StageEntry]
    dichotomy: str
    flip_stage: int | None
    flips: list[int]
    base_parity: str
    pattern_check: dict

    def to_json(self) -> dict:
        return {"stages": [s.to_json() for s in self.entries],
                "dichotomy": self.dichotomy, "flip_stage": self.flip_stage,
                "flips": self.flips, "base_parity": self.base_parity,
                "pattern_check": self.pattern_check}


def _transition_labels(direction: str, ear: Ear, kernels) -> list[str]:
    forward = direction == "forward"
    op, rule = ("extend", extend_case) if forward else ("restrict", restrict_condition)
    labels = set()
    for members in kernels:
        s = set(members)
        ends = (ear.x0 in s, ear.xr in s, ear.length)
        found = rule(*ends)
        if found is None:
            labels.add(f"{op} obstruction {_pattern(*ends)}")
        else:
            labels.add(f"extend case {found[0]}" if forward
                       else f"restrict condition {found}")
    return sorted(labels)


def _forced_extension(ear: Ear, members: tuple[int, ...],
                      x0_absorbed: bool) -> tuple[int, ...] | None:
    """The kernel of the stage glued with ear whose part in the stage is
    members (per the trace_kernels lemma), or None when there is none."""
    picks = _stride_back(ear.length, ear.xr in members, 2)
    p1_in = 1 in picks
    if p1_in and ear.x0 in members:
        return None
    if not (p1_in or x0_absorbed):
        return None
    interior = [ear.vertices[t] for t in picks]
    return tuple(sorted(members + tuple(interior)))


def _stage_kernels(e: EarDecomposition):
    """Every stage digraph and its kernels in lexicographic order; one
    absorbing-set scan per stage below the last (see trace_kernels)."""
    h = Digraph(e.base.vertices, e.base.arcs)
    if not e.ears:
        return [h], [kernel_oracle(h, enumerate_all=True).details["all_kernels"]]
    stages, lists = [h], []
    for j, ear in enumerate(e.ears):
        verts, out, sym = _index_maps(h)
        out[verts.index(ear.x0)] = (1 << len(verts)) - 1  # x0 is exempt
        candidates, _ = _absorbing_sets(verts, sym, out)
        x0_out = h.out_neighbors(ear.x0)
        kernels, glued = [], []
        for s in candidates:
            absorbed = ear.x0 in s or not x0_out.isdisjoint(s)
            if absorbed:
                kernels.append(s)
            k = _forced_extension(ear, s, absorbed)
            if k is not None:
                glued.append(k)
        if j == 0:
            lists.append(kernels)
        lists.append(sorted(glued))
        h = h.union(ear.vertices, ear.arcs)
        stages.append(h)
    return stages, lists


def trace_kernels(d: Digraph, e: EarDecomposition,
                  direction: str = "forward") -> KernelTrace:
    """Kernel existence per stage, classified against the parity laws.

    A digraph with a kernel either has one at every stage (even base cycle)
    or gains one for good at some flip stage whose kernels all show a
    pull-back obstruction pattern.  A digraph without a kernel either never
    has one (odd base cycle) or loses it for good at a flip stage whose
    kernels all show a push-forward obstruction pattern.

    Every stage's kernels come from one scan per ear, by this lemma.  Let
    P = x0 p1 ... p(r-1) xr (r >= 2) be the ear glued onto D_j.  K is a
    kernel of D_{j+1} iff
      (a) S = K minus the interior is independent in D_j and absorbs every
          vertex of D_j except possibly x0,
      (b) each interior vertex p_t is in K iff p_{t+1} is not (p_r = xr),
      (c) x0 and p1 are not both in K, and x0 is in S, or some
          out-neighbour of x0 in D_j is in S, or p1 is in K.
    Proof: the interior is new, so gluing P adds the out-arc x0 p1 and the
    out-arcs of the interior and leaves every other out-neighbourhood of
    D_j as it was.  Independence on the arcs of D_j and absorption of the
    vertices of D_j other than x0 are therefore (a).  The only out-arc of
    p_t goes to p_{t+1}: independence on it says not both in, absorption
    of p_t says one of them in, together (b).  Independence on x0 p1 and
    absorption of x0, whose out-neighbours are its old ones and p1, are
    (c).
    So one scan of D_j with x0's row set to every vertex lists the S of
    (a); those absorbing x0 are D_j's kernels, and (b) fixes the interior
    from xr, so the S meeting (c) extended by it are D_{j+1}'s.  The last
    stage is never scanned; a bare cycle gets its oracle scan.  Each
    stage's reported kernel is re-checked before it is returned.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError("direction must be forward or backward")
    _check_cap(d, KERNEL_CAP, "kernel")
    require_decomposition(d, e, 2, "kernel trace", path_ears_only=True)
    stages, per_stage = _stage_kernels(e)
    entries = []
    for j, kernels in enumerate(per_stage):
        kernel = None
        if kernels:
            if not set_predicates(stages[j], kernels[0]).is_kernel:
                raise VerificationError(
                    f"{list(kernels[0])} is not a kernel of stage {j}")
            kernel = CertifiedSet(kernels[0], "kernel", stage=j)
        transitions: list[str] = []
        if j > 0:
            source = per_stage[j - 1] if direction == "forward" else kernels
            transitions = _transition_labels(direction, e.ears[j - 1], source)
        entries.append(StageEntry(j, bool(kernels), kernel, transitions))
    flags = [entry.has_kernel for entry in entries]
    flips = [j for j in range(len(flags) - 1) if flags[j] != flags[j + 1]]
    base_parity = "even" if len(e.base.vertices) % 2 == 1 else "odd"
    # base ear repeats its anchor, so vertex-list length n+1 drives parity
    pattern_check: dict = {"required": None, "holds": True, "kernels_checked": 0}
    gained = flags[-1]  # a gain is checked after its flip, a loss before it
    if all(flag == gained for flag in flags):
        flip_stage = None
        dichotomy = ("all_stages_have_kernels" if gained
                     else "all_stages_lack_kernels")
    else:
        flip_stage = max(j for j, flag in enumerate(flags) if flag != gained)
        ear = e.ears[flip_stage]
        stage, rule, kind = ((flip_stage + 1, restrict_condition, "pull-back")
                             if gained else
                             (flip_stage, extend_case, "push-forward"))
        kernels = per_stage[stage]
        ok = all(rule(ear.x0 in set(k), ear.xr in set(k), ear.length) is None
                 for k in kernels)
        pattern_check = {"required": f"{kind} obstruction on every kernel "
                                     f"of stage {stage}",
                         "holds": ok, "kernels_checked": len(kernels)}
        dichotomy = f"flip_at_stage_{flip_stage}" if ok else "mixed"
    return KernelTrace(entries, dichotomy, flip_stage, flips, base_parity,
                       pattern_check)
