"""Kernel propagation across path ears.

Restriction pulls a kernel back from a glued stage to its predecessor;
extension pushes one forward with an explicit alternating pattern on the
new ear.  Tracing runs the stage-by-stage oracle along a decomposition and
classifies the result against the two parity dichotomies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import CertifiedSet
from .digraph import Digraph, is_nonseparable, is_strong, set_predicates
from .ears import Ear, EarDecomposition, require_decomposition
from .errors import InvalidInputError, VerificationError
from .oracles import kernel_oracle


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


def restrict_condition(x0_in: bool, xr_in: bool, length: int) -> int | None:
    """Which of the four pull-back conditions the endpoint pattern meets;
    None when the pattern is a pull-back obstruction."""
    if x0_in and xr_in:
        return 1
    if x0_in:
        return 2
    if xr_in:
        return 3 if length % 2 == 0 else None
    return 4 if length % 2 == 1 else None


def extend_case(x0_in: bool, xr_in: bool, length: int):
    """Case number and internal-index range (start, stop, stride 2); None
    when the pattern is a push-forward obstruction."""
    even = length % 2 == 0
    if x0_in and xr_in:
        return (1, 2, length - 2) if even else None
    if x0_in:
        return None if even else (2, 2, length - 1)
    if xr_in:
        return (3, 2, length - 2) if even else (3, 1, length - 2)
    return (4, 1, length - 1) if even else (4, 2, length - 1)


def _check_stage_and_ear(h: Digraph, p: Ear) -> Digraph:
    if p.is_cycle:
        raise InvalidInputError(
            "kernel propagation needs a path ear: endpoints must differ")
    if p.length < 2:
        raise InvalidInputError("kernel propagation needs ear length >= 2")
    if p.x0 not in h.vertices or p.xr not in h.vertices:
        raise InvalidInputError("ear endpoints must lie in the stage digraph")
    # every arc of a path ear of length >= 2 has an internal end, so new
    # internal vertices also make every ear arc new
    if not h.vertices.isdisjoint(p.internal):
        raise InvalidInputError("ear internal vertices must be new")
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
    case, start, stop = plan
    extended = n | {p.vertices[i] for i in range(start, stop + 1, 2)}
    if not set_predicates(glued, extended).is_kernel:
        raise VerificationError(
            f"extension {sorted(extended)} under case {case} "
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


def trace_kernels(d: Digraph, e: EarDecomposition,
                  direction: str = "forward") -> KernelTrace:
    """Oracle kernel existence per stage, classified against the parity laws.

    A digraph with a kernel either has one at every stage (even base cycle)
    or gains one for good at some flip stage whose kernels all show a
    pull-back obstruction pattern.  A digraph without a kernel either never
    has one (odd base cycle) or loses it for good at a flip stage whose
    kernels all show a push-forward obstruction pattern.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError("direction must be forward or backward")
    require_decomposition(d, e, 2, "kernel trace", path_ears_only=True)
    per_stage = [kernel_oracle(h, enumerate_all=True) for h in e.stages()]
    entries = []
    for j, rep in enumerate(per_stage):
        kernel = None
        if rep.value:
            kernel = CertifiedSet(rep.witness, "kernel", stage=j)
        transitions: list[str] = []
        if j > 0:
            ear = e.ears[j - 1]
            source = per_stage[j - 1] if direction == "forward" else rep
            transitions = _transition_labels(
                direction, ear, source.details.get("all_kernels", []))
        entries.append(StageEntry(j, bool(rep.value), kernel, transitions))
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
        kernels = per_stage[stage].details["all_kernels"]
        ok = all(rule(ear.x0 in set(k), ear.xr in set(k), ear.length) is None
                 for k in kernels)
        pattern_check = {"required": f"{kind} obstruction on every kernel "
                                     f"of stage {stage}",
                         "holds": ok, "kernels_checked": len(kernels)}
        dichotomy = f"flip_at_stage_{flip_stage}" if ok else "mixed"
    return KernelTrace(entries, dichotomy, flip_stage, flips, base_parity,
                       pattern_check)
