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


@dataclass(frozen=True)
class KernelObstruction:
    operation: str
    pattern: str
    x0_in: bool
    xr_in: bool
    length: int

    def to_json(self) -> dict:
        return {"operation": self.operation, "pattern": self.pattern,
                "x0_in": self.x0_in, "xr_in": self.xr_in, "length": self.length}


def restrict_condition(x0_in: bool, xr_in: bool, length: int) -> int | None:
    """Which of the four pull-back conditions the endpoint pattern meets."""
    if x0_in and xr_in:
        return 1
    if x0_in:
        return 2
    if xr_in:
        return 3 if length % 2 == 0 else None
    return 4 if length % 2 == 1 else None


def restrict_obstruction(x0_in: bool, xr_in: bool, length: int) -> str | None:
    if not x0_in and xr_in and length % 2 == 1:
        return "x0_out_xr_in_odd"
    if not x0_in and not xr_in and length % 2 == 0:
        return "both_out_even"
    return None


def extend_case(x0_in: bool, xr_in: bool, length: int):
    """Case number and internal-index range (start, stop, stride 2)."""
    even = length % 2 == 0
    if x0_in and xr_in:
        return (1, 2, length - 2) if even else None
    if x0_in:
        return None if even else (2, 2, length - 1)
    if xr_in:
        return (3, 2, length - 2) if even else (3, 1, length - 2)
    return (4, 1, length - 1) if even else (4, 2, length - 1)


def extend_obstruction(x0_in: bool, xr_in: bool, length: int) -> str | None:
    if x0_in and xr_in and length % 2 == 1:
        return "both_in_odd"
    if x0_in and not xr_in and length % 2 == 0:
        return "x0_in_xr_out_even"
    return None


def _check_stage_and_ear(h: Digraph, p: Ear) -> Digraph:
    if p.is_cycle:
        raise InvalidInputError(
            "kernel propagation needs a path ear: endpoints must differ")
    if p.length < 2:
        raise InvalidInputError("kernel propagation needs ear length >= 2")
    if p.x0 not in h.vertices or p.xr not in h.vertices:
        raise InvalidInputError("ear endpoints must lie in the stage digraph")
    fresh = set(p.internal)
    if fresh & h.vertices:
        raise InvalidInputError("ear internal vertices must be new")
    if any(a in h.arcs for a in p.arcs):
        raise InvalidInputError("ear arcs must be absent from the stage digraph")
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
        return KernelObstruction("restrict",
                                 restrict_obstruction(x0_in, xr_in, p.length),
                                 x0_in, xr_in, p.length)
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
        return KernelObstruction("extend",
                                 extend_obstruction(x0_in, xr_in, p.length),
                                 x0_in, xr_in, p.length)
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
    labels = set()
    for members in kernels:
        s = set(members)
        x0_in, xr_in = ear.x0 in s, ear.xr in s
        if direction == "forward":
            plan = extend_case(x0_in, xr_in, ear.length)
            if plan is not None:
                labels.add(f"extend case {plan[0]}")
            else:
                labels.add(f"extend obstruction {extend_obstruction(x0_in, xr_in, ear.length)}")
        else:
            cond = restrict_condition(x0_in, xr_in, ear.length)
            if cond is not None:
                labels.add(f"restrict condition {cond}")
            else:
                labels.add(f"restrict obstruction {restrict_obstruction(x0_in, xr_in, ear.length)}")
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
    per_stage = []
    for j in range(e.stage_count):
        rep = kernel_oracle(e.stage(j), enumerate_all=True)
        per_stage.append(rep)
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
    if flags[-1]:
        if all(flags):
            dichotomy, flip_stage = "all_stages_have_kernels", None
        else:
            flip_stage = max(j for j in range(len(flags)) if not flags[j])
            ear = e.ears[flip_stage]
            kernels = per_stage[flip_stage + 1].details["all_kernels"]
            ok = all(
                restrict_obstruction(ear.x0 in set(k), ear.xr in set(k), ear.length)
                for k in kernels)
            pattern_check = {"required": "pull-back obstruction on every kernel "
                                         f"of stage {flip_stage + 1}",
                            "holds": ok, "kernels_checked": len(kernels)}
            dichotomy = f"flip_at_stage_{flip_stage}" if ok else "mixed"
    else:
        if not any(flags):
            dichotomy, flip_stage = "all_stages_lack_kernels", None
        else:
            flip_stage = max(j for j in range(len(flags)) if flags[j])
            ear = e.ears[flip_stage]
            kernels = per_stage[flip_stage].details["all_kernels"]
            ok = all(
                extend_obstruction(ear.x0 in set(k), ear.xr in set(k), ear.length)
                for k in kernels)
            pattern_check = {"required": "push-forward obstruction on every kernel "
                                         f"of stage {flip_stage}",
                            "holds": ok, "kernels_checked": len(kernels)}
            dichotomy = f"flip_at_stage_{flip_stage}" if ok else "mixed"
    return KernelTrace(entries, dichotomy, flip_stage, flips, base_parity,
                       pattern_check)
