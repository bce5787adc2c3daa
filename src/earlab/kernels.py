"""Kernel propagation across path ears.

One rule carries a kernel across an ear in both directions: its interior
alternates back from the ear's end xr, every second vertex, and p1 decides
the rest (see trace_kernels).  Across the last ear of a decomposition of
the input, extension pushes a kernel of the stage before it forward unless
x0 and p1 are both in; restriction pulls a kernel of the input back unless
x0 is out and p1 in.  Tracing lists every kernel of every stage and
classifies the result against the two parity dichotomies.  The input is
indexed once, in the order the parts add vertices, so each stage is a
prefix of that index.  One forward pass over the ears carries the forced
forest from stage to stage, and each stage's scan branches only on the
vertices whose out-degree is not 1.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from operator import countOf, itemgetter

from .constructions import CertifiedSet, _stride_back
from .digraph import Digraph
from .ears import EarDecomposition, require_decomposition
from .errors import (CapExceededError, InvalidInputError, PropertyFailedError,
                     VerificationError)
from .oracles import _index_maps

TRACE_VERTEX_CAP = 500
TRACE_BRANCH_CAP = 20


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


def extend_case(x0_in: bool, xr_in: bool, length: int) -> int | None:
    """Which of the four push-forward cases the endpoint pattern meets;
    None when the pattern is a push-forward obstruction.

    This is the trace_kernels lemma applied to one kernel N of the stage:
    N absorbs x0, so N with the interior that (b) fixes from xr (every
    second vertex back from xr, _stride_back) is a kernel unless x0 and p1
    are both in.  The interior alternates back from xr, so p1 is in for
    both_in_odd and x0_in_xr_out_even, the two obstructions.
    """
    p1_in = 1 in _stride_back(length, xr_in, 2)
    return None if p1_in and x0_in else _case(x0_in, xr_in)


def _last_ear(d: Digraph, e: EarDecomposition) -> tuple[int, ...]:
    """The vertices of the last ear of e, once e is a path-ears
    decomposition of d with every ear of length >= 2.  The stage before it
    is d minus its interior, as each arc of the ear has an interior end.

    Every stage is then strong and nonseparable, as the rules assume: the
    base cycle is (a digon is one edge), and gluing a path with ends
    x0 != xr and a new interior keeps both.  Each new vertex is reached
    from x0 and reaches xr; deleting one vertex leaves the old stage, or it
    minus that vertex, connected, with the rest of the path hanging from
    an end still there (an open ear decomposition is 2-connected, Whitney).
    """
    require_decomposition(d, e, 2, "kernel propagation", path_ears_only=True)
    if not e.ears:
        raise InvalidInputError("decomposition has no ears to propagate across")
    return e.ears[-1]


def _kernel_violation(d: Digraph, vertices: frozenset[int],
                      s: frozenset[int]) -> str | None:
    """None if s is a kernel of d on these vertices (InvalidInputError if
    it leaves them), else what keeps it from being one, at the least
    vertex that does: a member with an out-neighbour in s (the least one
    is named) or a non-member with none.  d's out-neighbourhoods serve,
    as s holds no other vertex."""
    if not s <= vertices:
        raise InvalidInputError(f"set {sorted(s - vertices)!s:.40} not in digraph")
    v = min((v for v in vertices if (v in s) != s.isdisjoint(d.out_neighbors(v))),
            default=None)
    if v is None:
        return None
    if v in s:
        w = min(s.intersection(d.out_neighbors(v)))
        return f"member {v} has out-neighbour {w} in the set"
    return f"non-member {v} has no out-neighbour in the set"


def restrict_kernel(d: Digraph, e: EarDecomposition,
                    n_prime) -> CertifiedSet | KernelObstruction:
    """Pull a kernel of d back across the last ear of e (see _last_ear);
    PropertyFailedError if n_prime is no kernel of d."""
    p = _last_ear(d, e)
    n_prime = frozenset(n_prime)
    violation = _kernel_violation(d, d.vertices, n_prime)
    if violation:
        raise PropertyFailedError(f"{sorted(n_prime)!s:.40} is not a kernel "
                                  f"of the glued digraph; {violation}")
    x0_in, xr_in, r = p[0] in n_prime, p[-1] in n_prime, len(p) - 1
    condition = restrict_condition(x0_in, xr_in, r)
    if condition is None:
        return KernelObstruction("restrict", x0_in, xr_in, r)
    stage = d.vertices.difference(p[1:-1])
    restricted = n_prime & stage
    if _kernel_violation(d, stage, restricted):
        raise VerificationError(
            f"restriction {sorted(restricted)} under condition {condition} "
            f"is not a kernel of the stage digraph")
    return CertifiedSet(tuple(restricted), "kernel")


def extend_kernel(d: Digraph, e: EarDecomposition,
                  n) -> CertifiedSet | KernelObstruction:
    """Push a kernel of the stage before the last ear of e forward to d
    (see _last_ear); PropertyFailedError if n is no kernel of the stage."""
    p = _last_ear(d, e)
    stage = d.vertices.difference(p[1:-1])
    n = frozenset(n)
    violation = _kernel_violation(d, stage, n)
    if violation:
        raise PropertyFailedError(f"{sorted(n)!s:.40} is not a kernel "
                                  f"of the stage digraph; {violation}")
    x0_in, xr_in, r = p[0] in n, p[-1] in n, len(p) - 1
    case = extend_case(x0_in, xr_in, r)
    if case is None:
        return KernelObstruction("extend", x0_in, xr_in, r)
    extended = n | {p[t] for t in _stride_back(r, xr_in, 2)}
    if _kernel_violation(d, d.vertices, extended):
        raise VerificationError(
            f"extension {sorted(extended)} under case {case} "
            f"is not a kernel of the glued digraph")
    return CertifiedSet(tuple(extended), "kernel")


def _transition_labels(direction: str, p: tuple[int, ...], kernels) -> list[str]:
    op, rule, rule_name = (("extend", extend_case, "case") if direction == "forward"
                           else ("restrict", restrict_condition, "condition"))
    labels = set()
    for members in kernels:
        ends = (p[0] in members, p[-1] in members, len(p) - 1)
        found = rule(*ends)
        if found is None:
            labels.add(f"{op} obstruction {_pattern(*ends)}")
        else:
            labels.add(f"{op} {rule_name} {found}")
    return sorted(labels)


def _check_trace_caps(d: Digraph) -> None:
    if d.n > TRACE_VERTEX_CAP:
        raise CapExceededError(
            f"kernel trace capped at {TRACE_VERTEX_CAP} vertices, got {d.n}")
    branch = d.n - countOf(Counter(map(itemgetter(0), d.arcs)).values(), 1)
    if branch > TRACE_BRANCH_CAP:
        raise CapExceededError(
            f"kernel trace capped at {TRACE_BRANCH_CAP} branch vertices "
            f"(out-degree other than 1), got {branch}")


def _branch_kernels(verts: list[int], n: int, out: list[int], branch: list[int],
                    blocks: dict[int, list[int]], reach: dict[int, list[int]]
                    ) -> list[tuple[int, ...]]:
    """The kernels of the digraph on the first n indexed vertices, as
    sorted member tuples in lexicographic order, given its forced forest:
    the branch vertices in index order, and per branch vertex r and
    choice c (1 in, 0 out) the block of vertices that choice puts in the
    set and the vertices adjacent to them (see trace_kernels).

    The scan enumerates the choices whose blocks are independent,
    pairwise and inside, and checks that each branch vertex left out is
    absorbed as soon as the choices deciding its row are made; a forced
    vertex left out is absorbed by its successor, which is in.
    """
    cut = (1 << n) - 1
    options = [[(blk, adj) for blk, adj in zip(blocks[r], reach[r])
                if not blk & adj] for r in branch]
    # a branch vertex left out is checked once the choices deciding it and
    # every vertex of its row are made
    checks: list[list[tuple[int, int]]] = [[] for _ in branch]
    decided, prefix = 0, []
    for r in branch:
        decided |= blocks[r][0] | blocks[r][1]
        prefix.append(decided)
    for k, b in enumerate(branch):
        row, last = out[b] & cut, k
        while row & ~prefix[last]:
            last += 1
        checks[last].append((1 << b, row))
    found: list[tuple[int, ...]] = []
    members = verts[:n]
    stack = [(0, 0, 0)]
    while stack:
        idx, mask, blocked = stack.pop()
        if idx == len(branch):
            found.append(tuple(sorted(v for i, v in enumerate(members)
                                      if mask >> i & 1)))
            continue
        for blk, adj in options[idx]:
            if blk & blocked:
                continue
            grown = mask | blk
            for bit, row in checks[idx]:
                if not (grown & bit or row & grown):
                    break
            else:
                stack.append((idx + 1, grown, blocked | adj))
    found.sort()
    return found


def _stage_kernels(d: Digraph, e: EarDecomposition):
    """d indexed once in e's vertex order (verts and out-rows), each
    stage's vertex count (e.ends), and each stage's kernels in
    lexicographic order: stage j is d on the first e.ends[j] vertices.
    One forward pass over the ears carries the forced forest from stage
    to stage (see trace_kernels): each forced vertex's successor, root and
    parity (when, 1 at a root), the forced vertices that follow each
    vertex (kids), and each branch vertex's blocks and reach.
    """
    verts, out, sym = _index_maps(d, list(e.order))
    pos = dict(zip(verts, range(len(verts))))
    size, n0 = len(verts), e.ends[0]
    succ, kids = [-1] * size, [[] for _ in range(size)]
    root, when = [0] * size, [1] * size
    blocks, reach = {0: [0, 1]}, {0: [0, sym[0]]}

    def hang(v: int, s: int) -> None:  # forced v follows s, from s's root
        succ[v] = s
        kids[s].append(v)
        r = root[v] = root[s]
        c = when[v] = 1 - when[s]
        blocks[r][c] |= 1 << v
        reach[r][c] |= sym[v]

    # stage 0, the base cycle, is one closed chain of forced vertices: it
    # branches at index 0
    for i in range(n0 - 1, 0, -1):
        hang(i, (i + 1) % n0)
    branch = [0]
    lists = [_branch_kernels(verts, n0, out, branch, blocks, reach)]
    for j, (p, n) in enumerate(zip(e.ears, e.ends)):
        x0 = pos[p[0]]
        if succ[x0] >= 0:  # x0 stops being forced: its in-tree hangs from it
            old = root[x0]
            kids[succ[x0]].remove(x0)
            succ[x0] = -1
            if j == 0:  # the base chain dissolves: index 0 follows index 1
                succ[0] = 1
                kids[1].append(0)
                branch.remove(0)
            insort(branch, x0)
            root[x0], when[x0] = x0, 1
            blocks[x0], reach[x0] = [0, 0], [0, 0]
            tree = [x0]
            for v in tree:
                blocks[x0][when[v]] |= 1 << v
                reach[x0][when[v]] |= sym[v]
                for u in kids[v]:
                    root[u], when[u] = x0, 1 - when[v]
                    tree.append(u)
            moved = blocks[x0][0] | blocks[x0][1]
            for c in (0, 1):  # the old root keeps the rest, and their reach
                rest = blocks[old][c] = blocks[old][c] & ~moved
                reach[old][c] = 0
                while rest:
                    low = rest & -rest
                    reach[old][c] |= sym[low.bit_length() - 1]
                    rest ^= low
        nxt = pos[p[-1]]  # the interior hangs from xr, parity alternating
        for v in range(n + len(p) - 3, n - 1, -1):
            hang(v, nxt)
            nxt = v
        lists.append(_branch_kernels(verts, n + len(p) - 2, out, branch,
                                     blocks, reach))
    return verts, out, list(e.ends), lists


def _is_prefix_kernel(pos: dict[int, int], out: list[int], n: int,
                      members) -> bool:
    """members is a kernel of the digraph on the first n indexed vertices:
    each lies among them, no member's out-row meets the set, and every
    other vertex's does."""
    mask = 0
    for v in members:
        i = pos.get(v, n)
        if i >= n:
            return False
        mask |= 1 << i
    return all(not out[i] & mask if mask >> i & 1 else out[i] & mask
               for i in range(n))


def trace_kernels(d: Digraph, e: EarDecomposition,
                  direction: str = "forward") -> dict:
    """Kernel existence per stage, classified against the parity laws: the
    payload of `kernel trace`, one entry per stage under "stages".

    A digraph with a kernel either has one at every stage (even base cycle)
    or gains one for good at some flip stage whose kernels all show a
    pull-back obstruction pattern.  A digraph without a kernel either never
    has one (odd base cycle) or loses it for good at a flip stage whose
    kernels all show a push-forward obstruction pattern.

    The input is indexed once, in the order the parts add vertices: the
    base cycle, then each ear's interior.  Let n_j count the vertices of
    D_j.  Then D_j is D on the first n_j vertices of that order.  Proof:
    those are D_j's vertices.  Each arc of D lies on exactly one part
    (require_decomposition), and each arc of a later ear, a path of
    length >= 2, has an end in that ear's interior, which comes after the
    first n_j.  So an arc of D joining two of them is an arc of D_j, and
    D_j's out-rows are D's first n_j out-rows cut to the first n_j
    vertices.  Every stage's reported kernel, the last stage's included,
    is re-checked on those rows (_is_prefix_kernel) before it is returned.

    The rules read one kernel across one ear by this lemma.  Let
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
    So a kernel of D_j, which absorbs x0, extends to a kernel of D_{j+1},
    its interior fixed from xr by (b), unless x0 and p1 are both in
    (extend_case).  A kernel K of D_{j+1} restricts to S, which by (a) is
    a kernel of D_j iff it absorbs x0; (c) forces that unless x0 is out
    and p1 in (restrict_condition).

    A scan branches only where there is a choice, by a second lemma.  Let
    v be a vertex whose out-row has one vertex w.  Then every kernel holds
    v iff it does not hold w.  Proof: if v is in the kernel, independence
    on the arc v w keeps w out; if v is out, the kernel absorbs v, and
    only w can.  So a scan (_branch_kernels) chooses only for the branch
    vertices, those of out-degree other than 1, in index order, and fills
    each other vertex from its successor.  Following successors, each
    forced vertex reaches one branch vertex, its root, and is in the set
    iff the root is, at even distance, or is not, at odd: each choice of
    a root decides a block.  These successors, roots and parities are the
    forced forest.  A cycle of forced vertices has no arc leaving it, so
    in a strong stage it is the whole stage: it occurs only in D_0, the
    base cycle, and the scan then branches at index 0.

    The forest is carried from stage to stage, by a third lemma: D_{j+1}'s
    out-rows are D_j's except x0's, which gains p1, and the new rows of
    the interior, p_t's being p_{t+1} alone.  Proof: by the prefix lemma
    above, each arc of D_{j+1} not in D_j is an arc of P, and the only
    one of them leaving an old vertex is x0 p1.  So every forced vertex
    of D_j but x0 keeps its successor, and so its root and parity, unless
    its path of successors runs through x0.  If x0 was forced it now
    branches, and only its in-tree, the vertices whose successors lead
    to it, moves: it hangs from x0, and the old root keeps the rest of its
    block, whose reach is recomputed from the members left.  At stage 1
    the base chain opens unless x0 is index 0: index 0, which branched
    only to break the chain, follows index 1, and the whole base becomes
    x0's in-tree.  The new interior hangs from xr, p_t in iff p_{t+1} is
    not.  A move costs the two blocks it touches and happens once per
    vertex that turns into a branch vertex, so the pass costs the ears'
    lengths plus the vertices once per branch vertex of D, beside the
    scans themselves.

    Two caps bound the work.  A stage's other branch vertices are among
    the input's: a strong stage on two or more vertices keeps each
    out-degree-1 vertex's one arc.  So capping the input at
    TRACE_BRANCH_CAP branch vertices caps each scan at 2^TRACE_BRANCH_CAP
    choices, the bound the kernel oracle's 20 vertices give.  The number
    of kernels is not bounded otherwise: a subdivided symmetric cycle has
    as many kernels as the cycle, exponentially many in its length.
    Every kernel of every stage is listed as a sorted tuple, which grows
    with the kernels times the vertices, and the input is capped at
    TRACE_VERTEX_CAP vertices.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError("direction must be forward or backward")
    _check_trace_caps(d)
    require_decomposition(d, e, 2, "kernel trace", path_ears_only=True)
    verts, out, sizes, per_stage = _stage_kernels(d, e)
    pos = {v: i for i, v in enumerate(verts)}
    flags = [bool(kernels) for kernels in per_stage]
    stages = []
    for j, kernels in enumerate(per_stage):
        kernel = None
        if kernels:
            if not _is_prefix_kernel(pos, out, sizes[j], kernels[0]):
                raise VerificationError(
                    f"{list(kernels[0])} is not a kernel of stage {j}")
            kernel = CertifiedSet(kernels[0], "kernel", stage=j).to_json()
        transitions: list[str] = []
        if j > 0:
            source = per_stage[j - 1] if direction == "forward" else kernels
            transitions = _transition_labels(direction, e.ears[j - 1], source)
        stages.append({"stage": j, "has_kernel": flags[j], "kernel": kernel,
                       "transitions": transitions})
    flips = [j for j in range(len(flags) - 1) if flags[j] != flags[j + 1]]
    base_parity = "even" if len(e.base) % 2 == 1 else "odd"
    # base ear repeats its anchor, so vertex-list length n+1 drives parity
    pattern_check: dict = {"required": None, "holds": True, "kernels_checked": 0}
    gained = flags[-1]  # a gain is checked after its flip, a loss before it
    if all(flag == gained for flag in flags):
        flip_stage = None
        dichotomy = ("all_stages_have_kernels" if gained
                     else "all_stages_lack_kernels")
    else:
        flip_stage = max(j for j, flag in enumerate(flags) if flag != gained)
        p = e.ears[flip_stage]
        stage, rule, kind = ((flip_stage + 1, restrict_condition, "pull-back")
                             if gained else
                             (flip_stage, extend_case, "push-forward"))
        kernels = per_stage[stage]
        ok = all(rule(p[0] in k, p[-1] in k, len(p) - 1) is None
                 for k in kernels)
        pattern_check = {"required": f"{kind} obstruction on every kernel "
                                     f"of stage {stage}",
                         "holds": ok, "kernels_checked": len(kernels)}
        dichotomy = f"flip_at_stage_{flip_stage}" if ok else "mixed"
    return {"stages": stages, "dichotomy": dichotomy, "flip_stage": flip_stage,
            "flips": flips, "base_parity": base_parity,
            "pattern_check": pattern_check}
