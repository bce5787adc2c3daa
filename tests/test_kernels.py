import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from earlab import kernels, oracles, oriented
from earlab.coloring import VertexMapping, verify_homomorphism
from earlab.constructions import CertifiedSet, _stride_back
from earlab.digraph import Digraph, is_kernel, set_predicates
from earlab.ears import (EarDecomposition, generate_random_le,
                         require_decomposition)
from earlab.errors import (InvalidInputError, PropertyFailedError,
                           VerificationError)
from earlab.kernels import (KernelObstruction, extend_case, extend_kernel,
                            restrict_condition, restrict_kernel, trace_kernels)
from earlab.oracles import _absorbing_sets, _index_maps, kernel_oracle


def c4():
    return Digraph.cycle(4)


def arcs(p):
    return tuple(zip(p, p[1:]))


def glue(h, ear):
    return h.union(ear, arcs(ear))


def c4_plus(ear):
    """C4 with ear glued on, and that decomposition."""
    return glue(c4(), ear), EarDecomposition((0, 1, 2, 3, 0), [ear])


def test_obstructed_patterns_are_the_two_named_per_rule():
    named = {restrict_condition: {"x0_out_xr_in_odd", "both_out_even"},
             extend_case: {"both_in_odd", "x0_in_xr_out_even"}}
    for rule, names in named.items():
        obstructed = {KernelObstruction("", *ends).pattern
                      for ends in product((False, True), (False, True), range(2, 10))
                      if rule(*ends) is None}
        assert obstructed == names


def test_restrict_condition_values():
    assert restrict_condition(True, True, 2) == 1
    assert restrict_condition(True, True, 3) == 1
    assert restrict_condition(True, False, 5) == 2
    assert restrict_condition(False, True, 4) == 3
    assert restrict_condition(False, True, 3) is None
    assert restrict_condition(False, False, 3) == 4
    assert restrict_condition(False, False, 4) is None
    assert KernelObstruction("restrict", False, True, 3).pattern == "x0_out_xr_in_odd"
    assert KernelObstruction("restrict", False, False, 4).pattern == "both_out_even"


def test_extend_case_values():
    assert extend_case(True, True, 4) == 1
    assert extend_case(True, True, 3) is None
    assert extend_case(True, False, 3) == 2
    assert extend_case(True, False, 4) is None
    assert extend_case(False, True, 4) == 3
    assert extend_case(False, True, 3) == 3
    assert extend_case(False, False, 4) == 4
    assert extend_case(False, False, 3) == 4
    assert KernelObstruction("extend", True, True, 3).pattern == "both_in_odd"
    assert KernelObstruction("extend", True, False, 4).pattern == "x0_in_xr_out_even"


def test_rules_are_the_lemma_on_one_kernel():
    # each rule against the oracle's kernels of the stage and of the glued
    # stage, over every one-ear instance
    for d, e in one_ear_instances():
        stage, (ear,) = e.stage(0), e.ears
        p, r = ear.vertices, len(ear.vertices) - 1
        interior = set(p[1:-1])
        stage_kernels = kernel_oracle(stage, enumerate_all=True).details["all_kernels"]
        glued_kernels = kernel_oracle(d, enumerate_all=True).details["all_kernels"]
        for n in stage_kernels:
            glued = [k for k in glued_kernels if set(k) - interior == set(n)]
            case = extend_case(p[0] in n, p[-1] in n, r)
            assert (case is None) == (not glued), (e, n)
            if case is not None:
                added = {p[t] for t in _stride_back(r, p[-1] in n, 2)}
                assert glued == [tuple(sorted({*n, *added}))], (e, n)
        for k in glued_kernels:
            restricted = tuple(sorted(set(k) - interior))
            condition = restrict_condition(p[0] in k, p[-1] in k, r)
            # an obstruction pattern is x0 out and p1 in: then the
            # restriction is a stage kernel iff an old out-neighbour of x0
            # is in it
            absorbed = not set(stage.out_neighbors(p[0])).isdisjoint(k)
            assert ((restricted in stage_kernels)
                    == (condition is not None or absorbed)), (e, k)


def test_extend_case_one_even_interior():
    # both endpoints kept, even ear: every second interior vertex joins
    ear = (0, 4, 5, 6, 2)
    result = extend_kernel(*c4_plus(ear), (0, 2))
    assert isinstance(result, CertifiedSet)
    assert result.members == (0, 2, 5)
    assert is_kernel(glue(c4(), ear), set(result.members))


def test_extend_length_two_adds_nothing():
    ear = (0, 4, 2)
    result = extend_kernel(*c4_plus(ear), (0, 2))
    assert result.members == (0, 2)
    assert is_kernel(glue(c4(), ear), {0, 2})


def test_extend_case_two_odd():
    ear = (0, 4, 5, 3)
    result = extend_kernel(*c4_plus(ear), (0, 2))
    assert result.members == (0, 2, 5)
    assert is_kernel(glue(c4(), ear), {0, 2, 5})


def test_extend_case_three_both_parities():
    even_ear = (1, 4, 5, 6, 0)
    result = extend_kernel(*c4_plus(even_ear), (0, 2))
    assert result.members == (0, 2, 5)
    odd_ear = (1, 4, 5, 0)
    result = extend_kernel(*c4_plus(odd_ear), (0, 2))
    assert result.members == (0, 2, 4)
    assert is_kernel(glue(c4(), odd_ear), {0, 2, 4})


def test_extend_case_four_both_parities():
    even_ear = (1, 4, 5, 6, 3)
    result = extend_kernel(*c4_plus(even_ear), (0, 2))
    assert result.members == (0, 2, 4, 6)
    odd_ear = (1, 4, 5, 3)
    result = extend_kernel(*c4_plus(odd_ear), (0, 2))
    assert result.members == (0, 2, 5)


def test_extend_obstruction_reported():
    ear = (0, 4, 5, 2)
    result = extend_kernel(*c4_plus(ear), (0, 2))
    assert isinstance(result, KernelObstruction)
    assert result.operation == "extend"
    assert result.pattern == "both_in_odd"
    doc = result.to_json()
    assert doc["pattern"] == "both_in_odd" and doc["length"] == 3


def test_restrict_recovers_from_extend_results():
    ear = (0, 4, 5, 6, 2)
    extended = extend_kernel(*c4_plus(ear), (0, 2))
    back = restrict_kernel(*c4_plus(ear), extended.members)
    assert isinstance(back, CertifiedSet)
    assert back.members == (0, 2)


def test_restrict_obstruction_reported():
    # kernel of the glued digraph missing x0, containing xr, odd ear
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (6, 2)]
    ear = (0, 5, 6, 2)
    glued = Digraph(range(7), arcs)
    assert is_kernel(glued, {2, 4, 5})
    e = EarDecomposition((0, 1, 2, 3, 4, 0), [ear])
    result = restrict_kernel(glued, e, (2, 4, 5))
    assert isinstance(result, KernelObstruction)
    assert result.operation == "restrict"
    assert result.pattern == "x0_out_xr_in_odd"


def test_cycle_ears_are_rejected():
    for op in (extend_kernel, restrict_kernel):
        with pytest.raises(InvalidInputError, match="invalid decomposition: "
                           "stage 0: cycle ear not allowed in path-ears mode"):
            op(*c4_plus((0, 4, 5, 0)), (0, 2))


def test_extend_checks_input_is_kernel():
    # a caller's set, not a built certificate: PropertyFailedError itself,
    # naming the first violation in sorted order
    d, e = c4_plus((0, 4, 2))
    for op, digraph, members, violation in (
            (extend_kernel, "stage", (0, 1), "member 0 has out-neighbour 1"),
            (restrict_kernel, "glued", (0, 1), "member 0 has out-neighbour 1"),
            (extend_kernel, "stage", (1,), "non-member 2 has no out-neighbour"),
            (restrict_kernel, "glued", (1, 3),
             "non-member 4 has no out-neighbour")):
        with pytest.raises(PropertyFailedError) as info:
            op(d, e, members)
        assert type(info.value) is PropertyFailedError
        assert str(info.value) == (f"{list(members)} is not a kernel of the "
                                   f"{digraph} digraph; {violation} in the set")


def test_extend_refuses_a_set_outside_the_stage():
    # 4 is the ear's interior: in d, but not in the stage
    d, e = c4_plus((0, 4, 2))
    with pytest.raises(InvalidInputError, match=r"set \[4\] not in digraph"):
        extend_kernel(d, e, (0, 4))
    with pytest.raises(InvalidInputError, match=r"set \[9\] not in digraph"):
        restrict_kernel(d, e, (0, 9))


def test_extend_rejects_stale_interior():
    with pytest.raises(InvalidInputError, match="invalid decomposition: stage 0: "
                       r"ear internal vertices must be new, \[3\] already"):
        extend_kernel(*c4_plus((0, 3, 2)), (0, 2))


def test_extend_rejects_separable_host():
    # two triangles sharing 0 take a cycle ear, so no path-ears
    # decomposition gives this stage
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 5), (5, 3)]
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 4, 0), (1, 5, 3)])
    with pytest.raises(InvalidInputError, match="invalid decomposition: "
                       "stage 0: cycle ear not allowed"):
        extend_kernel(Digraph(range(6), arcs), e, (2, 4))


@pytest.mark.parametrize("op", [extend_kernel, restrict_kernel])
@pytest.mark.parametrize("d, e, message", [
    (*c4_plus((0, 2)), "kernel propagation needs every ear length >= 2"),
    (*c4_plus((0, 4, 7)), "invalid decomposition: stage 0: "
     "ear endpoints must lie in the stage"),
    # the arc (0, 1) is already in the stage; its internal end 1 is caught
    (*c4_plus((0, 1, 2)), "invalid decomposition: stage 0: "
     "ear internal vertices must be new"),
    # the stage 0 -> 1 -> 2 is no cycle
    (c4(), EarDecomposition((0, 1, 2, 0), [(2, 3, 0)]),
     r"invalid decomposition: stage 0: base arc \(2, 0\) not in host"),
    (c4(), EarDecomposition((0, 1, 2, 3, 0)),
     "decomposition has no ears to propagate across"),
], ids=["length-1", "endpoint-outside", "arc-in-stage", "not-strong",
        "no-ears"])
def test_propagation_rejects_bad_stage_or_ear(op, d, e, message):
    with pytest.raises(InvalidInputError, match=message):
        op(d, e, (0, 2))


def test_trace_rejects_unknown_direction():
    e = EarDecomposition((0, 1, 2, 3, 0), [])
    with pytest.raises(InvalidInputError, match="forward or backward"):
        trace_kernels(c4(), e, direction="sideways")


def test_trace_even_base_all_stages():
    d = Digraph.cycle(4)
    e = EarDecomposition((0, 1, 2, 3, 0), [])
    tr = trace_kernels(d, e)
    assert tr["dichotomy"] == "all_stages_have_kernels"
    assert tr["base_parity"] == "even"
    assert tr["flip_stage"] is None and tr["flips"] == []


def test_trace_odd_base_all_stages_lack():
    d = Digraph.cycle(5)
    e = EarDecomposition((0, 1, 2, 3, 4, 0), [])
    tr = trace_kernels(d, e)
    assert tr["dichotomy"] == "all_stages_lack_kernels"
    assert tr["base_parity"] == "odd"


def test_trace_gain_flip():
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (6, 2)]
    d = Digraph(range(7), arcs)
    e = EarDecomposition((0, 1, 2, 3, 4, 0), [(0, 5, 6, 2)])
    tr = trace_kernels(d, e)
    assert tr["dichotomy"] == "flip_at_stage_0"
    assert tr["flips"] == [0]
    assert tr["pattern_check"]["holds"]
    assert tr["stages"][1]["kernel"]["members"] == [2, 4, 5]


def test_trace_loss_flip():
    arcs = ([(i, (i + 1) % 4) for i in range(4)]
            + [(0, 4), (4, 1), (1, 5), (5, 4)])
    d = Digraph(range(6), arcs)
    e = EarDecomposition((0, 1, 2, 3, 0),
                         [(0, 4, 1), (1, 5, 4)])
    tr = trace_kernels(d, e)
    assert not kernel_oracle(d).value
    assert tr["dichotomy"] == "flip_at_stage_1"
    assert tr["pattern_check"]["holds"]
    assert "push-forward" in tr["pattern_check"]["required"]


def test_trace_transitions_label_every_kernel():
    arcs = [(i, (i + 1) % 4) for i in range(4)] + [(0, 4), (4, 5), (5, 6), (6, 2)]
    d = Digraph(range(7), arcs)
    e = EarDecomposition((0, 1, 2, 3, 0), [(0, 4, 5, 6, 2)])
    forward = trace_kernels(d, e, direction="forward")
    assert any("extend" in t for t in forward["stages"][1]["transitions"])
    backward = trace_kernels(d, e, direction="backward")
    assert any("restrict" in t for t in backward["stages"][1]["transitions"])


def test_trace_rejects_cycle_ears():
    arcs = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]
    d = Digraph(range(5), arcs)
    e = EarDecomposition((0, 1, 2, 0), [(1, 3, 4, 1)])
    with pytest.raises(InvalidInputError):
        trace_kernels(d, e)


def test_trace_rejects_short_ears():
    d = Digraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 2)])
    e = EarDecomposition((0, 1, 2, 0), [(0, 2)])
    with pytest.raises(InvalidInputError):
        trace_kernels(d, e)


def ear_order(e):
    """The vertices in the order the parts add them, and each stage's
    count of them."""
    order = list(e.base.vertices[:-1])
    sizes = [len(order)]
    for ear in e.ears:
        order += ear.vertices[1:-1]
        sizes.append(len(order))
    return order, sizes


def oracle_stage_kernels(d, e):
    """Reference for kernels._stage_kernels: the oracle on every stage."""
    order, sizes = ear_order(e)
    verts, out, _ = _index_maps(d, order)
    return verts, out, sizes, [
        kernel_oracle(h, enumerate_all=True).details["all_kernels"]
        for h in map(e.stage, range(e.stage_count))]


def one_ear_instances():
    """Every path-ears LE_2 decomposition of C_2..C_5 plus one ear of
    length 2..5."""
    for n in range(2, 6):
        base = tuple(range(n)) + (0,)
        for x0, xr in product(range(n), repeat=2):
            if x0 == xr:
                continue
            for r in range(2, 6):
                ear = (x0, *range(n, n + r - 1), xr)
                d = glue(Digraph.cycle(n), ear)
                yield d, EarDecomposition(base, [ear])


def seeded_instances():
    for seed in range(150):
        d, e = generate_random_le(base_length=2 + seed % 4,
                                  ear_count=seed % 7, min_ear_length=2,
                                  max_ear_length=2 + seed % 3, seed=seed)
        if d.n <= 16:
            yield d, e


def test_trace_matches_the_per_stage_oracle():
    cases = [*one_ear_instances(), *seeded_instances()]
    assert len(cases) > 250
    for d, e in cases:
        got = kernels._stage_kernels(d, e)
        assert got == oracle_stage_kernels(d, e), e
        for direction in ("forward", "backward"):
            doc = trace_kernels(d, e, direction)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_stage_kernels", oracle_stage_kernels)
                assert doc == trace_kernels(d, e, direction), e


def pattern_name(x0_in, xr_in, length):
    ends = {(True, True): "both_in", (True, False): "x0_in_xr_out",
            (False, True): "x0_out_xr_in", (False, False): "both_out"}
    return f"{ends[x0_in, xr_in]}_{'odd' if length % 2 else 'even'}"


def test_trace_transitions_match_the_rules_on_the_oracle_kernels():
    # each stage's labels, derived from the oracle's kernels of its source
    # stage: stage j - 1 going forward across ear j - 1, stage j going back
    labels = {"forward": ("extend", extend_case, "case"),
              "backward": ("restrict", restrict_condition, "condition")}
    for d, e in [*one_ear_instances(), *seeded_instances()]:
        per_stage = [kernel_oracle(e.stage(j), enumerate_all=True)
                     .details["all_kernels"] for j in range(e.stage_count)]
        for direction, (op, rule, rule_name) in labels.items():
            stages = trace_kernels(d, e, direction)["stages"]
            assert stages[0]["transitions"] == []
            for j, ear in enumerate(e.ears, start=1):
                source = per_stage[j - 1 if direction == "forward" else j]
                expected = set()
                for k in source:
                    ends = (ear[0] in k, ear[-1] in k, len(ear) - 1)
                    found = rule(*ends)
                    expected.add(f"{op} obstruction {pattern_name(*ends)}"
                                 if found is None else f"{op} {rule_name} {found}")
                assert stages[j]["transitions"] == sorted(expected), (e, j)


def _forced_absorbing_sets(verts: list[int], sym: list[int],
                           rows: list[int]) -> list[tuple[int, ...]]:
    """The kernels oracles._absorbing_sets finds for these out-rows, as
    sorted member tuples in lexicographic order, branching only where
    there is a choice.

    A vertex is forced when its out-row is one vertex w: it is in every
    kernel iff w is not (the second lemma in trace_kernels).  Every other
    vertex branches, and so does the first vertex met on each closed chain
    of forced vertices.
    Following successors, each forced vertex reaches one branch vertex, its
    root, and is in the set iff the root is, at even distance, or is not,
    at odd.  So each choice of a branch vertex, in or out, decides a whole
    block of vertices.  The scan enumerates the choices whose blocks are
    independent, pairwise and inside, and checks that each branch vertex
    left out is absorbed as soon as the choices deciding its row are made;
    a forced vertex left out is absorbed by its successor, which is in.
    """
    n = len(verts)
    succ = [row.bit_length() - 1 if row and not row & (row - 1) else -1
            for row in rows]
    order: list[int] = []  # forced vertices, each after its successor
    placed = [s < 0 for s in succ]
    for v in range(n):
        path = []
        while not placed[v]:
            placed[v] = True
            path.append(v)
            v = succ[v]
        if v in path:  # a closed chain: its first vertex branches instead
            succ[v] = -1
            path.remove(v)
        order.extend(reversed(path))
    # blocks[r][c] holds what root r's choice c (1 in, 0 out) puts in the
    # set, and reach[r][c] the vertices adjacent to them
    root = list(range(n))
    when = [1] * n
    blocks = [[0, 1 << i] for i in range(n)]
    reach = [[0, sym[i]] for i in range(n)]
    for v in order:
        r = root[v] = root[succ[v]]
        c = when[v] = 1 - when[succ[v]]
        blocks[r][c] |= 1 << v
        reach[r][c] |= sym[v]
    branch = [i for i in range(n) if succ[i] < 0]
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
        last = k
        while rows[b] & ~prefix[last]:
            last += 1
        checks[last].append((1 << b, rows[b]))
    found: list[tuple[int, ...]] = []
    stack = [(0, 0, 0)]
    while stack:
        idx, mask, blocked = stack.pop()
        if idx == len(branch):
            found.append(tuple(sorted(v for i, v in enumerate(verts)
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


def rescanned_stage_kernels(d: Digraph, e: EarDecomposition):
    """Reference for kernels._stage_kernels: every stage scanned whole by
    _forced_absorbing_sets, with d's out-rows cut to its vertices."""
    verts, out, sym = _index_maps(d, list(e.order))
    lists = []
    for n in e.ends:  # a set never holds a vertex past n, so sym needs no cut
        cut = (1 << n) - 1
        lists.append(_forced_absorbing_sets(verts[:n], sym,
                                            [row & cut for row in out[:n]]))
    return verts, out, list(e.ends), lists


def stage_scans(e):
    """Each stage's own out-rows, on its vertices in sorted order and in
    the order the parts add them."""
    order, sizes = ear_order(e)
    for h, n in zip(map(e.stage, range(e.stage_count)), sizes):
        yield _index_maps(h, sorted(h.vertices))
        yield _index_maps(h, order[:n])


def larger_stages():
    """One sampled stage of each of 21, 23, 25, 27 and 30 or more
    vertices, with its own out-rows."""
    for seed, size in enumerate((21, 23, 25, 27, 30)):
        _, e = generate_random_le(base_length=3, ear_count=40,
                                  min_ear_length=2, seed=seed)
        h = next(h for h in map(e.stage, range(e.stage_count)) if h.n >= size)
        yield _index_maps(h, sorted(h.vertices))


def test_forced_scan_matches_the_oracle_scan():
    cases = [e for _, e in [*one_ear_instances(), *seeded_instances()]]
    scans = [scan for e in cases for scan in stage_scans(e)]
    assert len(scans) > 1000
    for verts, rows, sym in [*scans, *larger_stages()]:
        expected = sorted(tuple(sorted(s))
                          for s in _absorbing_sets(verts, sym, rows)[0])
        assert _forced_absorbing_sets(verts, sym, rows) == expected, verts


def few_branch_instances():
    """Seeded path-ears LE_2 instances of 30-60 ears whose ears start at
    20 vertices or fewer, so their traces stay within the branch cap.  A
    start is often an earlier ear's interior vertex, whose in-tree the
    forward pass then re-roots."""
    for seed in range(6):
        rng = random.Random(seed)
        n = 2 + seed % 3
        base, parts, starts = (*range(n), 0), [], []
        for _ in range(30 + 6 * seed):
            if len(starts) < 20 and rng.random() < 0.4:
                starts.append(rng.randrange(n))
            x0 = rng.choice(starts or [0])
            xr = rng.choice([v for v in range(n) if v != x0])
            length = rng.randint(2, 4)
            parts.append((x0, *range(n, n + length - 1), xr))
            n += length - 1
        yield glue_all(Digraph.cycle(len(base) - 1), parts), \
            EarDecomposition(base, parts)


def glue_all(h, parts):
    for p in parts:
        h = glue(h, p)
    return h


def test_forward_pass_matches_per_stage_rescans():
    cases = [*one_ear_instances(), *seeded_instances(),
             *few_branch_instances()]
    assert max(len(e.ears) for _, e in cases) == 60
    for d, e in cases:
        assert kernels._stage_kernels(d, e) == rescanned_stage_kernels(d, e), e
        for direction in ("forward", "backward"):
            doc = trace_kernels(d, e, direction)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_stage_kernels", rescanned_stage_kernels)
                assert doc == trace_kernels(d, e, direction), e


def test_trace_never_runs_the_oracle_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle scan called")

    monkeypatch.setattr(oracles, "_absorbing_sets", refuse)
    d, e = next(one_ear_instances())
    assert trace_kernels(d, e)["stages"][1]["has_kernel"]
    cycle = EarDecomposition((0, 1, 2, 3, 0), [])
    assert trace_kernels(Digraph.cycle(4), cycle)["stages"][0]["has_kernel"]


def test_trace_rechecks_each_reported_kernel(monkeypatch):
    d, e = next(one_ear_instances())
    verts, out, sizes, _ = kernels._stage_kernels(d, e)
    # (0, 1) is no independent set; (1, 2) meets the rows of stage 0 as a
    # kernel would, but 2 lies outside it
    for bad in [(0, 1)], [(1, 2)]:
        monkeypatch.setattr(kernels, "_stage_kernels",
                            lambda d, e: (verts, out, sizes, [bad, [(0, 2)]]))
        with pytest.raises(VerificationError, match="not a kernel of stage 0"):
            trace_kernels(d, e)


def fan(k):
    """C3 plus k length-2 ears from 0 to 1, with its decomposition: one
    branch vertex, 0."""
    parts = [(0, v, 1) for v in range(3, 3 + k)]
    d = Digraph(range(3 + k),
                [(0, 1), (1, 2), (2, 0), *(a for p in parts for a in arcs(p))])
    return d, EarDecomposition((0, 1, 2, 0), parts)


def test_trace_indexes_the_input_once(monkeypatch):
    d, e = fan(200)
    tracemalloc.start()
    try:
        doc = trace_kernels(d, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(doc["stages"]) == 201
    assert peak < 4 * 2**20, peak
    assert "_out" not in vars(d)  # the caps read out-degrees off the arcs
    built, indexed = [], []
    init, index_maps = Digraph.__init__, kernels._index_maps

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("digraph kernel test called")

    monkeypatch.setattr(Digraph, "__init__", counted_init)
    monkeypatch.setattr(kernels, "_index_maps",
                        lambda *args: indexed.append(args) or index_maps(*args))
    monkeypatch.setattr(kernels, "_kernel_violation", refuse)
    assert trace_kernels(d, e) == doc
    assert (len(built), len(indexed)) == (0, 1)


def test_trace_json_shape():
    d = Digraph.cycle(4)
    e = EarDecomposition((0, 1, 2, 3, 0), [])
    doc = trace_kernels(d, e)
    assert doc["dichotomy"] == "all_stages_have_kernels"
    assert doc["stages"][0]["has_kernel"] is True
    assert doc["base_parity"] == "even"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=5),
       st.data())
def test_extension_soundness_on_cycles(n, r, data):
    h = Digraph.cycle(n)
    report = kernel_oracle(h, enumerate_all=True)
    kernels = report.details["all_kernels"]
    if not kernels:
        return
    x0 = data.draw(st.integers(min_value=0, max_value=n - 1))
    xr = data.draw(st.integers(min_value=0, max_value=n - 1))
    if x0 == xr:
        return
    ear = (x0, *range(n, n + r - 1), xr)
    d, e = glue(h, ear), EarDecomposition((*range(n), 0), [ear])
    for members in kernels:
        result = extend_kernel(d, e, members)
        if isinstance(result, CertifiedSet):
            assert is_kernel(d, set(result.members))
        else:
            assert result.pattern in ("both_in_odd", "x0_in_xr_out_even")


def reference_violation(h, s):
    """The first violation of s in h, in sorted order, as the refusals name
    it: read off h's arc set, and each witness checked by set_predicates."""
    for v in sorted(h.vertices):
        heads = sorted(w for u, w in h.arcs if u == v and w in s)
        if v in s and heads:
            assert not set_predicates(h, {v, heads[0]}).independent
            return f"member {v} has out-neighbour {heads[0]} in the set"
        if v not in s and not heads:
            near = s | {v}  # s absorbs v in h iff in h on s and v
            h_near = Digraph(near, [a for a in h.arcs if set(a) <= near])
            assert not set_predicates(h_near, s).absorbent
            return f"non-member {v} has no out-neighbour in the set"
    raise AssertionError("no violation")


def reference_propagation(op, d, e, members):
    """extend_kernel or restrict_kernel the earlier way: the stage built by
    e.stage, the glued digraph by union, both tested by set_predicates."""
    require_decomposition(d, e, 2, "kernel propagation", path_ears_only=True)
    if not e.ears:
        raise InvalidInputError("decomposition has no ears to propagate across")
    stage, p = e.stage(len(e.ears) - 1), e.ears[-1].vertices
    r = len(p) - 1
    glued = stage.union(p, arcs(p))
    assert glued == d
    members = set(members)
    x0_in, xr_in = p[0] in members, p[-1] in members
    if op is extend_kernel:
        if not set_predicates(stage, members).is_kernel:
            raise PropertyFailedError(
                f"{sorted(members)} is not a kernel of the stage digraph; "
                f"{reference_violation(stage, members)}")
        if extend_case(x0_in, xr_in, r) is None:
            return KernelObstruction("extend", x0_in, xr_in, r)
        out = members | {p[t] for t in _stride_back(r, xr_in, 2)}
        assert set_predicates(glued, out).is_kernel
    else:
        if not set_predicates(glued, members).is_kernel:
            raise PropertyFailedError(
                f"{sorted(members)} is not a kernel of the glued digraph; "
                f"{reference_violation(glued, members)}")
        if restrict_condition(x0_in, xr_in, r) is None:
            return KernelObstruction("restrict", x0_in, xr_in, r)
        out = members & stage.vertices
        assert set_predicates(stage, out).is_kernel
    return CertifiedSet(tuple(out), "kernel")


def reference_homomorphism(d, e, phi):
    """extend_homomorphism the earlier way: phi checked on e.stage by
    verify_homomorphism, the result on the glued digraph.  A failure
    gives the first stage whose arcs phi does not map to arcs, if any."""
    stage, p = e.stage(len(e.ears) - 1), e.ears[-1].vertices
    try:
        verify_homomorphism(stage, phi)
    except VerificationError:
        for j in range(len(e.ears)):
            part = e.stage(j)
            if any(not phi.target.has_arc(phi.assignment.get(u, -1),
                                          phi.assignment.get(v, -1))
                   for u, v in part.arcs):
                return PropertyFailedError, j
        return PropertyFailedError, None
    img = dict(phi.assignment)
    oriented._map_ear(phi.target, img, p)
    verify_homomorphism(stage.union(p, arcs(p)),
                        VertexMapping(img, phi.target, phi.kind))
    return "ok", img


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except (InvalidInputError, PropertyFailedError) as exc:
        return type(exc), str(exc)


def small_le_instances():
    """Seeded LE_2 (path ears) and LE_3 (cycle ears too) instances of at
    most 14 vertices."""
    for seed in range(120):
        le3 = seed % 2
        d, e = generate_random_le(base_length=2 + le3 + seed % 4,
                                  ear_count=1 + seed % 5,
                                  min_ear_length=2 + le3,
                                  max_ear_length=3 + le3 + seed % 2,
                                  cycle_ear_probability=0.3 * le3, seed=seed)
        if d.n <= 14:
            yield d, e


def test_ear_extensions_match_the_stage_reference():
    rng = random.Random(20)
    cases = [*one_ear_instances(), *small_le_instances()]
    assert len(cases) > 200
    compared = homs = 0
    for d, e in cases:
        stage = e.stage(len(e.ears) - 1)
        interior = e.ears[-1].vertices[1:-1]
        sets = [*kernel_oracle(stage, enumerate_all=True).details["all_kernels"],
                *kernel_oracle(d, enumerate_all=True).details["all_kernels"]]
        for _ in range(3):  # random sets: in the interior, in the stage
            sets.append({rng.choice(interior),
                         *rng.sample(sorted(d.vertices), rng.randint(0, 3))})
            sets.append(rng.sample(sorted(stage.vertices), rng.randint(0, 2)))
        sets.append([0, max(d.vertices) + 1])  # an id outside d
        for members in sets:
            for op in (extend_kernel, restrict_kernel):
                expected = outcome(reference_propagation, op, d, e, members)
                assert outcome(op, d, e, members) == expected, (e, op, members)
                compared += 1
        if not e.certifies(3) or len(e.base.vertices) < 4:
            continue  # no oriented colouring, or a digon base
        # a sound phi of the stage, then phis with one image moved, one
        # vertex left out, an interior vertex added or an image off the target
        le3 = oriented.oriented_coloring_le3(d, e).assignment
        sound = {v: le3[v] for v in stage.vertices}
        vs = sorted(sound)
        moved = [{**sound, v: (sound[v] + rng.randint(1, 5)) % 6}
                 for v in rng.sample(vs, min(3, len(vs)))]
        for assignment in [sound, *moved,
                           {v: sound[v] for v in vs[1:]},
                           {**sound, interior[0]: 0}, {**sound, vs[0]: 6}]:
            phi = VertexMapping(assignment, oriented.tournament_T(),
                                "homomorphism")
            got = outcome(oriented.extend_homomorphism, d, e, phi)
            kind, value = reference_homomorphism(d, e, phi)
            if kind == "ok":
                assert got[0] == "ok" and got[1].assignment == value, e
            else:
                assert got[0] is kind, (e, assignment, got)
                if got[1].startswith("mapping fails on stage"):
                    assert got[1] == f"mapping fails on stage {value}", e
            homs += 1
    assert compared > 2500 and homs > 1000, (compared, homs)
