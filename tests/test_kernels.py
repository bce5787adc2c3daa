import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from earlab import kernels, oracles
from earlab.constructions import CertifiedSet
from earlab.digraph import Digraph, is_kernel
from earlab.ears import Ear, EarDecomposition, generate_random_le
from earlab.errors import InvalidInputError, VerificationError
from earlab.kernels import (KernelObstruction, _forced_absorbing_sets,
                            extend_case, extend_kernel, restrict_condition,
                            restrict_kernel, trace_kernels)
from earlab.oracles import _absorbing_sets, _index_maps, kernel_oracle


def c4():
    return Digraph.cycle(4)


def glue(h, ear):
    return h.union(ear.vertices, ear.arcs)


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
    assert extend_case(True, True, 4)[0] == 1
    assert extend_case(True, True, 3) is None
    assert extend_case(True, False, 3)[0] == 2
    assert extend_case(True, False, 4) is None
    assert extend_case(False, True, 4)[0] == 3
    assert extend_case(False, True, 3)[0] == 3
    assert extend_case(False, False, 4)[0] == 4
    assert extend_case(False, False, 3)[0] == 4
    assert KernelObstruction("extend", True, True, 3).pattern == "both_in_odd"
    assert KernelObstruction("extend", True, False, 4).pattern == "x0_in_xr_out_even"


def test_rules_are_the_lemma_on_one_kernel():
    # each rule against the oracle's kernels of the stage and of the glued
    # stage, over every one-ear instance
    for d, e in one_ear_instances():
        stage, (ear,) = e.stage(0), e.ears
        interior = set(ear.internal)
        stage_kernels = kernel_oracle(stage, enumerate_all=True).details["all_kernels"]
        glued_kernels = kernel_oracle(d, enumerate_all=True).details["all_kernels"]
        for n in stage_kernels:
            glued = [k for k in glued_kernels if set(k) - interior == set(n)]
            plan = extend_case(ear.x0 in n, ear.xr in n, ear.length)
            assert (plan is None) == (not glued), (e, n)
            if plan is not None:
                _, start, stop = plan
                added = {ear.vertices[t] for t in range(start, stop + 1, 2)}
                assert glued == [tuple(sorted({*n, *added}))], (e, n)
        for k in glued_kernels:
            restricted = tuple(sorted(set(k) - interior))
            condition = restrict_condition(ear.x0 in k, ear.xr in k, ear.length)
            # an obstruction pattern is x0 out and p1 in: then the
            # restriction is a stage kernel iff an old out-neighbour of x0
            # is in it
            absorbed = not stage.out_neighbors(ear.x0).isdisjoint(k)
            assert ((restricted in stage_kernels)
                    == (condition is not None or absorbed)), (e, k)


def test_extend_case_one_even_interior():
    # both endpoints kept, even ear: every second interior vertex joins
    ear = Ear((0, 4, 5, 6, 2))
    result = extend_kernel(c4(), ear, (0, 2))
    assert isinstance(result, CertifiedSet)
    assert result.members == (0, 2, 5)
    assert is_kernel(glue(c4(), ear), set(result.members))


def test_extend_length_two_adds_nothing():
    ear = Ear((0, 4, 2))
    result = extend_kernel(c4(), ear, (0, 2))
    assert result.members == (0, 2)
    assert is_kernel(glue(c4(), ear), {0, 2})


def test_extend_case_two_odd():
    ear = Ear((0, 4, 5, 3))
    result = extend_kernel(c4(), ear, (0, 2))
    assert result.members == (0, 2, 5)
    assert is_kernel(glue(c4(), ear), {0, 2, 5})


def test_extend_case_three_both_parities():
    even_ear = Ear((1, 4, 5, 6, 0))
    result = extend_kernel(c4(), even_ear, (0, 2))
    assert result.members == (0, 2, 5)
    odd_ear = Ear((1, 4, 5, 0))
    result = extend_kernel(c4(), odd_ear, (0, 2))
    assert result.members == (0, 2, 4)
    assert is_kernel(glue(c4(), odd_ear), {0, 2, 4})


def test_extend_case_four_both_parities():
    even_ear = Ear((1, 4, 5, 6, 3))
    result = extend_kernel(c4(), even_ear, (0, 2))
    assert result.members == (0, 2, 4, 6)
    odd_ear = Ear((1, 4, 5, 3))
    result = extend_kernel(c4(), odd_ear, (0, 2))
    assert result.members == (0, 2, 5)


def test_extend_obstruction_reported():
    ear = Ear((0, 4, 5, 2))
    result = extend_kernel(c4(), ear, (0, 2))
    assert isinstance(result, KernelObstruction)
    assert result.operation == "extend"
    assert result.pattern == "both_in_odd"
    doc = result.to_json()
    assert doc["pattern"] == "both_in_odd" and doc["length"] == 3


def test_restrict_recovers_from_extend_results():
    ear = Ear((0, 4, 5, 6, 2))
    extended = extend_kernel(c4(), ear, (0, 2))
    back = restrict_kernel(c4(), ear, extended.members)
    assert isinstance(back, CertifiedSet)
    assert back.members == (0, 2)


def test_restrict_obstruction_reported():
    # kernel of the glued digraph missing x0, containing xr, odd ear
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (6, 2)]
    h = Digraph.cycle(5)
    ear = Ear((0, 5, 6, 2))
    glued = Digraph(range(7), arcs)
    assert is_kernel(glued, {2, 4, 5})
    result = restrict_kernel(h, ear, (2, 4, 5))
    assert isinstance(result, KernelObstruction)
    assert result.operation == "restrict"
    assert result.pattern == "x0_out_xr_in_odd"


def test_cycle_ears_are_rejected():
    ear = Ear((0, 4, 5, 0))
    with pytest.raises(InvalidInputError, match="endpoints must differ"):
        extend_kernel(c4(), ear, (0, 2))
    with pytest.raises(InvalidInputError, match="endpoints must differ"):
        restrict_kernel(c4(), ear, (0, 2))


def test_extend_checks_input_is_kernel():
    with pytest.raises(VerificationError):
        extend_kernel(c4(), Ear((0, 4, 2)), (0, 1))


def test_extend_rejects_stale_interior():
    with pytest.raises(InvalidInputError):
        extend_kernel(c4(), Ear((0, 3, 2)), (0, 2))


def test_extend_rejects_separable_host():
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    host = Digraph(range(5), arcs)
    with pytest.raises(InvalidInputError):
        extend_kernel(host, Ear((1, 5, 3)), (2, 4))


@pytest.mark.parametrize("op", [extend_kernel, restrict_kernel])
@pytest.mark.parametrize("stage, ear, message", [
    (c4(), Ear((0, 2)), "ear length >= 2"),
    (c4(), Ear((0, 4, 7)), "endpoints must lie in the stage"),
    # the arc (0, 1) is already in the stage; its internal end 1 is caught
    (c4(), Ear((0, 1, 2)), "internal vertices must be new"),
    (Digraph(range(3), [(0, 1), (1, 2)]), Ear((2, 3, 0)),
     "stage digraph must be strong"),
], ids=["length-1", "endpoint-outside", "arc-in-stage", "not-strong"])
def test_propagation_rejects_bad_stage_or_ear(op, stage, ear, message):
    with pytest.raises(InvalidInputError, match=message):
        op(stage, ear, (0, 2))


def test_trace_rejects_unknown_direction():
    e = EarDecomposition(Ear((0, 1, 2, 3, 0)), [])
    with pytest.raises(InvalidInputError, match="forward or backward"):
        trace_kernels(c4(), e, direction="sideways")


def test_trace_even_base_all_stages():
    d = Digraph.cycle(4)
    e = EarDecomposition(Ear((0, 1, 2, 3, 0)), [])
    tr = trace_kernels(d, e)
    assert tr.dichotomy == "all_stages_have_kernels"
    assert tr.base_parity == "even"
    assert tr.flip_stage is None and tr.flips == []


def test_trace_odd_base_all_stages_lack():
    d = Digraph.cycle(5)
    e = EarDecomposition(Ear((0, 1, 2, 3, 4, 0)), [])
    tr = trace_kernels(d, e)
    assert tr.dichotomy == "all_stages_lack_kernels"
    assert tr.base_parity == "odd"


def test_trace_gain_flip():
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (6, 2)]
    d = Digraph(range(7), arcs)
    e = EarDecomposition(Ear((0, 1, 2, 3, 4, 0)), [Ear((0, 5, 6, 2))])
    tr = trace_kernels(d, e)
    assert tr.dichotomy == "flip_at_stage_0"
    assert tr.flips == [0]
    assert tr.pattern_check["holds"]
    assert tr.entries[1].kernel.members == (2, 4, 5)


def test_trace_loss_flip():
    arcs = ([(i, (i + 1) % 4) for i in range(4)]
            + [(0, 4), (4, 1), (1, 5), (5, 4)])
    d = Digraph(range(6), arcs)
    e = EarDecomposition(Ear((0, 1, 2, 3, 0)),
                         [Ear((0, 4, 1)), Ear((1, 5, 4))])
    tr = trace_kernels(d, e)
    assert not kernel_oracle(d).value
    assert tr.dichotomy == "flip_at_stage_1"
    assert tr.pattern_check["holds"]
    assert "push-forward" in tr.pattern_check["required"]


def test_trace_transitions_label_every_kernel():
    arcs = [(i, (i + 1) % 4) for i in range(4)] + [(0, 4), (4, 5), (5, 6), (6, 2)]
    d = Digraph(range(7), arcs)
    e = EarDecomposition(Ear((0, 1, 2, 3, 0)), [Ear((0, 4, 5, 6, 2))])
    forward = trace_kernels(d, e, direction="forward")
    assert any("extend" in t for t in forward.entries[1].transitions)
    backward = trace_kernels(d, e, direction="backward")
    assert any("restrict" in t for t in backward.entries[1].transitions)


def test_trace_rejects_cycle_ears():
    arcs = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]
    d = Digraph(range(5), arcs)
    e = EarDecomposition(Ear((0, 1, 2, 0)), [Ear((1, 3, 4, 1))])
    with pytest.raises(InvalidInputError):
        trace_kernels(d, e)


def test_trace_rejects_short_ears():
    d = Digraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 2)])
    e = EarDecomposition(Ear((0, 1, 2, 0)), [Ear((0, 2))])
    with pytest.raises(InvalidInputError):
        trace_kernels(d, e)


def ear_order(e):
    """The vertices in the order the parts add them, and each stage's
    count of them."""
    order = list(e.base.vertices[:-1])
    sizes = [len(order)]
    for ear in e.ears:
        order += ear.internal
        sizes.append(len(order))
    return order, sizes


def oracle_stage_kernels(d, e):
    """Reference for kernels._stage_kernels: the oracle on every stage."""
    order, sizes = ear_order(e)
    verts, out, _ = _index_maps(d, order)
    return verts, out, sizes, [
        kernel_oracle(h, enumerate_all=True).details["all_kernels"]
        for h in e.stages()]


def one_ear_instances():
    """Every path-ears LE_2 decomposition of C_2..C_5 plus one ear of
    length 2..5."""
    for n in range(2, 6):
        base = Ear(tuple(range(n)) + (0,))
        for x0, xr in product(range(n), repeat=2):
            if x0 == xr:
                continue
            for r in range(2, 6):
                ear = Ear((x0, *range(n, n + r - 1), xr))
                d = Digraph.cycle(n).union(ear.vertices, ear.arcs)
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
            doc = trace_kernels(d, e, direction).to_json()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_stage_kernels", oracle_stage_kernels)
                assert doc == trace_kernels(d, e, direction).to_json(), e


def stage_scans(e):
    """Each stage's own out-rows, on its vertices in sorted order and in
    the order the parts add them."""
    order, sizes = ear_order(e)
    for h, n in zip(e.stages(), sizes):
        yield _index_maps(h, sorted(h.vertices))
        yield _index_maps(h, order[:n])


def larger_stages():
    """One sampled stage of each of 21, 23, 25, 27 and 30 or more
    vertices, with its own out-rows."""
    for seed, size in enumerate((21, 23, 25, 27, 30)):
        _, e = generate_random_le(base_length=3, ear_count=40,
                                  min_ear_length=2, seed=seed)
        h = next(h for h in e.stages() if h.n >= size)
        yield _index_maps(h, sorted(h.vertices))


def test_forced_scan_matches_the_oracle_scan():
    cases = [e for _, e in [*one_ear_instances(), *seeded_instances()]]
    scans = [scan for e in cases for scan in stage_scans(e)]
    assert len(scans) > 1000
    for verts, rows, sym in [*scans, *larger_stages()]:
        expected = sorted(tuple(sorted(s))
                          for s in _absorbing_sets(verts, sym, rows)[0])
        assert _forced_absorbing_sets(verts, sym, rows) == expected, verts


def test_trace_never_runs_the_oracle_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle scan called")

    monkeypatch.setattr(oracles, "_absorbing_sets", refuse)
    d, e = next(one_ear_instances())
    assert trace_kernels(d, e).entries[1].has_kernel
    cycle = EarDecomposition(Ear((0, 1, 2, 3, 0)), [])
    assert trace_kernels(Digraph.cycle(4), cycle).entries[0].has_kernel


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
    parts = [Ear((0, v, 1)) for v in range(3, 3 + k)]
    d = Digraph(range(3 + k),
                [(0, 1), (1, 2), (2, 0), *(a for p in parts for a in p.arcs)])
    return d, EarDecomposition(Ear((0, 1, 2, 0)), parts)


def test_trace_indexes_the_input_once(monkeypatch):
    d, e = fan(200)
    tracemalloc.start()
    try:
        doc = trace_kernels(d, e).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(doc["stages"]) == 201
    assert peak < 4 * 2**20, peak
    built, indexed = [], []
    init, index_maps = Digraph.__init__, kernels._index_maps

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("set_predicates called")

    monkeypatch.setattr(Digraph, "__init__", counted_init)
    monkeypatch.setattr(kernels, "_index_maps",
                        lambda *args: indexed.append(args) or index_maps(*args))
    monkeypatch.setattr(kernels, "set_predicates", refuse)
    assert trace_kernels(d, e).to_json() == doc
    assert (len(built), len(indexed)) == (0, 1)


def test_trace_json_shape():
    d = Digraph.cycle(4)
    e = EarDecomposition(Ear((0, 1, 2, 3, 0)), [])
    doc = trace_kernels(d, e).to_json()
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
    ear = Ear((x0, *range(n, n + r - 1), xr))
    for members in kernels:
        result = extend_kernel(h, ear, members)
        if isinstance(result, CertifiedSet):
            assert is_kernel(glue(h, ear), set(result.members))
        else:
            assert result.pattern in ("both_in_odd", "x0_in_xr_out_even")
