import inspect
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import earlab.ears as ears_mod
from earlab.digraph import Digraph, is_asymmetrical, is_nonseparable, is_strong
from earlab.ears import (EarDecomposition, _self_checked,
                         _shortest_cycle_through, _spend,
                         find_ear_decomposition, find_le_decomposition,
                         generate_random_le, validate_decomposition)
from earlab.errors import (BudgetExceededError, InvalidInputError,
                           PropertyFailedError)


def k3_symmetric():
    return Digraph(range(3), [(u, v) for u in range(3) for v in range(3) if u != v])


def arcs_of(p):
    return tuple(zip(p, p[1:]))


def test_ear_fields():
    (ear,) = EarDecomposition((0, 1, 0), [(0, 5, 6, 1)]).ears
    assert ear == (0, 5, 6, 1) and isinstance(ear, tuple)
    p = ear.vertices
    assert p is ear
    assert p[0] == 0 and p[-1] == 1
    assert len(p) - 1 == 3 and p[0] != p[-1]
    assert p[1:-1] == (5, 6)
    assert arcs_of(p) == ((0, 5), (5, 6), (6, 1))


def test_cycle_ear():
    (ear,) = EarDecomposition((2, 3, 2), [(2, 7, 8, 2)]).ears
    assert ear == (2, 7, 8, 2) and isinstance(ear, tuple)
    p = ear.vertices
    assert p is ear
    assert p[0] == p[-1] and len(p) - 1 == 3
    assert p[1:-1] == (7, 8)


def test_ear_needs_two_vertices():
    with pytest.raises(InvalidInputError):
        EarDecomposition((3,))


@pytest.mark.parametrize("make, error, message", [
    (lambda: EarDecomposition((0, 1, 0), [(3,)]), InvalidInputError,
     "at least one arc"),
    (lambda: EarDecomposition((0, 1, 0), [(3, 3)]), InvalidInputError,
     "length-1 cycle"),
    (lambda: EarDecomposition((0, 1, 0), [(0, 4, 5, 4, 1)]),
     InvalidInputError, "repeated internal"),
    (lambda: EarDecomposition((0, 1, 0), [(0, 4, 0, 1)]), InvalidInputError,
     "endpoint reused"),
    (lambda: EarDecomposition((0, 1, 2)), InvalidInputError,
     "base must be a cycle"),
    (lambda: EarDecomposition.from_json({"ears": []}), InvalidInputError,
     "needs a 'base' field"),
    (lambda: EarDecomposition.from_json({"base": [0]}), InvalidInputError,
     "at least 2 vertices"),
    (lambda: EarDecomposition.from_json({"base": [0, 1, 1], "ears": 5}),
     InvalidInputError, r"repeated internal vertex in ear \(0, 1, 1, 0\)"),
    (lambda: EarDecomposition((0, 1, 0)).stage(1), IndexError,
     "out of range"),
    (lambda: find_le_decomposition(Digraph.cycle(3), i=0), InvalidInputError,
     "must be >= 1"),
    (lambda: generate_random_le(min_ear_length=0), InvalidInputError,
     "must be >= 1"),
    (lambda: find_ear_decomposition(Digraph([0], [])), PropertyFailedError,
     "single vertex"),
    (lambda: find_le_decomposition(Digraph([0], [])), PropertyFailedError,
     "single vertex"),
    (lambda: find_ear_decomposition(Digraph([], [])), PropertyFailedError,
     "no vertices"),
    (lambda: find_le_decomposition(Digraph([], [])), PropertyFailedError,
     "no vertices"),
], ids=["one-vertex-ear", "length-1-cycle", "repeated-interior",
        "endpoint-inside", "base-not-cycle", "json-no-base",
        "json-one-vertex-base", "json-bad-base-beside-bad-ears",
        "stage-out-of-range", "search-level-0", "gen-min-length-0",
        "decompose-one-vertex", "search-one-vertex", "decompose-no-vertex",
        "search-no-vertex"])
def test_input_checks_refuse(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_decomposition_stages_grow():
    d = Digraph(range(5), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1)])
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 4, 1)])
    assert e.stage_count == 2
    assert e.stage(0) == Digraph.cycle(3)
    assert e.stage(1) == d
    assert e.min_ear_length == 3
    assert e.certifies(3) and not e.certifies(4)


def test_bare_cycle_certifies_everything():
    d = Digraph.cycle(4)
    e = EarDecomposition((0, 1, 2, 3, 0), [])
    assert e.min_ear_length is None
    assert e.certifies(10)
    assert validate_decomposition(d, e).ok


def test_validate_catches_missing_arcs():
    d = Digraph.cycle(4)
    e = EarDecomposition((0, 1, 2, 3, 0), [(0, 9, 2)])
    report = validate_decomposition(d, e)
    assert not report.ok and report.violations


def test_validate_catches_stale_internal_vertex():
    # ear interior vertices must be new at their stage
    d = Digraph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (1, 0)])
    e = EarDecomposition((0, 1, 2, 0),
                         [(0, 3, 1), (1, 3, 0)])
    assert not validate_decomposition(d, e).ok


def test_validate_names_the_ear_fit_rule_per_stage():
    d = Digraph.cycle(4).union(range(4, 7), [(0, 4), (4, 1), (1, 5), (5, 6)])
    e = EarDecomposition((0, 1, 2, 3, 0), [(0, 4, 1), (0, 1, 2),
                                                (1, 5, 6)])
    violations = validate_decomposition(d, e).violations
    assert "stage 1: ear internal vertices must be new, [1] already in the " \
        "stage" in violations
    assert "stage 2: ear endpoints must lie in the stage digraph" in violations


def test_validate_path_ears_only_mode():
    d = Digraph(range(5), [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
    e = EarDecomposition((0, 1, 2, 0), [(1, 3, 4, 1)])
    assert validate_decomposition(d, e).ok
    assert not validate_decomposition(d, e, path_ears_only=True).ok


def test_base_is_checked_against_the_host_only():
    # a base on a non-host arc is caught at stage 0 by that arc alone
    d = Digraph.cycle(4)
    report = validate_decomposition(d, EarDecomposition((0, 1, 3, 0)))
    assert [v for v in report.violations if v.startswith("stage 0")] == \
        ["stage 0: base arc (1, 3) not in host"]
    # a digon is a valid base
    d = Digraph(range(3), [(0, 1), (1, 0), (0, 2), (2, 1)])
    assert validate_decomposition(
        d, EarDecomposition((0, 1, 0), [(0, 2, 1)])).ok


@pytest.mark.parametrize("parts, refusal", [
    (((0, 1, 2, 0), (1,)), "an ear needs at least one arc"),
    (((0, 1, 2, 0), (0, 5, 6, 5, 1)),
     "repeated internal vertex in ear (0, 5, 6, 5, 1)"),
    (((0, 1, 2, 0, 1, 2, 0),),
     "repeated internal vertex in ear (0, 1, 2, 0, 1, 2, 0)"),
    (((3,),), "an ear needs at least one arc"),
    (((3, 3),), "length-1 cycle ear would be a loop"),
], ids=["no-arc", "repeated-internal-vertex", "repeated-base-vertex",
        "one-vertex-base", "loop-base"])
def test_constructor_refuses_a_malformed_part(parts, refusal):
    # each part is checked as it enters, so no decomposition holds one
    with pytest.raises(InvalidInputError) as caught:
        EarDecomposition(parts[0], parts[1:])
    assert (type(caught.value), str(caught.value)) == (InvalidInputError, refusal)


def test_json_roundtrip():
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 4, 1)])
    assert e.base == (0, 1, 2, 0)
    doc = e.to_json()
    assert doc == {"base": [0, 1, 2], "ears": [[0, 3, 4, 1]]}
    again = EarDecomposition.from_json(doc)
    assert again.base == e.base and again.ears == e.ears


def test_from_json_accepts_closed_base():
    e = EarDecomposition.from_json({"base": [0, 1, 2, 0], "ears": []})
    assert e.base.vertices == (0, 1, 2, 0)


def test_find_ear_decomposition_on_strong_digraph():
    d = Digraph(range(5), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1)])
    e = find_ear_decomposition(d)
    assert validate_decomposition(d, e).ok


def test_find_ear_decomposition_rejects_non_strong():
    with pytest.raises(PropertyFailedError):
        find_ear_decomposition(Digraph(range(2), [(0, 1)]))


def test_le_search_provably_none_on_symmetric_triangle():
    # every decomposition of the symmetric triangle needs a length-1 ear
    assert find_le_decomposition(k3_symmetric(), i=2) is None


def test_le_search_finds_level_one_on_symmetric_triangle():
    e = find_le_decomposition(k3_symmetric(), i=1)
    assert e is not None
    assert validate_decomposition(k3_symmetric(), e).ok


def test_le_search_respects_budget():
    d, _ = generate_random_le(base_length=4, ear_count=4, min_ear_length=2,
                              max_ear_length=3, seed=5)
    with pytest.raises(BudgetExceededError):
        find_le_decomposition(d, i=2, budget=1)


def test_le_search_path_ears_only():
    d = Digraph(range(5), [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
    found = find_le_decomposition(d, i=2, allow_cycle_ears=True)
    assert found is not None
    # the only decomposition uses the cycle ear at 1, so path-only fails
    assert find_le_decomposition(d, i=2, allow_cycle_ears=False) is None


def test_generator_is_deterministic():
    a = generate_random_le(base_length=4, ear_count=3, min_ear_length=2,
                           max_ear_length=4, seed=11)
    b = generate_random_le(base_length=4, ear_count=3, min_ear_length=2,
                           max_ear_length=4, seed=11)
    assert a[0] == b[0]
    assert a[1].to_json() == b[1].to_json()
    for seed in range(10):
        _, e = generate_random_le(base_length=3, ear_count=12, min_ear_length=2,
                                  max_ear_length=5, cycle_ear_probability=0.3,
                                  seed=seed)
        assert e.to_json()["ears"] == list_drawn_ears(3, 12, 2, 5, 0.3, seed)
    for seed in range(40):
        base, count = 2 + seed % 4, 4 + seed % 9
        expected = list_drawn_ears(base, count, 1, 3, 0.3, seed)
        if expected is None:
            with pytest.raises(InvalidInputError, match="no room"):
                generate_random_le(base, count, 1, 3, 0.3, seed)
        else:
            _, e = generate_random_le(base, count, 1, 3, 0.3, seed)
            assert e.to_json()["ears"] == expected
    # denser stages: the drawn partner of x0 lies past many of its neighbours
    for seed in range(3):
        _, e = generate_random_le(5, 60, 1, 3, 0.0, seed)
        assert e.to_json()["ears"] == list_drawn_ears(5, 60, 1, 3, 0.0, seed)
    # parameters no draw can honour are refused
    for ears, chance in ((-1, 0.0), (3, 2.0), (3, -0.5), (3, float("nan"))):
        with pytest.raises(InvalidInputError):
            generate_random_le(3, ears, 2, 3, chance, 0)


def list_drawn_ears(base_length, ear_count, lo, hi, cycle_p, seed):
    """The ears generate_random_le must draw: each end by random.choice
    from a list of its candidates, and a length-1 ear from the sorted list
    of vertex pairs adjacent neither way (None when that list is empty)."""
    rng = random.Random(seed)
    vertices = list(range(base_length))
    arcs = {(i, (i + 1) % base_length) for i in range(base_length)}
    ears = []
    for _ in range(ear_count):
        length = rng.randint(lo, hi)
        as_cycle = length >= 3 and rng.random() < cycle_p
        if length == 1:
            pairs = sorted((u, v) for u in vertices for v in vertices
                           if u != v and (u, v) not in arcs
                           and (v, u) not in arcs)
            if not pairs:
                return None
            ear = list(rng.choice(pairs))
        else:
            x0 = rng.choice(vertices)
            xr = x0 if as_cycle else rng.choice([v for v in vertices if v != x0])
            interior = list(range(len(vertices), len(vertices) + length - 1))
            ear = [x0, *interior, xr]
        ears.append(ear)
        vertices.extend(ear[1:-1])
        arcs.update(zip(ear, ear[1:]))
    return ears


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10_000))
def test_generated_instances_validate(base, ears, min_len, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=min_len,
                              max_ear_length=min_len + 2, seed=seed)
    report = validate_decomposition(d, e)
    assert report.ok, report.violations
    assert is_strong(d)
    assert e.certifies(min_len)
    assert d.n == base + sum(len(ear.vertices) - 2 for ear in e.ears)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_path_ear_instances_are_asymmetrical(base, ears, seed):
    # fresh interiors cannot close a digon when every ear has length >= 2
    d, _ = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=2, max_ear_length=5, seed=seed)
    assert is_asymmetrical(d)


def test_generator_cycle_ears():
    d, e = generate_random_le(base_length=3, ear_count=4, min_ear_length=3,
                              max_ear_length=4, cycle_ear_probability=1.0,
                              seed=3)
    assert all(ear.vertices[0] == ear.vertices[-1] for ear in e.ears)
    assert validate_decomposition(d, e).ok


# --- reference: a forward LE_i search -----------------------------------------
#
# It enumerates every simple cycle as a base, then grows forward over every
# attachable path, recursing once per ear.  It shares nothing with the
# thread-peeling search but the budget counter, so the two are compared
# verdict for verdict below.

def _all_cycles(d, budget_box):
    """All directed simple cycles, anchored at their smallest vertex."""
    cycles = []
    for v0 in sorted(d.vertices):
        stack = [((v0,), {v0})]
        while stack:
            path, used = stack.pop()
            _spend(budget_box)
            last = path[-1]
            for w in sorted(d.out_neighbors(last), reverse=True):
                if w == v0 and len(path) >= 2:
                    cycles.append(path + (v0,))
                elif w > v0 and w not in used:
                    stack.append((path + (w,), used | {w}))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _stage_ears(d, stage_v, covered_a, min_len, allow_cycle_ears, budget_box):
    """All ears attachable to the stage, longest first."""
    found = []
    for u in sorted(stage_v):
        if min_len <= 1:
            for w in sorted(d.out_neighbors(u)):
                if w in stage_v and w != u and (u, w) not in covered_a:
                    found.append((u, w))
        stack = [(u,)]
        while stack:
            path = stack.pop()
            _spend(budget_box)
            last = path[-1]
            for w in sorted(d.out_neighbors(last), reverse=True):
                if w in stage_v:
                    if len(path) < 2:
                        continue  # handled by the length-1 scan
                    if w == u and not allow_cycle_ears:
                        continue
                    if len(path) >= min_len:
                        found.append(path + (w,))
                elif w not in path:
                    stack.append(path + (w,))
    found.sort(key=lambda e: (-len(e), e[0], e[-1], e))
    return found


def forward_le_search(d, i, budget=200_000, allow_cycle_ears=True):
    """True/False verdict of the forward search; BudgetExceededError if
    it stops on its budget."""
    box = [budget]
    dead = set()

    def attempt(verts, arcs):
        if verts == d.vertices and arcs == d.arcs:
            return True
        if (verts, arcs) in dead:
            return False
        _spend(box)
        for ear in _stage_ears(d, verts, arcs, i, allow_cycle_ears, box):
            if attempt(verts | set(ear), arcs | set(arcs_of(ear))):
                return True
        dead.add((verts, arcs))
        return False

    return any(attempt(frozenset(c), frozenset(zip(c, c[1:])))
               for c in _all_cycles(d, box))


def strong_digraphs(n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        d = Digraph(range(n), [p for k, p in enumerate(pairs) if mask >> k & 1])
        if is_strong(d):
            yield d


def assert_same_verdict(d, i, allow_cycle_ears, reference_budget=200_000):
    try:
        expected = forward_le_search(d, i, reference_budget, allow_cycle_ears)
    except BudgetExceededError:
        return None
    found = find_le_decomposition(d, i, allow_cycle_ears=allow_cycle_ears)
    assert (found is not None) == expected, (sorted(d.arcs), i, allow_cycle_ears)
    if found is not None:
        assert validate_decomposition(d, found, not allow_cycle_ears).ok
        assert found.certifies(i)
    return expected


def test_all_strong_digraphs_up_to_four_vertices_match_reference():
    digraphs = [d for n in (2, 3, 4) for d in strong_digraphs(n)]
    assert len(digraphs) == 1 + 18 + 1606
    verdicts = {(i, cyc): [assert_same_verdict(d, i, cyc) for d in digraphs]
                for i in (1, 2, 3) for cyc in (True, False)}
    assert all(v is not None for vs in verdicts.values() for v in vs)
    # every strong digraph is in LE_1, and the three levels are all reached
    assert all(verdicts[1, True])
    assert any(verdicts[3, True]) and not all(verdicts[2, True])


def test_random_small_strong_digraphs_match_reference():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        n = rng.choice((5, 6))
        p = rng.uniform(0.2, 0.5)
        d = Digraph(range(n), [(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < p])
        if not is_strong(d):
            continue
        checked += 1
        for i, cyc in ((1, True), (2, True), (3, True), (1, False), (2, False)):
            assert_same_verdict(d, i, cyc, reference_budget=20_000)


def test_path_ears_search_skips_separable_remainders():
    # Decided in under 100 units; without the nonseparable prune on
    # remainders the path-ears search does not finish in 200,000.
    d = Digraph(range(7), [
        (0, 3), (0, 6), (1, 0), (1, 2), (1, 4), (2, 3), (2, 6), (3, 1),
        (3, 4), (3, 6), (4, 2), (4, 3), (4, 5), (4, 6), (5, 1), (5, 3),
        (5, 4), (5, 6), (6, 0), (6, 1), (6, 2), (6, 3), (6, 4)])
    found = find_le_decomposition(d, 1, budget=1_000, allow_cycle_ears=False)
    assert found is not None
    assert validate_decomposition(d, found, True).ok


@pytest.mark.parametrize("ears", [6, 8, 10])
def test_generated_le_instances_match_reference(ears):
    decided = 0
    for seed in range(2):
        d, _ = generate_random_le(base_length=4, ear_count=ears,
                                  min_ear_length=2, max_ear_length=4,
                                  seed=seed)
        for i, cyc in ((1, True), (2, True), (3, True), (2, False)):
            decided += assert_same_verdict(d, i, cyc,
                                           reference_budget=50_000) is not None
    assert decided >= 6  # the reference stops on its budget only at i = 3


@pytest.mark.parametrize("ears", [6, 8, 10, 12, 14, 16])
def test_ladder_is_decided_within_default_budget(ears):
    for seed in range(10):
        d, _ = generate_random_le(base_length=4, ear_count=ears,
                                  min_ear_length=2, max_ear_length=4,
                                  seed=seed)
        for i, cyc in ((1, True), (2, True), (3, True), (2, False)):
            found = find_le_decomposition(d, i, allow_cycle_ears=cyc)
            if i <= 2 and cyc:
                assert found is not None  # LE_2 by construction
            if found is not None:
                assert validate_decomposition(d, found, not cyc).ok
                assert found.certifies(i)


def test_search_depth_is_not_python_recursion_depth():
    # 150 ears fit under this limit only if peeling a thread adds no frame
    d, _ = generate_random_le(base_length=3, ear_count=150, min_ear_length=2,
                              max_ear_length=2, seed=1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        found = find_le_decomposition(d, i=2)
    finally:
        sys.setrecursionlimit(limit)
    assert found is not None and len(found.ears) == 150


def assert_chains(rest, initial, peeled=()):
    """rest's threads chain whole initial threads, by their indices; with
    the indices peeled they partition all of them."""
    threads = list(rest.first.values())
    joined = [initial[chain[0]] + tuple(v for k in chain[1:] for v in initial[k][1:])
              for _, _, chain in threads]
    assert joined == [t for _, t, _ in threads]
    assert all(first == 1 - len(t) for first, t, _ in threads)
    held = [k for _, _, chain in threads for k in chain] + list(peeled)
    assert set(map(type, held)) <= {int} and sorted(held) == list(range(len(initial)))


def snapshot(rest):
    return (rest.n, rest.m, {v: frozenset(ws) for v, ws in rest.out.items()},
            dict(rest.first), dict(rest.last), list(rest.order))


def one_per_class(digraphs):
    """The first of digraphs on 0..n-1 in each isomorphism class."""
    seen = set()
    for d in digraphs:
        code = min(tuple(sorted((p[u], p[v]) for u, v in d.arcs))
                   for p in permutations(range(d.n)))
        if code not in seen:
            seen.add(code)
            yield d


def strong_small_digraphs(count, seed=7):
    """count seeded strong digraphs on 5 to 7 vertices."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.choice((5, 6, 7))
        p = rng.uniform(0.2, 0.5)
        d = Digraph(range(n), [(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < p])
        if is_strong(d):
            found.append(d)
    return found


def test_threads_chain_whole_initial_threads():
    # the k-th thread scanned on d is (k,); a peel joins the indices of the
    # threads it merges in path order, and unpeel restores every thread.
    # So on every peel sequence walked the remainder is the union of the
    # initial threads it keeps, and the search's key (all of them minus the
    # indices peeled) names it: an arc set reached again has the same key.
    # Small digraphs are walked to depth 3, generator instances to depth 1;
    # a cycle has no thread, and no peel
    cases = [(d, 3) for d in one_per_class(
        d for n in (2, 3, 4) for d in strong_digraphs(n) if len(d.arcs) > d.n)]
    cases += [(d, 3) for d in strong_small_digraphs(2)]
    cases += [(generate_random_le(base_length=4, ear_count=ears, min_ear_length=1,
                                  max_ear_length=4, cycle_ear_probability=0.3,
                                  seed=seed)[0], 1)
              for ears in (10, 30) for seed in range(5)]
    peeled = merged = repeated = 0
    for d, deepest in cases:
        for cyc in (True, False):
            rest = ears_mod._Remainder(d, 1, cyc)
            initial = list(rest._scan())
            key_of = {}  # arc set -> the kept indices it was reached with

            def walk(gone, depth):
                nonlocal peeled, merged, repeated
                assert_chains(rest, initial, gone)
                arcs = frozenset((v, w) for v, ws in rest.out.items() for w in ws)
                kept = frozenset(range(len(initial))).difference(gone)
                assert arcs == {a for k in kept for a in arcs_of(initial[k])}
                if arcs in key_of:  # the same remainder: the same peels follow
                    assert key_of[arcs] == kept
                    repeated += 1
                    return
                key_of[arcs] = kept
                before = snapshot(rest)
                for thread in list(rest.order) if depth < deepest else ():
                    log = rest.peel(thread)
                    if log is not None:
                        peeled += 1
                        merged += len(log) > 1
                        walk(gone + thread[2], depth + 1)
                        rest.unpeel(thread, log)
                    assert snapshot(rest) == before

            walk((), 0)
    assert peeled > 10_000 and merged > 1000 and repeated > 5000


# --- reference: thread peeling on rebuilt remainders --------------------------
#
# The peeling search as it was before its remainder became incremental: it
# builds a Digraph for every remainder it tries, tests it with is_strong
# (and is_nonseparable in path-ears mode) and rescans its threads.  The
# incremental search must return the same decomposition, or None, and must
# spend the same number of budget units: both make the same deterministic
# sequence of tries, so equal units on a finished search mean the same
# BudgetExceededError at every smaller budget.

def _threads(d: Digraph, min_len: int, allow_cycle_ears: bool) -> list[tuple]:
    """The threads of d that may be its last ear, longest first.

    A thread is a maximal path whose inner vertices have in- and out-degree
    1.  In a strong digraph other than a cycle every arc lies on exactly
    one, and the last ear of any decomposition is one of them.
    """
    def plain(v: int) -> bool:
        return len(d.in_neighbors(v)) == 1 == len(d.out_neighbors(v))

    found: list[tuple] = []
    for u in d.vertices:
        if plain(u):
            continue
        for w in d.out_neighbors(u):
            path = [u, w]
            while plain(w):
                (w,) = d.out_neighbors(w)
                path.append(w)
            if len(path) > min_len and (allow_cycle_ears or w != u):
                found.append(tuple(path))
    found.sort(key=lambda e: (-len(e), e))
    return found


def _may_be_stage(d: Digraph, min_len: int, allow_cycle_ears: bool) -> bool:
    """Necessary for d to be a stage: room for its m - n ears of length >=
    min_len beside a base of >= 2 arcs, strong, and nonseparable when every
    ear is a path."""
    m = len(d.arcs)
    return (m - 2 >= min_len * (m - d.n) and is_strong(d)
            and (allow_cycle_ears or is_nonseparable(d)))


def rebuilding_le_search(d: Digraph, i: int = 1, budget: int = 200_000,
                         allow_cycle_ears: bool = True) -> EarDecomposition | None:
    """Exact search for a decomposition with every ear of length >= i.

    D is in LE_i iff it is one directed cycle, or peeling some thread of
    length >= i (open, in path-ears mode) leaves a digraph in LE_i: the
    peeled thread is the last ear.  The search peels threads depth first,
    longest first, and skips remainders that cannot be a stage or are
    known dead; each remainder tried costs one unit of budget.  Returns
    None only when the whole space was exhausted (provably not in LE_i
    under the chosen ear convention); a BudgetExceededError means the
    verdict is unknown.
    """
    if i < 1:
        raise InvalidInputError("minimum ear length must be >= 1")
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError("no cycle exists: single vertex")
    if not _may_be_stage(d, i, allow_cycle_ears):
        return None
    box = [budget]
    bit = {a: 1 << k for k, a in enumerate(d.arcs)}
    dead: set[int] = set()  # arc masks of remainders not in LE_i
    # one frame per peeled thread: remainder, its arc mask, the thread
    # peeled to reach it, and the remainder's threads not yet tried
    frames = [(d, (1 << len(bit)) - 1, None,
               iter(_threads(d, i, allow_cycle_ears)))]
    while frames:
        rest, mask, _, todo = frames[-1]
        if len(rest.arcs) == rest.n:  # one directed cycle: the base
            base = _shortest_cycle_through(rest, min(rest.vertices))
            ears = [frame[2] for frame in reversed(frames[1:])]
            return _self_checked(d, EarDecomposition(base, ears), i,
                                 not allow_cycle_ears)
        for p in todo:
            _spend(box)
            sub_mask = mask - sum(bit[a] for a in arcs_of(p))
            if sub_mask in dead:
                continue
            sub = Digraph(rest.vertices.difference(p[1:-1]),
                          rest.arcs.difference(arcs_of(p)))
            if _may_be_stage(sub, i, allow_cycle_ears):
                frames.append((sub, sub_mask, p,
                               iter(_threads(sub, i, allow_cycle_ears))))
                break
            dead.add(sub_mask)
        else:
            dead.add(mask)
            frames.pop()
    return None


@pytest.fixture
def spent(monkeypatch):
    """A counter of the budget units both peeling searches spend."""
    real_spend = ears_mod._spend
    units = [0]

    def counting_spend(box):
        units[0] += 1
        real_spend(box)

    monkeypatch.setattr(ears_mod, "_spend", counting_spend)
    monkeypatch.setitem(globals(), "_spend", counting_spend)
    return units


def peel_outcome(search, d, i, allow_cycle_ears, units, budget=200_000):
    """(decomposition JSON, None or "budget", units spent) of one search."""
    units[0] = 0
    try:
        found = search(d, i, budget, allow_cycle_ears)
    except BudgetExceededError:
        return "budget", units[0]
    return (None if found is None else found.to_json()), units[0]


def assert_same_peeling(d, i, allow_cycle_ears, units, budget=200_000):
    new = peel_outcome(find_le_decomposition, d, i, allow_cycle_ears, units,
                       budget)
    old = peel_outcome(rebuilding_le_search, d, i, allow_cycle_ears, units,
                       budget)
    assert new == old, (sorted(d.arcs), i, allow_cycle_ears, budget)
    return new


def test_incremental_search_matches_rebuilding_reference_up_to_four_vertices(spent):
    outcomes = [assert_same_peeling(d, i, cyc, spent)
                for n in (2, 3, 4) for d in strong_digraphs(n)
                for i in (1, 2, 3) for cyc in (True, False)]
    assert len(outcomes) == 1625 * 6
    assert {type(found) for found, _ in outcomes} == {dict, type(None)}


def test_incremental_search_matches_rebuilding_reference_on_the_ladder(spent):
    units = []
    for ears in (6, 8, 10, 12, 14, 16):
        for seed in range(10):
            d, _ = generate_random_le(base_length=4, ear_count=ears,
                                      min_ear_length=2, max_ear_length=4,
                                      seed=seed)
            for i in (1, 2, 3):
                for cyc in (True, False):
                    units.append(assert_same_peeling(d, i, cyc, spent)[1])
                    # equal units already imply equal stops at every
                    # budget; a few seeds check that directly
                    for budget in (1, 2, 5, 20, 100) if seed < 3 else ():
                        assert_same_peeling(d, i, cyc, spent, budget)
    assert max(units) > 100  # the small budgets stop some searches midway


def test_search_work_is_bounded_on_400_ears(monkeypatch):
    # the input is tested for strongness once; a remainder is tested by one
    # reachability search on the edited adjacency, never by building it
    d, _ = generate_random_le(base_length=5, ear_count=400, min_ear_length=3,
                              max_ear_length=4, seed=1)
    calls = {"is_strong": 0, "Digraph": 0}
    real_strong = ears_mod.is_strong
    real_init = Digraph.__init__

    def counting_strong(g):
        calls["is_strong"] += 1
        return real_strong(g)

    def counting_init(self, *args, **kwargs):
        calls["Digraph"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ears_mod, "is_strong", counting_strong)
    monkeypatch.setattr(Digraph, "__init__", counting_init)
    found = find_le_decomposition(d, i=3)
    assert found is not None and len(found.ears) == 400
    assert calls == {"is_strong": 1, "Digraph": 0}


def test_thousand_ear_scaling_instance_is_decided_within_default_budget():
    # 2,502 vertices; the search that rebuilt every remainder took about
    # 37 s here, the incremental one a fraction of a second
    d, _ = generate_random_le(base_length=5, ear_count=1000, min_ear_length=3,
                              max_ear_length=4, seed=1)
    found = find_le_decomposition(d, i=3)
    assert found is not None and found.certifies(3)
    assert len(found.ears) == 1000
