import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from earlab import oracles
from earlab.cli import main
from earlab.coloring import VertexMapping, verify_homomorphism
from earlab.digraph import Digraph, is_kernel, is_quasi_kernel
from earlab.ears import generate_random_le
from earlab.errors import CapExceededError, InvalidInputError, VerificationError
from earlab.oracles import (CHROMATIC_CAP, KERNEL_CAP, LONGEST_PATH_CAP,
                            ORIENTED_CAP, QUASI_KERNEL_CAP, chromatic_oracles,
                            kernel_oracle, longest_path_oracle,
                            oriented_chromatic_oracle, quasi_kernel_oracle)
from earlab.tournaments import (HomomorphismSearch, find_homomorphism,
                                tournament_reps)


def k3_symmetric():
    return Digraph(range(3), [(u, v) for u in range(3) for v in range(3) if u != v])


def test_kernel_oracle_on_even_cycle():
    report = kernel_oracle(Digraph.cycle(4), enumerate_all=True)
    assert report.value is True
    assert report.witness == (0, 2)
    assert report.details["kernel_count"] == 2
    assert report.details["all_kernels"] == [(0, 2), (1, 3)]


def test_kernel_oracle_on_odd_cycle():
    report = kernel_oracle(Digraph.cycle(5))
    assert report.value is False and report.witness is None
    # the search space counts every independent set, empty set included
    assert report.search_space_size == 11


def test_kernel_oracle_on_digon():
    report = kernel_oracle(Digraph.cycle(2), enumerate_all=True)
    assert report.details["all_kernels"] == [(0,), (1,)]


def test_quasi_kernel_oracle_on_c5():
    report = quasi_kernel_oracle(Digraph.cycle(5), enumerate_all=True)
    assert report.quantity == "quasi_kernel_min_size"
    assert report.value == 2
    assert report.witness == (0, 2)
    smallest = [q for q in report.details["all_quasi_kernels"] if len(q) == 2]
    assert len(smallest) == 5


def test_quasi_kernel_single_vertex():
    report = quasi_kernel_oracle(Digraph.cycle(3))
    assert report.value == 1 and report.witness == (0,)


def test_chromatic_oracle_cycles():
    even = chromatic_oracles(Digraph.cycle(4))
    odd = chromatic_oracles(Digraph.cycle(5))
    assert even.value == 2 and odd.value == 3
    # deleting any vertex of a single cycle leaves an acyclic digraph
    assert even.details["dichromatic"] == 2
    assert odd.details["dichromatic"] == 2


def test_chromatic_oracle_on_the_empty_digraph(tmp_path, capsys):
    # no special case: the empty witnesses are {} like every other oracle's
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "arcs": []}')
    assert main(["oracle", "chromatic", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"] == {
        "quantity": "chromatic_numbers", "value": 0, "witness": {},
        "search_space_size": 0,
        "details": {"chromatic": 0, "dichromatic": 0, "dichromatic_witness": {}}}


def test_chromatic_oracle_symmetric_triangle():
    report = chromatic_oracles(k3_symmetric())
    assert report.value == 3
    assert report.details["dichromatic"] == 3
    coloring = report.witness
    assert sorted(coloring) == [0, 1, 2]
    assert len(set(coloring.values())) == 3


def test_oriented_oracle_frozen_cycle_values():
    expected = {3: 3, 4: 4, 5: 5, 6: 3, 7: 4}
    for n, chi in expected.items():
        report = oriented_chromatic_oracle(Digraph.cycle(n))
        assert report.value == chi, n
        assert len(report.witness["tournament"]) == chi * (chi - 1) // 2


def test_oriented_oracle_frozen_witness():
    # the witness is the first map in BFS visit order and ascending image
    arcs = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 7), (3, 4), (5, 2), (5, 3), (6, 5)]
    report = oriented_chromatic_oracle(Digraph(range(8), arcs))
    assert (report.value, report.search_space_size) == (4, 6)
    assert report.witness == {
        "assignment": {0: 3, 1: 0, 2: 0, 3: 0, 4: 2, 5: 1, 6: 2, 7: 2},
        "tournament": "010000"}


def test_oriented_oracle_requires_asymmetry():
    with pytest.raises(InvalidInputError):
        oriented_chromatic_oracle(k3_symmetric())


def test_oriented_oracle_reports_exceeds():
    report = oriented_chromatic_oracle(Digraph.cycle(5), k_max=4)
    assert report.value is None
    assert report.details == {"exceeds": 4}


def test_longest_path_oracle_on_c5():
    report = longest_path_oracle(Digraph.cycle(5))
    assert report.value == 4
    assert report.witness == (0, 1, 2, 3, 4)
    assert report.details["maximum_count"] == 5


def test_longest_path_oracle_on_path():
    d = Digraph(range(3), [(0, 1), (1, 2)])
    report = longest_path_oracle(d)
    assert report.value == 2
    assert report.details == {"maximum_count": 1}
    assert longest_path_oracle(d, enumerate_all=True).details["all_longest"] \
        == [(0, 1, 2)]


def test_longest_path_listing_cap_is_checked_before_listing(monkeypatch, capsys,
                                                            tmp_path):
    # C5 has five longest paths: listed at a cap of 5, refused below it
    monkeypatch.setattr(oracles, "LONGEST_LIST_CAP", 5)
    assert len(longest_path_oracle(Digraph.cycle(5), enumerate_all=True)
               .details["all_longest"]) == 5
    monkeypatch.setattr(oracles, "LONGEST_LIST_CAP", 4)
    listed = []
    monkeypatch.setattr(oracles, "_longest_paths",
                        lambda *args: listed.append(args) or iter(()))
    with pytest.raises(CapExceededError, match="lists at most 4 paths, found 5"):
        longest_path_oracle(Digraph.cycle(5), enumerate_all=True)
    assert listed == []
    path = tmp_path / "c5.txt"
    path.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    assert main(["oracle", "longest-path", str(path), "--all"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "cap_exceeded" and doc["payload"] is None
    assert doc["error"] == "longest path oracle lists at most 4 paths, found 5"
    assert listed == []


def test_every_oracle_enforces_its_cap():
    for cap, oracle in ((KERNEL_CAP, kernel_oracle),
                        (QUASI_KERNEL_CAP, quasi_kernel_oracle),
                        (CHROMATIC_CAP, chromatic_oracles),
                        (ORIENTED_CAP, oriented_chromatic_oracle),
                        (LONGEST_PATH_CAP, longest_path_oracle)):
        with pytest.raises(CapExceededError):
            oracle(Digraph.cycle(cap + 1))


def test_oriented_oracle_kmax_cap():
    with pytest.raises(CapExceededError):
        oriented_chromatic_oracle(Digraph.cycle(5), k_max=8)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_kernel_witnesses_verify(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    d = Digraph(range(n), arcs)
    report = kernel_oracle(d)
    if report.value:
        assert is_kernel(d, set(report.witness))
    else:
        assert report.witness is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_quasi_kernel_witnesses_verify(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    d = Digraph(range(n), arcs)
    report = quasi_kernel_oracle(d)
    # every digraph has a quasi-kernel, so the oracle always finds one
    assert report.value >= 1
    assert is_quasi_kernel(d, set(report.witness))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_chromatic_witnesses_are_proper(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    d = Digraph(range(n), arcs)
    report = chromatic_oracles(d)
    coloring = report.witness
    # proper coloring separates the ends of every arc
    assert all(coloring[u] != coloring[v] for u, v in d.arcs)
    assert len(set(coloring.values())) == report.value


# Differential checks against an independent brute force: every colouring
# in itertools.product order and every vertex subset through the predicates.

def every_digraph(n):
    pairs = list(permutations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Digraph(range(n), [p for k, p in enumerate(pairs) if mask >> k & 1])


def random_digraphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 7)
        p = rng.uniform(0.1, 0.35)
        yield Digraph(range(n), [a for a in permutations(range(n), 2)
                                 if rng.random() < p])


def induces_acyclic(d, members):
    # no member reaches itself along arcs inside the set
    inside = set(members)
    for v in inside:
        seen, stack = set(), [v]
        while stack:
            for w in inside.intersection(d.out_neighbors(stack.pop())):
                if w == v:
                    return False
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return True


def first_colouring(d, fits):
    """(fewest classes, first valid colouring in product order) where
    fits(class members) judges each colour class."""
    verts = sorted(d.vertices)
    for k in range(1, len(verts) + 1):
        for colors in product(range(k), repeat=len(verts)):
            if all(fits([v for v, c in zip(verts, colors) if c == cls])
                   for cls in range(k)):
                return k, {v: c + 1 for v, c in zip(verts, colors)}
    return 0, {}


def subsets(d):
    verts = sorted(d.vertices)
    return [s for r in range(len(verts) + 1) for s in combinations(verts, r)]


def assert_oracles_match_brute_force(d):
    sets = subsets(d)
    independent = [s for s in sets
                   if not any(d.has_arc(u, v) for u in s for v in s)]
    kernels = sorted(s for s in sets if is_kernel(d, set(s)))
    report = kernel_oracle(d, enumerate_all=True)
    assert report.value is bool(kernels)
    assert report.witness == (kernels[0] if kernels else None)
    assert report.details == {"kernel_count": len(kernels), "all_kernels": kernels}
    assert report.search_space_size == len(independent)

    quasi = sorted(s for s in sets if is_quasi_kernel(d, set(s)))
    best = min(quasi, key=lambda s: (len(s), s))
    report = quasi_kernel_oracle(d, enumerate_all=True)
    assert (report.value, report.witness) == (len(best), best)
    assert report.details == {"quasi_kernel_count": len(quasi),
                              "all_quasi_kernels": quasi}
    assert report.search_space_size == len(independent)

    chi, colouring = first_colouring(
        d, lambda cls: not any(d.has_arc(u, v) for u in cls for v in cls))
    dichi, acyclic = first_colouring(d, lambda cls: induces_acyclic(d, cls))
    report = chromatic_oracles(d)
    assert (report.value, report.witness) == (chi, colouring)
    assert report.details == {"chromatic": chi, "dichromatic": dichi,
                              "dichromatic_witness": acyclic}
    assert report.search_space_size == 0


def test_oracles_match_brute_force_on_every_digraph_up_to_four_vertices():
    digraphs = [d for n in range(5) for d in every_digraph(n)]
    assert len(digraphs) == 1 + 1 + 4 + 64 + 4096
    for d in digraphs:
        assert_oracles_match_brute_force(d)


def test_oracles_match_brute_force_on_random_digraphs():
    for d in random_digraphs(40, seed=6):
        assert_oracles_match_brute_force(d)


def reference_oriented_oracle(d, k_max=7):
    """(value, witness, search space) with the digraph side of the
    homomorphism search rebuilt for every class tried."""
    tried = 0
    for k in range(1, k_max + 1):
        for t in tournament_reps(k):
            tried += 1
            phi = find_homomorphism(d, t)
            if phi is not None:
                return k, {"assignment": phi, "tournament": t.code_string()}, tried
    return None, None, tried


def test_oriented_oracle_matches_per_class_search():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(3, 8)
        p = rng.choice((0.2, 0.5, 0.9))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in combinations(range(n), 2) if rng.random() < p]
        d = Digraph(range(n), arcs)
        for k_max in (5, 7):
            report = oriented_chromatic_oracle(d, k_max=k_max)
            assert ((report.value, report.witness, report.search_space_size)
                    == reference_oriented_oracle(d, k_max)), (n, arcs)


def random_asymmetric(rng, n, p):
    return Digraph(range(n), [(u, v) if rng.random() < 0.5 else (v, u)
                              for u, v in combinations(range(n), 2)
                              if rng.random() < p])


def test_fits_order_matches_per_class_search():
    # the one colouring search per order against a homomorphism search into
    # every class of that order; the dense 9-12-vertex inputs exceed order 7
    rng = random.Random(14)
    shapes = [(rng.randint(3, 8), rng.choice((0.2, 0.5, 0.9))) for _ in range(24)]
    shapes += [(rng.randint(9, 12), rng.choice((0.3, 0.6))) for _ in range(6)]
    shapes += [(10, 0.6)] * 2
    for n, p in shapes:
        d = random_asymmetric(rng, n, p)
        search = HomomorphismSearch(d)
        for k in range(1, 8):
            assert search.fits_order(k) == any(
                find_homomorphism(d, t) is not None for t in tournament_reps(k)), \
                (k, sorted(d.arcs))


def rotational_tournament_8():
    """i -> i+1, i+2, i+3 (mod 8), and i -> i+4 for i < 4."""
    return Digraph(range(8), [(i, (i + s) % 8) for i in range(8) for s in (1, 2, 3)]
                   + [(i, i + 4) for i in range(4)])


def test_oriented_oracle_counts_every_class_when_none_fits():
    report = oriented_chromatic_oracle(rotational_tournament_8())
    assert (report.value, report.witness) == (None, None)
    assert report.search_space_size == 532 == sum(
        len(tournament_reps(k)) for k in range(1, 8))
    assert report.details == {"exceeds": 7}


def test_oriented_oracle_counts_ruled_out_orders_without_enumerating(monkeypatch):
    # no order up to 7 fits, so no class is listed: the counts are known
    def refuse(k):
        raise AssertionError(f"order {k} enumerated")

    monkeypatch.setattr(oracles, "tournament_reps", refuse)
    report = oriented_chromatic_oracle(rotational_tournament_8())
    assert (report.value, report.search_space_size, report.details) \
        == (None, 532, {"exceeds": 7})


def test_oriented_oracle_cross_checks_an_accepted_order(monkeypatch):
    # a decision that accepts an order no class admits is caught, not absorbed
    monkeypatch.setattr(HomomorphismSearch, "fits_order", lambda self, k: True)
    with pytest.raises(VerificationError):
        oriented_chromatic_oracle(Digraph.cycle(5))


@pytest.mark.parametrize("k_max", [0, -3])
def test_oriented_oracle_rejects_kmax_below_one(k_max):
    with pytest.raises(InvalidInputError):
        oriented_chromatic_oracle(Digraph.cycle(5), k_max=k_max)


def test_oriented_oracle_matches_brute_force_maps():
    # every map V(d) -> V(t) in product order decides each class on its own
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(3, 5)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in combinations(range(n), 2) if rng.random() < 0.7]
        d = Digraph(range(n), arcs)
        report = oriented_chromatic_oracle(d)
        tried = 0
        for t in (t for k in range(1, n + 1) for t in tournament_reps(k)):
            tried += 1
            if any(all(t.has_arc(img[u], img[v]) for u, v in arcs)
                   for img in product(range(t.k), repeat=n)):
                break
        assert (report.value, report.search_space_size) == (t.k, tried)
        assert report.witness["tournament"] == t.code_string()
        verify_homomorphism(d, VertexMapping(report.witness["assignment"], t,
                                             "homomorphism"))


# --- reference: longest paths by listing every simple path ------------------

def longest_paths_by_dfs(d):
    """(length, every longest path in lexicographic order, the number of
    distinct (vertex set, end) states) from a DFS that lists every simple
    path from every vertex."""
    best_len, best, states = 0, [], set()
    for start in sorted(d.vertices):
        stack = [((start,), 1 << start)]
        while stack:
            path, members = stack.pop()
            states.add((members, path[-1]))
            length = len(path) - 1
            if length > best_len:
                best_len, best = length, [path]
            elif length == best_len:
                best.append(path)
            for w in reversed(d.out_neighbors(path[-1])):
                if w not in path:
                    stack.append((path + (w,), members | 1 << w))
    best.sort()
    return best_len, best, len(states)


def assert_longest_path_oracle_matches_dfs(d):
    value, paths, states = longest_paths_by_dfs(d)
    report = longest_path_oracle(d, enumerate_all=True)
    assert (report.value, report.witness, report.search_space_size) \
        == (value, paths[0] if paths else None, states), sorted(d.arcs)
    assert report.details == {"maximum_count": len(paths),
                              "all_longest": paths}, sorted(d.arcs)
    assert longest_path_oracle(d).details == {"maximum_count": len(paths)}


def seeded_digraph(rng, n, p):
    """n vertices with ids that leave gaps; each pair joined with chance p,
    in a random direction, and a fifth of the arcs doubled into digons."""
    ids = sorted(rng.sample(range(3 * n), n))
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u, v in combinations(ids, 2) if rng.random() < p]
    arcs += [(v, u) for u, v in arcs if rng.random() < 0.2]
    return Digraph(ids, arcs)


def test_longest_path_oracle_matches_dfs_reference():
    # every digraph on 0-4 vertices, then seeded sparse to dense ones on
    # 5-10 vertices and tournaments with digons on 5-8
    for n in range(5):
        for d in every_digraph(n):
            assert_longest_path_oracle_matches_dfs(d)
    rng = random.Random(31)
    shapes = [(rng.randint(5, 10), rng.choice((0.15, 0.3, 0.5)))
              for _ in range(120)]
    shapes += [(n, 1.0) for n in range(5, 9) for _ in range(3)]
    for n, p in shapes:
        assert_longest_path_oracle_matches_dfs(seeded_digraph(rng, n, p))


# --- reference: the absorbing-set scan before the carried absorption mask ----
#
# It re-tests every row outside the set at each independent-set leaf; the
# oracles' scan carries the rows met down the search instead.  Both must
# report the same sets, witnesses and search space on every input.

def _independent_sets(n, sym):
    """Yield every independent set as a bitmask, include-first order."""
    stack = [(0, 0, 0)]
    while stack:
        idx, mask, blocked = stack.pop()
        if idx == n:
            yield mask
            continue
        stack.append((idx + 1, mask, blocked))
        if not blocked >> idx & 1:
            stack.append((idx + 1, mask | 1 << idx, blocked | sym[idx]))


def _absorbing_sets(verts, sym, rows):
    """Independent sets S that rows[i] meets for every vertex i outside S,
    as member tuples in lexicographic order, and the number of independent
    sets examined."""
    n = len(verts)
    full = (1 << n) - 1
    found = []
    examined = 0
    for mask in _independent_sets(n, sym):
        examined += 1
        outside = full & ~mask
        if all(rows[i] & mask for i in range(n) if outside >> i & 1):
            found.append(tuple(v for i, v in enumerate(verts) if mask >> i & 1))
    found.sort()
    return found, examined


def test_absorbing_scan_matches_rescanning_reference(monkeypatch):
    # every stage of the first 40 seeded instances with 10-20 vertices
    stages, instances, seed = [], 0, 0
    while instances < 40:
        d, e = generate_random_le(base_length=3 + seed % 3, ear_count=3 + seed % 5,
                                  min_ear_length=2, max_ear_length=4,
                                  cycle_ear_probability=0.2, seed=seed)
        seed += 1
        if 10 <= d.n <= 20:
            instances += 1
            stages.extend(map(e.stage, range(e.stage_count)))
    ran = {"kernel": 0, "quasi": 0}
    for stage in stages:
        kernel = kernel_oracle(stage, enumerate_all=True)
        quasi = (quasi_kernel_oracle(stage, enumerate_all=True)
                 if stage.n <= QUASI_KERNEL_CAP else None)
        with monkeypatch.context() as m:
            m.setattr(oracles, "_absorbing_sets", _absorbing_sets)
            assert kernel_oracle(stage, enumerate_all=True) == kernel
            ran["kernel"] += 1
            if quasi is not None:
                assert quasi_kernel_oracle(stage, enumerate_all=True) == quasi
                ran["quasi"] += 1
    assert ran["kernel"] == len(stages) and ran["quasi"] > len(stages) // 2
