import json
import random
import re
from collections import namedtuple
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from earlab import digraph
from earlab.cli import load_digraph
from earlab.digraph import (Digraph, NeighborhoodReport, digraph_from_json,
                            is_asymmetrical, is_kernel, is_nonseparable,
                            is_quasi_kernel, is_strong, neighborhoods,
                            parse_digraph, serialize_digraph, set_predicates)
from earlab.constructions import seymour_vertex
from earlab.ears import EarDecomposition
from earlab.errors import CapExceededError, InvalidInputError, ParseError
from earlab.oracles import oriented_chromatic_oracle
from earlab.oriented import oriented_coloring_le3


def test_cycle_and_dense_constructors():
    c = Digraph.cycle(4)
    assert c.n == 4
    assert c.has_arc(3, 0) and not c.has_arc(0, 3)
    d = Digraph(range(3), [(0, 1)])
    assert d.vertices == frozenset({0, 1, 2})


def test_digon_is_a_two_cycle():
    d = Digraph.cycle(2)
    assert d.arcs == frozenset({(0, 1), (1, 0)})
    assert not is_asymmetrical(d)


# the refusal's subject, and a call that refuses a digraph with a digon
# before it reads the decomposition
DIGON_REFUSALS = {
    "seymour": ("Seymour vertex", lambda d: seymour_vertex(
        d, EarDecomposition((0, 1, 0)))),
    "oriented": ("oriented coloring", lambda d: oriented_coloring_le3(
        d, EarDecomposition((0, 1, 0)))),
    "oracle": ("oriented coloring", oriented_chromatic_oracle),
}


@st.composite
def digraphs_with_a_digon(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    ids = st.integers(min_value=0, max_value=n - 1)
    u, v = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    arcs = {(a, b) for a, b in draw(st.sets(st.tuples(ids, ids))) if a != b}
    return Digraph(range(n), arcs | {(u, v), (v, u)})


@given(digraphs_with_a_digon(), st.sampled_from(sorted(DIGON_REFUSALS)))
def test_digon_refusals_name_the_least_digon(d, refusal):
    subject, refuse = DIGON_REFUSALS[refusal]
    with pytest.raises(InvalidInputError) as caught:
        refuse(d)
    found = re.fullmatch(re.escape(subject) + r" needs an asymmetrical "
                         r"digraph; digon \((\d+), (\d+)\)", str(caught.value))
    assert found, str(caught.value)
    named = (int(found[1]), int(found[2]))
    digons = [(u, v) for u, v in sorted(d.arcs) if u < v and (v, u) in d.arcs]
    assert named == digons[0]


def test_loops_rejected():
    with pytest.raises(InvalidInputError):
        Digraph(range(2), [(0, 0)])


def test_arc_endpoints_must_be_vertices():
    with pytest.raises(InvalidInputError):
        Digraph(range(2), [(0, 5)])


def test_parse_edge_list_numeric():
    d = parse_digraph("0 1\n1 2\n2 0  # close the triangle\n")
    assert d == Digraph.cycle(3)


def test_parse_keeps_numeric_gaps():
    d = parse_digraph("0 2\n2 0\n")
    assert d.vertices == frozenset({0, 1, 2})
    assert d.has_arc(0, 2)


def test_parse_labels_non_numeric_ids():
    d = parse_digraph("a b\nb a\n")
    assert d.labels == {0: "a", 1: "b"}
    assert d.arcs == frozenset({(0, 1), (1, 0)})


@pytest.mark.parametrize("text, labels", [
    ("0 \u00b2\n\u00b2 0\n", {0: "0", 1: "\u00b2"}),
    ("1 01\n01 1\n", {0: "1", 1: "01"}),
], ids=["superscript-digit", "leading-zero"])
def test_parse_non_numerals_are_labels(text, labels):
    d = parse_digraph(text)
    assert d.labels == labels
    assert d.arcs == frozenset({(0, 1), (1, 0)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_digraph("0 1\n1 2 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_digraph("4 4\n")


def test_parse_duplicate_modes():
    assert parse_digraph("0 1\n0 1\n1 0\n").arcs == frozenset({(0, 1), (1, 0)})


def test_parse_accepts_json_document(tmp_path):
    # JSON text has one path, load_digraph; parse_digraph reads edge lists
    doc = json.dumps({"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]})
    path = tmp_path / "c3.json"
    path.write_text(doc)
    assert load_digraph(str(path)) == Digraph.cycle(3)
    with pytest.raises(ParseError):
        parse_digraph(doc)


def test_vertex_cap_is_checked_before_allocation(monkeypatch):
    monkeypatch.setattr(digraph, "MAX_VERTICES", 10)
    assert parse_digraph("0 9\n9 0\n").n == 10
    assert digraph_from_json({"n": 10, "arcs": []}).n == 10
    for build in (lambda: parse_digraph("0 10\n10 0\n"),
                  lambda: digraph_from_json({"n": 11, "arcs": []}),
                  lambda: digraph_from_json({"n": 2, "arcs": [[0, 10]]}),
                  lambda: digraph_from_json({"arcs": [[10, 0], [0, 10]]}),
                  lambda: parse_digraph("0 100\n100 0\n")):
        with pytest.raises(CapExceededError):
            build()


def test_labels_must_name_vertices():
    doc = {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "labels": {"7": "x", "-2": "y"}}
    with pytest.raises(ParseError, match=r"\[-2, 7\]"):
        digraph_from_json(doc)
    doc["labels"] = {"2": "z"}
    assert digraph_from_json(doc).labels == {2: "z"}


@pytest.mark.parametrize("labels, error", [
    ([], "got []"),
    (0, "got 0"),
    ("", "got ''"),
    (False, "got False"),
    (["x"], "got ['x']"),
    ({" 1": "a"}, "label key ' 1'"),
    ({"+1": "a"}, "label key '+1'"),
    ({"1_0": "a"}, "label key '1_0'"),
    ({"0": "a", "00": "b"}, "label key '00'"),
    ({"-0": "a"}, "label key '-0'"),
    ({"\u0661": "a"}, "label key '\u0661'"),
    ({"0": None}, "label '0' names its vertex None"),
    ({"0": 7}, "label '0' names its vertex 7"),
    ({"-2": "a"}, "labels name ids [-2]"),
], ids=["list", "zero", "empty-string", "false", "list-of-names",
        "leading-space", "plus-sign", "underscore", "two-keys-for-0",
        "minus-zero", "arabic-digit", "null-name", "int-name", "negative"])
def test_labels_are_read_strictly(labels, error):
    doc = {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "labels": labels}
    with pytest.raises(ParseError, match=re.escape(error)):
        digraph_from_json(doc)


@pytest.mark.parametrize("labels, expected", [
    (None, {}), ({}, {}), ({"0": "a", "10": ""}, {0: "a", 10: ""}),
], ids=["null", "empty", "names"])
def test_labels_read_back_as_written(labels, expected):
    doc = {"arcs": [[0, 10], [10, 0]], "labels": labels}
    assert digraph_from_json(doc).labels == expected
    del doc["labels"]
    assert digraph_from_json(doc).labels == {}


# --- reference: the loaders' per-element checks --------------------------------
#
# digraph_from_json and Digraph check their input by C-level passes and fall
# back on these loops only to name the first bad entry.  The loops stay here
# as the reference: every input must give the same digraph, down to the
# iteration order of its arc set, or the same error.

def reference_digraph(vertices, arcs):
    arcs = list(arcs)
    for pair in arcs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise InvalidInputError(f"bad arc entry {pair!r}: need two integer ids")
    vertices = list(vertices)
    for v in vertices:
        if type(v) is not int:
            raise InvalidInputError(f"vertex id {v!r} is not an integer")
    vertices = frozenset(vertices)
    arcs = frozenset((u, v) for u, v in arcs)
    for v in vertices:
        if v < 0:
            raise InvalidInputError(f"negative vertex id {v}")
    for u, v in arcs:
        if u == v:
            raise InvalidInputError(f"loop arc ({u},{u}) is forbidden")
        if u not in vertices or v not in vertices:
            raise InvalidInputError(f"arc ({u},{v}) leaves the vertex set")
    return vertices, arcs


def reference_from_json(doc):
    arcs = []
    for pair in doc["arcs"]:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ParseError(f"bad arc entry {pair!r}: need two integer ids")
        arcs.append((pair[0], pair[1]))
    top = max((max(a) for a in arcs), default=-1) + 1
    n = doc.get("n", top)
    return reference_digraph(range(n), arcs)


def _outcome(build):
    try:
        got = build()
    except (InvalidInputError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Digraph):
        got = got.vertices, got.arcs
    return list(got[0]), list(got[1])


Pair = namedtuple("Pair", "tail head")


class PairList(list):
    pass


DIGRAPH_CASES = {
    "int-pairs": (range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)]),
    "list-pairs": (range(3), [[0, 1], [1, 2]]),
    "subclass-pairs": (range(3), [Pair(0, 1), PairList([1, 2])]),
    "length-1": (range(3), [(0,)]),
    "length-3": (range(3), [(0, 1, 2)]),
    "bool-id": (range(3), [(True, 2)]),
    "str-numerals": (range(3), [("0", "1")]),
    "str-ids": (range(3), [("a", "b")]),
    "float-ids": (range(3), [(0, 1.0), (1.5, 2)]),
    "float-vertex-set": ({0, 1.5, 2}, [(0, 2)]),
    "bool-vertex": ([0, True, 2], [(0, 2)]),
    "int-entry": (range(3), [0]),
    "set-entry": (range(3), [{0, 1}]),
    "str-entry": (range(3), ["01"]),
    "dict-entry": (range(3), [{0: 1, 1: 0}]),
    "unhashable-ids": (range(3), [([0], [1])]),
    "loop": (range(3), [(0, 1), (1, 1)]),
    "negative-id": (range(3), [(0, -1)]),
    "id-n": (range(3), [(0, 3)]),
    "several-bad": (range(3), [(0, 1), (2, 2), (5, 0), (-1, 0)]),
    "negative-range": (range(-2, 2), [(0, 1)]),
    "empty-negative-range": (range(-2), [(0, 1)]),
    "step-2": (range(0, 6, 2), [(0, 2), (2, 4), (4, 0)]),
    "step-2-leaves": (range(0, 6, 2), [(0, 1)]),
    "vertex-set": ({0, 1, 5}, [(0, 5), (5, 1)]),
    "vertex-list": ([2, 1, 0], [(0, 1), (1, 2)]),
    "arc-set": (range(40), {(u, (7 * u + 3) % 40) for u in range(40)}),
}


@pytest.mark.parametrize("key", DIGRAPH_CASES)
def test_constructor_matches_the_reference_loops(key):
    vertices, arcs = DIGRAPH_CASES[key]
    assert (_outcome(lambda: Digraph(vertices, arcs))
            == _outcome(lambda: reference_digraph(vertices, arcs)))
    # an iterator of arcs is read once
    assert (_outcome(lambda: Digraph(vertices, iter(list(arcs))))
            == _outcome(lambda: reference_digraph(vertices, arcs)))


JSON_CASES = {
    "pairs": {"arcs": [[0, 1], [1, 0], [0, 1]]},
    "tuple-entries": {"arcs": [(0, 1), [1, 0]]},
    "subclass-entries": {"arcs": [Pair(0, 1), PairList([1, 0])]},
    "length-1": {"arcs": [[0, 1], [1]]},
    "length-3": {"arcs": [[0, 1, 2]]},
    "bool-id": {"arcs": [[0, True]]},
    "str-id": {"arcs": [["0", 1]]},
    "float-id": {"arcs": [[0, 1.0]]},
    "int-entry": {"arcs": [0, [1, 0]]},
    "str-entry": {"arcs": [[0, 1], "ab"]},
    "dict-entry": {"arcs": [{"0": 1, "1": 0}]},
    "unhashable-ids": {"arcs": [[[0], [1]]]},
    "unhashable-ids-later": {"arcs": [[0, 1], [[1], 0]]},
    "loop": {"arcs": [[1, 1]]},
    "negative-id": {"arcs": [[0, -1]]},
    "all-negative": {"arcs": [[-3, -1]]},
    "id-n": {"n": 2, "arcs": [[0, 2]]},
    "several-bad": {"n": 4, "arcs": [[0, 1], [2, 2], [3, 5], [1, -1]]},
    "no-arcs": {"arcs": []},
    "isolated": {"n": 3, "arcs": [[2, 0]]},
}


@pytest.mark.parametrize("key", JSON_CASES)
def test_json_loader_matches_the_reference_loops(key):
    doc = JSON_CASES[key]
    assert (_outcome(lambda: digraph_from_json(doc))
            == _outcome(lambda: reference_from_json(doc)))


def test_loaders_match_the_reference_on_random_digraphs():
    # ids past the table size collide in the arc set, so its order shows
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 60)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        arcs = [a for a in arcs if a[0] != a[1]]
        doc = {"n": n, "arcs": [list(a) for a in arcs]}
        expected = _outcome(lambda: reference_digraph(range(n), arcs))
        assert _outcome(lambda: Digraph(range(n), arcs)) == expected
        assert _outcome(lambda: digraph_from_json(doc)) == expected


def test_a_load_checks_each_arc_entry_once(monkeypatch, tmp_path):
    # the JSON loader checks the entries in the constructor's place
    errors, check = [], digraph._checked_arcs
    monkeypatch.setattr(digraph, "_checked_arcs",
                        lambda entries, error: errors.append(error)
                        or check(entries, error))
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}))
    d = load_digraph(str(path))
    assert errors == [ParseError]
    assert Digraph(d.vertices, d.arcs) == d
    assert errors == [ParseError, InvalidInputError]


def test_in_index_reads_the_arcs_head_first():
    rng = random.Random(47)
    for _ in range(40):
        ids = rng.sample(range(100), rng.randint(1, 30))
        d = Digraph(ids, [(u, v) for u in ids for v in ids
                          if u != v and rng.random() < 0.2])
        assert d._in == digraph._index(d.vertices, map(reversed, d.arcs))


def test_json_roundtrip_preserves_labels():
    d = parse_digraph("a b\nb c\nc a\n")
    again = digraph_from_json(serialize_digraph(d))
    assert again == d and again.labels == d.labels


def test_edge_list_roundtrip():
    d = Digraph.cycle(5)
    assert parse_digraph("".join(f"{u} {v}\n" for u, v in d.arcs)) == d


@given(st.integers(min_value=1, max_value=6), st.data())
def test_serialize_roundtrip(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    d = Digraph(range(n), arcs)
    assert digraph_from_json(serialize_digraph(d)) == d


def test_is_strong():
    assert is_strong(Digraph.cycle(6))
    assert is_strong(Digraph(range(1), []))
    assert not is_strong(Digraph(range(2), [(0, 1)]))


def test_is_nonseparable_small_cases():
    # single vertices and single arcs have no cut vertex by convention
    assert is_nonseparable(Digraph(range(1), []))
    assert is_nonseparable(Digraph(range(2), [(0, 1)]))
    assert is_nonseparable(Digraph.cycle(5))


def test_is_nonseparable_rejects_cut_vertex():
    # two triangles sharing vertex 0
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    assert not is_nonseparable(Digraph(range(5), arcs))


def test_strong_and_nonseparable_match_networkx():
    # deep DFS trees first: a 100,000-cycle, and two 50,000-cycles sharing
    # a vertex far from the root, which only the lowpoint test finds
    assert is_nonseparable(Digraph.cycle(100_000))
    ring = list(range(50_000)) + [0]
    loop = [25_000, *range(50_000, 99_999), 25_000]
    assert not is_nonseparable(Digraph(range(99_999), [*zip(ring, ring[1:]),
                                                       *zip(loop, loop[1:])]))
    # from 3 vertices on: networkx counts K1 as not biconnected, whereas a
    # single vertex or edge is nonseparable here by convention
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    digraphs = []
    for n in (3, 4):
        pairs = list(permutations(range(n), 2))
        digraphs += [Digraph(range(n), [p for k, p in enumerate(pairs)
                                        if mask >> k & 1])
                     for mask in range(1 << len(pairs))]
    for _ in range(300):
        n = rng.randint(5, 9)
        p = rng.uniform(0.05, 0.4)
        digraphs.append(Digraph(range(n), [a for a in permutations(range(n), 2)
                                           if rng.random() < p]))
    # disconnected, with a 2-connected component holding the smallest vertex
    c4, c3 = [(0, 1), (1, 2), (2, 3), (3, 0)], [(4, 5), (5, 6), (6, 4)]
    digraphs += [Digraph(range(7), c4 + c3), Digraph(range(5), c4),
                 Digraph(range(7), c4 + [(1, 3), (4, 5), (5, 4)]),
                 Digraph(range(8), c4 + c3 + [(7, 4)])]
    # ids off 0..n-1, as stages and search remainders keep the host's ids
    for d in digraphs[-320:]:
        ids = rng.sample(range(3, 60), d.n)
        digraphs.append(Digraph(set(ids), [(ids[u], ids[v]) for u, v in d.arcs]))
    for d in digraphs:
        g = nx.DiGraph()
        g.add_nodes_from(d.vertices)
        g.add_edges_from(d.arcs)
        assert is_strong(d) == nx.is_strongly_connected(g), sorted(d.arcs)
        assert is_nonseparable(d) == nx.is_biconnected(g.to_undirected()), \
            sorted(d.arcs)


def test_second_neighborhood_formula():
    # N++ collects out-neighbours of out-neighbours, origin not excluded
    d = Digraph.cycle(3)
    report = neighborhoods(d, 0)
    assert report.first_out == frozenset({1})
    assert report.second_out == frozenset({2})
    assert report.out_degree == 1 and report.second_out_degree == 1


def test_second_neighborhood_of_digon_returns_origin():
    d = Digraph.cycle(2)
    report = neighborhoods(d, 0)
    assert report.second_out == frozenset({0})


def test_neighborhoods_match_the_out_index_reading():
    # neighborhoods reads d.arcs; the reference reads d's sorted out-index.
    # Without loops, v lies in its own second neighbourhood iff on a digon.
    rng = random.Random(34)
    own = 0
    for _ in range(60):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph(range(n), rng.sample(pairs, rng.randint(0, len(pairs))))
        for v in d.vertices:
            first = frozenset(d.out_neighbors(v))
            second = frozenset().union(*map(d.out_neighbors, first)) - first
            assert neighborhoods(d, v) == NeighborhoodReport(first, second)
            assert (v in second) == any((w, v) in d.arcs for w in first)
            own += v in second
    assert own > 50, own

def test_set_predicates_on_c4():
    p = set_predicates(Digraph.cycle(4), {0, 2})
    assert p.independent and p.absorbent and p.quasi_absorbent
    assert p.is_kernel and p.is_quasi_kernel


def test_set_predicates_rejects_foreign_vertices():
    with pytest.raises(InvalidInputError, match=r"^set \[7\] not in digraph$"):
        set_predicates(Digraph.cycle(3), {7})
    # the message names the first foreign ids; it does not copy the set
    with pytest.raises(InvalidInputError) as caught:
        set_predicates(Digraph.cycle(3), range(100_003))
    assert str(caught.value).startswith("set [3, 4, ")
    assert len(str(caught.value)) < 100


def test_kernel_and_quasi_kernel_helpers():
    c5 = Digraph.cycle(5)
    assert not is_kernel(c5, {0, 2})
    assert is_quasi_kernel(c5, {0, 2})
    assert is_kernel(Digraph.cycle(4), {1, 3})


@given(st.integers(min_value=2, max_value=6), st.data())
def test_absorbent_implies_quasi_absorbent(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    members = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    p = set_predicates(Digraph(range(n), arcs), members)
    if p.absorbent:
        assert p.quasi_absorbent
    if p.is_kernel:
        assert p.is_quasi_kernel


def test_union_adds_fresh_material():
    d = Digraph.cycle(3).union([3], [(0, 3), (3, 1)])
    assert d.n == 4 and d.has_arc(3, 1)
    assert d.has_arc(0, 1)
