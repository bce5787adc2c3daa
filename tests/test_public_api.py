import pytest

import earlab
from earlab.coloring import VertexMapping
from earlab.constructions import cycle_quasi_kernel_indices
from earlab.digraph import (Digraph, is_nonseparable, neighborhoods,
                            serialize_digraph)
from earlab.ears import Ear, EarDecomposition
from earlab.errors import InvalidInputError
from earlab.oriented import extend_homomorphism
from earlab.tournaments import Tournament, tournament_reps


def test_every_export_resolves_once():
    names = earlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(earlab, name)]
    assert missing == []
    # removed tables and test-only helpers stay out of the package
    for gone in ("extend_obstruction", "restrict_obstruction",
                 "le2_quasi_kernel_obstruction", "ExtensionCandidate",
                 "find_quasi_kernel_obstruction", "ExtensionReport",
                 "serialize_edge_list", "is_homomorphism", "KernelTrace",
                 "StageEntry", "CensusResult", "Ear", "TightInstance",
                 "find_tight_le3_instance", "gi_lower_bound_check",
                 "cycle_homomorphism", "automorphism_count"):
        assert gone not in names
        assert not hasattr(earlab, gone)
    assert not hasattr(earlab.Tournament, "relabel")
    # a part is its vertex tuple and holds nothing else; the decomposition's
    # constructor checks it
    for gone in ("x0", "xr", "length", "is_cycle", "internal", "arcs",
                 "__post_init__"):
        assert not hasattr(Ear, gone)
    assert not hasattr(EarDecomposition((0, 1, 0)).base, "__dict__")
    # constructions and oriented colorings certify without an oracle: none
    # is bound in either module
    for module in (earlab.constructions, earlab.oriented):
        assert not [name for name, value in vars(module).items()
                    if value is earlab.oracles
                    or getattr(value, "__module__", None) == "earlab.oracles"]


def _homomorphism_into_a_cycle():
    """extend_homomorphism on C4 plus a 3-ear, phi aimed at a digraph."""
    p = (0, 4, 5, 2)
    d = Digraph.cycle(4).union(p, zip(p, p[1:]))
    phi = VertexMapping({0: 0, 1: 1, 2: 2, 3: 0}, Digraph.cycle(3), "homomorphism")
    return extend_homomorphism(d, EarDecomposition((0, 1, 2, 3, 0), [p]), phi)


# (build, exception class or None for a result, message or the result)
EDGE_CASES = {
    "cycle-of-one": (lambda: Digraph.cycle(1), InvalidInputError,
                     "a cycle needs at least 2 vertices"),
    "serialize-sparse": (lambda: serialize_digraph(Digraph({0, 2}, [(0, 2)])),
                         InvalidInputError,
                         "only dense digraphs serialize; relabel first"),
    "neighborhoods-foreign": (lambda: neighborhoods(Digraph.cycle(3), 7),
                              InvalidInputError, "vertex 7 not in digraph"),
    "quasi-kernel-cycle-of-one": (lambda: cycle_quasi_kernel_indices(1),
                                  InvalidInputError, "cycle length must be >= 2"),
    "reps-of-order-0": (lambda: tournament_reps(0), InvalidInputError,
                        "order must be >= 1"),
    "tournament-of-order-minus-1": (lambda: Tournament(-1, 0), InvalidInputError,
                                    "order must be >= 0"),
    "tournament-code-not-integer": (lambda: Tournament(3, 1.5), InvalidInputError,
                                    "tournament code must be an integer, got 1.5"),
    "tournament-order-str": (lambda: Tournament("a", 0), InvalidInputError,
                             "order must be an integer, got 'a'"),
    "tournament-order-float": (lambda: Tournament(2.5, 0), InvalidInputError,
                               "order must be an integer, got 2.5"),
    "tournament-order-bool": (lambda: Tournament(True, 0), InvalidInputError,
                              "order must be an integer, got True"),
    "tournament-arc-off-range": (
        lambda: Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0), (0, 5), (1, 1)]),
        InvalidInputError, "bad arc entry (0, 5): need two distinct ids below 3"),
    "tournament-arc-loop": (
        lambda: Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0), (1, 1)]),
        InvalidInputError, "bad arc entry (1, 1): need two distinct ids below 3"),
    "tournament-arc-not-integer": (
        lambda: Tournament.from_arcs(2, [("a" * 50, "b")]), InvalidInputError,
        "bad arc entry ('" + "a" * 38 + ": need two distinct ids below 2"),
    "homomorphism-into-digraph": (_homomorphism_into_a_cycle, InvalidInputError,
                                  "mapping target must be a tournament"),
    "nonseparable-empty": (lambda: is_nonseparable(Digraph((), ())), None, True),
}


@pytest.mark.parametrize("key", EDGE_CASES)
def test_refusals_and_edge_cases(key):
    build, error, expected = EDGE_CASES[key]
    if error is None:
        assert build() is expected
        return
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == expected
