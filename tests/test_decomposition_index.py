"""The decomposition's vertex-order index against the per-ear code it
replaced on the validation path.

EarDecomposition builds its index (order, ends, lengths) when it is made,
and validate_decomposition decides by C-level passes over that index,
walking the ears only to name a violation.  The per-ear code is kept here
verbatim as the reference: a checked Ear per ear at load, and the
stage-by-stage walk.  Every decomposition must load or be refused alike
(same exception class, same message) and validate alike (same verdict,
same violations in the same order)."""

import random
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import pytest

from earlab.digraph import Digraph, is_asymmetrical
from earlab.ears import (EarDecomposition, _ids, _part, generate_random_le,
                         validate_decomposition)
from earlab.errors import EarlabError, InvalidInputError, ParseError


# --- reference: the checked Ear, from_json and the stage walk ----------------

@dataclass(frozen=True)
class RefEar:
    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2:
            raise InvalidInputError("an ear needs at least one arc")
        if len(vs) == 2 and vs[0] == vs[1]:
            raise InvalidInputError("length-1 cycle ear would be a loop")
        interior = vs[1:-1]
        if len(set(interior)) != len(interior):
            raise InvalidInputError(f"repeated internal vertex in ear {vs}")
        if vs[0] in interior or vs[-1] in interior:
            raise InvalidInputError(f"endpoint reused internally in ear {vs}")

    @property
    def x0(self):
        return self.vertices[0]

    @property
    def xr(self):
        return self.vertices[-1]

    @property
    def internal(self):
        return self.vertices[1:-1]

    @property
    def arcs(self):
        return tuple(zip(self.vertices, self.vertices[1:]))


def ref_ids(value, what):
    if not (isinstance(value, (list, tuple))
            and set(map(type, value)) <= {int}):
        raise ParseError(f"bad {what} {value!r}: need a list of integer ids")
    return tuple(value)


def ref_from_json(doc):
    if not isinstance(doc, dict) or "base" not in doc:
        raise InvalidInputError("decomposition JSON needs a 'base' field")
    base_list = ref_ids(doc["base"], "'base'")
    if len(base_list) >= 2 and base_list[0] == base_list[-1]:
        base_list = base_list[:-1]
    if len(base_list) < 2:
        raise InvalidInputError("base cycle needs at least 2 vertices")
    base = RefEar(base_list + (base_list[0],))
    ears = doc.get("ears", [])
    if not isinstance(ears, (list, tuple)):
        raise ParseError("'ears' must be a list of vertex lists")
    return base, [RefEar(ref_ids(e, "ear")) for e in ears]


def ref_validate(d, base, ears, path_ears_only=False):
    bad = []
    for a in base.arcs:
        if a not in d.arcs:
            bad.append(f"stage 0: base arc {a} not in host")
    verts = set(base.vertices)
    arcs = set(base.arcs)
    for idx, ear in enumerate(ears):
        if ear.x0 not in verts or ear.xr not in verts:
            bad.append(f"stage {idx}: ear endpoints must lie in the stage digraph")
        elif not verts.isdisjoint(ear.internal):
            bad.append(f"stage {idx}: ear internal vertices must be new, "
                       f"{sorted(verts.intersection(ear.internal))} already in the stage")
        for a in ear.arcs:
            if a not in d.arcs:
                bad.append(f"stage {idx}: ear arc {a} not in host")
            if a in arcs:
                bad.append(f"stage {idx}: ear arc {a} already covered")
        if path_ears_only and ear.x0 == ear.xr:
            bad.append(f"stage {idx}: cycle ear not allowed in path-ears mode")
        verts.update(ear.vertices)
        arcs.update(ear.arcs)
    if verts != d.vertices:
        bad.append(f"final: vertices uncovered: {sorted(d.vertices - verts)}")
    if arcs != d.arcs:
        bad.append(f"final: arcs uncovered: {sorted(d.arcs - arcs)}")
    return not bad, bad


def ref_is_asymmetrical(d):
    return all((v, u) not in d.arcs for u, v in d.arcs)


# --- the comparison ----------------------------------------------------------

def outcomes(d, doc, path_ears_only=False):
    """(new, reference) outcome: the load's refusal, or the validation."""
    got = want = None
    try:
        e = EarDecomposition.from_json(doc)
    except EarlabError as exc:
        got = (type(exc), str(exc))
    try:
        base, ears = ref_from_json(doc)
    except EarlabError as exc:
        want = (type(exc), str(exc))
    if got is None and want is None:
        report = validate_decomposition(d, e, path_ears_only)
        got = (report.ok, report.violations)
        want = ref_validate(d, base, ears, path_ears_only)
        # built from the reference's checked parts, the index decides alike
        built = EarDecomposition(base.vertices, (x.vertices for x in ears))
        again = validate_decomposition(d, built, path_ears_only)
        assert (again.ok, again.violations) == want
    return got, want


def agree(d, doc, path_ears_only=False):
    got, want = outcomes(d, doc, path_ears_only)
    assert got == want, (doc, path_ears_only)
    assert is_asymmetrical(d) == ref_is_asymmetrical(d)
    return want


def glued(n, *ears):
    """C_n with the ears' vertices and arcs added."""
    d = Digraph.cycle(n)
    for ear in ears:
        d = d.union(ear, zip(ear, ear[1:]))
    return d


def case(n, *ears, base=None):
    return glued(n, *ears), {"base": base or list(range(n)),
                             "ears": [list(e) for e in ears]}


# Every invalid decomposition the other test modules build, as a host and a
# document, with the mode their caller validates in.
C4_ARCS = [(0, 1), (1, 2), (2, 3), (3, 0)]
EXISTING = {
    "arcs-missing": (Digraph.cycle(4), {"base": [0, 1, 2, 3], "ears": [[0, 9, 2]]}, False),
    "stale-interior": (Digraph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (1, 0)]),
                       {"base": [0, 1, 2], "ears": [[0, 3, 1], [1, 3, 0]]}, False),
    "fit-rule-per-stage": (Digraph(range(7), C4_ARCS + [(0, 4), (4, 1), (1, 5), (5, 6)]),
                           {"base": [0, 1, 2, 3], "ears": [[0, 4, 1], [0, 1, 2], [1, 5, 6]]},
                           False),
    "cycle-ear-path-mode": (Digraph(range(5), [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]),
                            {"base": [0, 1, 2], "ears": [[1, 3, 4, 1]]}, True),
    "base-arc-off-host": (Digraph.cycle(4), {"base": [0, 1, 3]}, False),
    "digon-base": (Digraph(range(3), [(0, 1), (1, 0), (0, 2), (2, 1)]),
                   {"base": [0, 1], "ears": [[0, 2, 1]]}, False),
    "kernel-cycle-ear": (*case(4, (0, 4, 5, 0)), True),
    "kernel-stale-interior": (*case(4, (0, 3, 2)), True),
    "kernel-separable": (Digraph(range(6), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4),
                                            (4, 0), (1, 5), (5, 3)]),
                         {"base": [0, 1, 2], "ears": [[0, 3, 4, 0], [1, 5, 3]]}, True),
    "kernel-length-1": (*case(4, (0, 2)), True),
    "kernel-endpoint-outside": (*case(4, (0, 4, 7)), True),
    "kernel-arc-in-stage": (*case(4, (0, 1, 2)), True),
    "kernel-not-strong": (Digraph.cycle(4), {"base": [0, 1, 2], "ears": [[2, 3, 0]]}, True),
    "oriented-interior-0": (*case(4, (2, 0, 1, 3)), False),
    "oriented-interior-1": (*case(4, (0, 4, 1, 2)), False),
    "oriented-end-9": (*case(4, (0, 5, 6, 9)), False),
    "oriented-start-9": (*case(4, (9, 5, 6, 0)), False),
    "cli-ear-off-host": (Digraph.cycle(4), {"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 2]]},
                         True),
    "cli-repeated-interior": (Digraph.cycle(5),
                              {"base": [0, 1, 2, 3, 4], "ears": [[0, 5, 6, 5, 2]]}, False),
    "one-vertex-ear": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[3]]}, False),
    "length-1-cycle": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[1, 1]]}, False),
    "repeated-interior": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[0, 4, 5, 4, 1]]},
                          False),
    "endpoint-inside": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[0, 4, 0, 1]]}, False),
    "json-no-base": (Digraph.cycle(3), {"ears": []}, False),
    "json-one-vertex-base": (Digraph.cycle(3), {"base": [0]}, False),
    "base-repeats": (Digraph.cycle(3), {"base": [0, 1, 1, 2]}, False),
    "base-end-inside": (Digraph.cycle(3), {"base": [0, 1, 0, 2]}, False),
    "base-not-ids": (Digraph.cycle(3), {"base": [0, 1.0, 2]}, False),
    "ears-not-list": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": {"0": [0, 3, 1]}},
                      False),
    "ear-not-ids": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[0, "3", 1]]}, False),
    "ear-bool-id": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [[0, True, 2]]}, False),
    "ear-not-list": (Digraph.cycle(3), {"base": [0, 1, 2], "ears": [5]}, False),
    "bad-ear-before-bad-type": (Digraph.cycle(3),
                                {"base": [0, 1, 2], "ears": [[0, 4, 4, 1], [0, "x"]]},
                                False),
    "bad-type-before-bad-ear": (Digraph.cycle(3),
                                {"base": [0, 1, 2], "ears": [[0, "x"], [0, 4, 4, 1]]},
                                False),
}


@pytest.mark.parametrize("key", EXISTING)
def test_existing_cases_load_and_validate_as_before(key):
    d, doc, path_ears_only = EXISTING[key]
    agree(d, doc, path_ears_only)
    agree(d, doc, not path_ears_only)


# --- seeded corruptions of generated decompositions --------------------------

def interior_ears(ears, rng, least=1):
    """A random index of an ear with at least least interior vertices."""
    picks = [i for i, e in enumerate(ears) if len(e) - 2 >= least]
    return rng.choice(picks) if picks else None


def corruptions(d, doc, rng):
    """(name, host, document) for each corruption that applies to doc."""
    base, ears = doc["base"], doc["ears"]
    n = d.n
    out = [("intact", d, doc), ("closed-base", d, {"base": base + base[:1], "ears": ears})]

    def with_ears(new):
        return {"base": base, "ears": new}

    i = interior_ears(ears, rng, 2)
    if i is not None:  # an interior repeated inside its own ear
        ear = list(ears[i])
        ear[2] = ear[1]
        out.append(("repeat-own-interior", d, with_ears(ears[:i] + [ear] + ears[i + 1:])))
    i = interior_ears(ears, rng)
    if i is not None and i > 0:  # an interior that an earlier part holds
        ear = list(ears[i])
        ear[1] = rng.choice(base + [v for e in ears[:i] for v in e[1:-1]])
        out.append(("repeat-earlier-vertex", d, with_ears(ears[:i] + [ear] + ears[i + 1:])))
    i = interior_ears(ears, rng)
    if i is not None:  # an end inside its own block, then past it
        ear = list(ears[i])
        for name, v in (("end-in-own-block", ear[1]),
                        ("end-past-block", next((w for e in ears[i + 1:]
                                                 for w in e[1:-1]), n + 1))):
            moved = [v] + ear[1:] if rng.random() < 0.5 else ear[:-1] + [v]
            out.append((name, d, with_ears(ears[:i] + [moved] + ears[i + 1:])))
    if len(ears) >= 2:
        j = rng.randrange(len(ears) - 1)
        swapped = ears[:j] + [ears[j + 1], ears[j]] + ears[j + 2:]
        out.append(("ears-swapped", d, with_ears(swapped)))
    arcs = sorted(d.arcs)
    dropped = rng.choice(arcs)
    out.append(("arc-dropped", Digraph(range(n), [a for a in arcs if a != dropped]), doc))
    free = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in d.arcs]
    if free:
        out.append(("arc-added", Digraph(range(n), arcs + [rng.choice(free)]), doc))
    a = rng.randrange(n)
    out.append(("loop-ear", d, with_ears(ears + [[a, a]])))
    i = interior_ears(ears, rng)
    if i is not None:
        ear = list(ears[i])
        ear[rng.randrange(len(ear))] = n + rng.randrange(3)
        out.append(("id-at-or-above-n", d, with_ears(ears[:i] + [ear] + ears[i + 1:])))
    return out


def test_seeded_corruptions_load_and_validate_as_before():
    rng = random.Random(23)
    verdicts = set()
    for seed in range(40):
        shortest = rng.randint(1, 2)  # short bases leave no room for length 1
        d, e = generate_random_le(base_length=rng.randint(7 - 2 * shortest, 6),
                                  ear_count=rng.randint(1, 8),
                                  min_ear_length=shortest, max_ear_length=4,
                                  cycle_ear_probability=0.3, seed=seed)
        for name, host, doc in corruptions(d, e.to_json(), rng):
            for path_ears_only in (False, True):
                got = agree(host, doc, path_ears_only)
                verdicts.add((name, path_ears_only, got[0] is True))
    names = {name for name, _, _ in verdicts}
    assert len(names) == 11, names
    # both base forms load and validate; cycle ears fail in path-ears mode;
    # every corruption but the swap is refused or rejected at least once
    assert {("intact", False, True), ("closed-base", False, True),
            ("intact", True, False)} <= verdicts
    for name in names - {"intact", "closed-base", "ears-swapped"}:
        assert (name, False, False) in verdicts, name


# --- the constructor's C-level part checks against the per-part loop ---------

def ref_parts(base, ears):
    """The parts as the per-part loop accepts them: the base's shape, its
    cycle test, then each ear's shape, drawn one at a time."""
    cycle = _part(base)
    if cycle[0] != cycle[-1]:
        raise InvalidInputError("base must be a cycle ear (x_0 = x_r)")
    return (cycle,) + tuple(map(_part, ears))


def ref_parts_from_json(doc):
    """from_json with each ear's ids checked right before its shape."""
    if not isinstance(doc, dict) or "base" not in doc:
        raise InvalidInputError("decomposition JSON needs a 'base' field")
    base = _ids(doc["base"], "'base'")
    if len(base) >= 2 and base[0] == base[-1]:
        base = base[:-1]
    if len(base) < 2:
        raise InvalidInputError("base cycle needs at least 2 vertices")
    ears = doc.get("ears", [])
    if not isinstance(ears, (list, tuple)):
        _part(base + base[:1])
        raise ParseError("'ears' must be a list of vertex lists")
    return ref_parts(base + base[:1], map(_ids, ears, repeat("ear")))


def loaded(make, *args):
    """The index and parts make builds, or its refusal."""
    try:
        got = make(*args)
    except EarlabError as exc:
        return type(exc), str(exc)
    if isinstance(got, EarDecomposition):
        return (got.order, got.ends, got.lengths,
                (got.base.vertices,) + tuple(e.vertices for e in got.ears))
    inner = [p[1:-1] for p in got[1:]]
    return (got[0][:-1] + tuple(chain.from_iterable(inner)),
            tuple(accumulate(map(len, inner), initial=len(got[0]) - 1)),
            tuple(len(p) + 1 for p in inner), got)


def mutant(kind, ear, rng):
    """ear with one offence of the given kind, or None if it has no room."""
    ear, inner = list(ear), len(ear) - 2
    if kind == "too-short":
        return ear[:rng.randint(0, 1)]
    if kind == "loop":
        return [ear[0], ear[0]]
    if kind == "repeat-interior" and inner >= 2:
        i, j = rng.sample(range(1, inner + 1), 2)
        ear[i] = ear[j]
        return ear
    if kind == "end-inside" and inner >= 1:
        ear[rng.randint(1, inner)] = rng.choice((ear[0], ear[-1]))
        return ear
    if kind in ("bool-id", "float-id", "str-id"):
        i = rng.randrange(len(ear))
        ear[i] = {"bool-id": bool, "float-id": float, "str-id": str}[kind](ear[i])
        return ear
    if kind == "not-list":
        return rng.choice((5, "0 1", None, {"0": 1}, (x for x in ear)))
    return None


KINDS = ("too-short", "loop", "repeat-interior", "end-inside", "bool-id",
         "float-id", "str-id", "not-list")


def part_mutants(doc, rng):
    """(name, document) for each mutant that applies to doc: one offender
    in an ear or the base, one in each, and two in two ears, in either
    order."""
    base, ears = doc["base"], doc["ears"]
    out = [("intact", doc)]
    for kind in KINDS:
        i = rng.randrange(len(ears))
        bad = mutant(kind, ears[i], rng)
        if bad is not None:
            out.append((kind, {"base": base, "ears": ears[:i] + [bad] + ears[i + 1:]}))
        bad = mutant(kind, base + base[:1], rng)
        if bad is not None and kind != "not-list":
            out.append(("base-" + kind, {"base": bad, "ears": ears}))
    bad = mutant(rng.choice(("repeat-interior", "end-inside")), base + base[:1], rng)
    if bad is not None:  # a bad base shape beside a bad ear id: the base first
        i = rng.randrange(len(ears))
        bad_ids = mutant(rng.choice(("bool-id", "str-id")), ears[i], rng)
        out.append(("base-and-ear", {"base": bad, "ears": ears[:i] + [bad_ids] + ears[i + 1:]}))
    if len(ears) >= 2:
        i, j = sorted(rng.sample(range(len(ears)), 2))
        one, two = rng.sample(KINDS, 2)
        for first, second in ((one, two), (two, one)):
            a, b = mutant(first, ears[i], rng), mutant(second, ears[j], rng)
            if a is not None and b is not None:
                twice = ears[:i] + [a] + ears[i + 1:j] + [b] + ears[j + 1:]
                out.append(("two-offenders", {"base": base, "ears": twice}))
    return out


def test_part_checks_accept_and_refuse_as_the_per_part_loop():
    rng = random.Random(34)
    refusals, names = [], set()
    for seed in range(60):
        shortest = rng.randint(1, 2)  # short bases leave no room for length 1
        _, e = generate_random_le(base_length=rng.randint(6 - 2 * shortest, 6),
                                  ear_count=rng.randint(1, 8),
                                  min_ear_length=shortest, max_ear_length=5,
                                  cycle_ear_probability=0.3, seed=seed)
        for name, doc in part_mutants(e.to_json(), rng):
            names.add(name)
            outcomes = [loaded(EarDecomposition.from_json, doc)]
            assert outcomes[0] == loaded(ref_parts_from_json, doc), (name, doc)
            # as vertex sequences, past the id checks, with the base open too
            base, ears = doc["base"], doc["ears"]
            if all(isinstance(x, list) and set(map(type, x)) <= {int}
                   for x in [base] + ears):
                for cycle in (base + base[:1], base):
                    outcomes.append(loaded(EarDecomposition, cycle, ears))
                    assert outcomes[-1] == loaded(ref_parts, cycle, ears), \
                        (name, cycle, ears)
            refusals += [o[1] for o in outcomes if len(o) == 2]  # (class, text)
    assert len(names) == 3 + 2 * len(KINDS) - 1, names
    for text in ("an ear needs at least one arc", "length-1 cycle ear would be a loop",
                 "repeated internal vertex in ear", "endpoint reused internally in ear",
                 "bad ear", "bad 'base'", "base must be a cycle ear",
                 "base cycle needs at least 2 vertices"):
        assert any(map(str.startswith, refusals, repeat(text))), text
