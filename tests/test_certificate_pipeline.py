"""The linear certificate pipeline against whole-stage reference checks.

The builders check each stage ear-locally; these tests re-check every stage
the slow way (materialize e.stage(j), run set_predicates, verify_homomorphism
and is_strong on it) and demand the same verdict and the same first failing
stage, on sound certificates and on corrupted ones.
"""

import json
import random
from itertools import product

import pytest

import earlab
import earlab.constructions as constructions_mod
import earlab.oriented as oriented_mod
from earlab.cli import main
from earlab.coloring import VertexMapping, verify_homomorphism
from earlab.constructions import (longest_path_transversal,
                                  quasi_kernel_failing_stage, small_quasi_kernel)
from earlab.digraph import Digraph, is_strong, serialize_digraph, set_predicates
from earlab.ears import (EarDecomposition, find_ear_decomposition,
                         generate_random_le, validate_decomposition)
from earlab.errors import InvalidInputError, VerificationError
from earlab.kernels import extend_kernel, restrict_kernel
from earlab.oriented import (build_G, extend_homomorphism,
                             homomorphism_failing_stage, oriented_coloring_le3)


def reference_qk_stage(e, members):
    for j in range(e.stage_count):
        stage = e.stage(j)
        if not set_predicates(stage, members & stage.vertices).is_quasi_kernel:
            return j
    return None


def reference_hom_stage(e, m):
    for j in range(e.stage_count):
        stage = e.stage(j)
        part = VertexMapping({v: m.assignment[v] for v in stage.vertices},
                             m.target, m.kind)
        try:
            verify_homomorphism(stage, part)
        except VerificationError:
            return j
    return None


def le3_instances(count=30):
    for seed in range(count):
        yield generate_random_le(
            base_length=3 + seed % 4, ear_count=4 + seed % 10,
            min_ear_length=3, max_ear_length=7,
            cycle_ear_probability=0.2, seed=seed)


def test_sound_certificates_pass_every_stage():
    for d, e in le3_instances():
        assert all(map(is_strong, map(e.stage, range(e.stage_count))))
        q = set(small_quasi_kernel(d, e).members)
        assert quasi_kernel_failing_stage(e, q) is None
        assert reference_qk_stage(e, q) is None
        m = oriented_coloring_le3(d, e)
        assert homomorphism_failing_stage(e, m) is None
        assert reference_hom_stage(e, m) is None


def test_dropped_member_rejected_at_reference_stage():
    rejected = 0
    for d, e in le3_instances():
        q = set(small_quasi_kernel(d, e).members)
        for v in sorted(q):
            bad = q - {v}
            want = reference_qk_stage(e, bad)
            assert quasi_kernel_failing_stage(e, bad) == want
            rejected += want is not None
    assert rejected > 100


def test_added_adjacent_member_rejected_at_reference_stage():
    checked = 0
    for d, e in le3_instances():
        q = set(small_quasi_kernel(d, e).members)
        for v in sorted(q):
            for w in sorted({*d.out_neighbors(v), *d.in_neighbors(v)}):
                bad = q | {w}
                want = reference_qk_stage(e, bad)
                assert want is not None
                assert quasi_kernel_failing_stage(e, bad) == want
                checked += 1
    assert checked > 100


def test_flipped_image_rejected_at_reference_stage():
    rejected = 0
    for d, e in le3_instances(20):
        m = oriented_coloring_le3(d, e)
        for v in sorted(d.vertices):
            for image in range(6):
                if image == m.assignment[v]:
                    continue
                bad = VertexMapping({**m.assignment, v: image}, m.target, m.kind)
                want = reference_hom_stage(e, bad)
                assert homomorphism_failing_stage(e, bad) == want
                rejected += want is not None
    assert rejected > 1000


def test_builders_report_the_reference_stage(monkeypatch):
    d, e = generate_random_le(base_length=5, ear_count=12, min_ear_length=3,
                              max_ear_length=6, seed=4)
    victim = e.ears[7].vertices  # the ear whose interior gets a corrupted certificate
    real_indices = constructions_mod.quasi_kernel_ear_indices
    seen = []

    def dropping(x0_in, xr_in, r):
        seen.append(r)
        idx = real_indices(x0_in, xr_in, r)
        return idx[:-1] if len(seen) == 8 else idx

    monkeypatch.setattr(constructions_mod, "quasi_kernel_ear_indices", dropping)
    with pytest.raises(VerificationError) as info:
        small_quasi_kernel(d, e)
    text = str(info.value)
    members = set(json.loads(text[text.index("["):text.index("]") + 1]))
    assert text.endswith(f"at stage {reference_qk_stage(e, members)}")

    real_map = oriented_mod._map_ear
    images = {}

    def flipping(t, assignment, p):
        real_map(t, assignment, p)
        if p is victim:
            v = p[1]
            assignment[v] = (assignment[v] + 1) % 6
        images.update(assignment)

    monkeypatch.setattr(oriented_mod, "_map_ear", flipping)
    with pytest.raises(VerificationError) as info:
        oriented_coloring_le3(d, e)
    bad = VertexMapping(images, oriented_mod.tournament_T(), "oriented")
    assert str(info.value).endswith(f"stage {reference_hom_stage(e, bad)}")


def test_extension_rejects_a_wrong_ear_image(monkeypatch):
    d, e = generate_random_le(base_length=5, ear_count=12, min_ear_length=3,
                              max_ear_length=6, seed=4)
    m = oriented_coloring_le3(d, e)
    stage, ear = e.stage(7), e.ears[7]
    glued, upto = e.stage(8), EarDecomposition(e.base.vertices,
                                               [p.vertices for p in e.ears[:8]])
    phi = VertexMapping({v: m.assignment[v] for v in stage.vertices},
                        m.target, "homomorphism")
    calls = count_stage_work(monkeypatch)
    out = extend_homomorphism(glued, upto, phi)
    assert out.assignment == {v: m.assignment[v] for v in glued.vertices}
    # phi is checked along the parts, the ear in place
    assert calls["verify_homomorphism"] == 0

    real_map = oriented_mod._map_ear
    rejected = 0
    for v, shift in product(ear.vertices[1:-1], range(1, 6)):
        bad = VertexMapping({**out.assignment, v: (out.assignment[v] + shift) % 6},
                            m.target, "homomorphism")
        try:
            verify_homomorphism(glued, bad)
            sound = True
        except VerificationError:
            sound = False

        def flipping(t, assignment, p, v=v, shift=shift):
            real_map(t, assignment, p)
            assignment[v] = (assignment[v] + shift) % 6

        monkeypatch.setattr(oriented_mod, "_map_ear", flipping)
        if sound:
            assert extend_homomorphism(glued, upto, phi).assignment == bad.assignment
        else:
            with pytest.raises(VerificationError, match="ear arc .* maps to non-arc"):
                extend_homomorphism(glued, upto, phi)
            rejected += 1
    assert rejected > 0


def random_strong_digraph(rng):
    """Dense or sparse, with or without digons."""
    if rng.random() < 0.5:
        n = rng.randint(2, 12)
        p = rng.choice((0.05, 0.2, 0.5, 0.9, 1.0))
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < p}
        if not is_strong(Digraph(range(n), arcs)):
            order = rng.sample(range(n), n)
            arcs |= {(order[i], order[(i + 1) % n]) for i in range(n)}
        return Digraph(range(n), arcs)
    while True:  # length-1 ears can run out of room; draw again
        try:
            d, _ = generate_random_le(base_length=rng.randint(2, 5),
                                      ear_count=rng.randint(0, 8),
                                      min_ear_length=1,
                                      max_ear_length=rng.randint(1, 4),
                                      cycle_ear_probability=0.3,
                                      seed=rng.randrange(2 ** 32))
            return d
        except InvalidInputError:
            pass


def test_find_ear_decomposition_on_random_strong_digraphs():
    rng = random.Random(2024)
    digons = 0
    for trial in range(1200):
        d = random_strong_digraph(rng)
        e = find_ear_decomposition(d)
        assert validate_decomposition(d, e).ok
        assert len(e.ears) == len(d.arcs) - d.n
        assert find_ear_decomposition(d).to_json() == e.to_json()
        if trial < 200:
            assert all(map(is_strong, map(e.stage, range(e.stage_count))))
        digons += any((v, u) in d.arcs for u, v in d.arcs)
    assert digons > 300


@pytest.mark.parametrize("gen", [2, 3])
def test_find_ear_decomposition_on_blowup_family(gen):
    d = build_G(gen)
    e = find_ear_decomposition(d)
    assert validate_decomposition(d, e).ok
    assert find_ear_decomposition(d).to_json() == e.to_json()


WHOLE_STAGE_CHECKS = ("is_strong", "is_nonseparable", "set_predicates",
                      "verify_homomorphism")


def count_stage_work(monkeypatch) -> dict:
    """Count calls of the whole-digraph checks, through every earlab module
    that imports them, of EarDecomposition.stage and of Digraph.__init__."""
    calls = dict.fromkeys(WHOLE_STAGE_CHECKS + ("stage", "Digraph"), 0)

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for module in vars(earlab).values():
        if getattr(module, "__name__", "").startswith("earlab."):
            for name in WHOLE_STAGE_CHECKS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counting(name, getattr(module, name)))
    monkeypatch.setattr(EarDecomposition, "stage",
                        counting("stage", EarDecomposition.stage))
    monkeypatch.setattr(Digraph, "__init__",
                        counting("Digraph", Digraph.__init__))
    return calls


def test_stage_work_is_bounded_on_400_ears(monkeypatch):
    d, e = generate_random_le(base_length=5, ear_count=400, min_ear_length=3,
                              max_ear_length=6, cycle_ear_probability=0.15,
                              seed=1)
    calls = count_stage_work(monkeypatch)
    assert validate_decomposition(d, e).ok
    assert calls["is_strong"] == 0
    for build in (small_quasi_kernel, oriented_coloring_le3,
                  longest_path_transversal):
        fresh = Digraph(d.vertices, d.arcs)
        calls.update(dict.fromkeys(calls, 0))
        build(fresh, e)
        assert calls["is_strong"] == 0 and calls["stage"] <= 1
        # the ear-local pass is the only check: no whole-digraph repeat
        assert calls["set_predicates"] == calls["verify_homomorphism"] == 0
        assert not {"_out", "_in"} & set(vars(fresh))


def test_ear_extensions_do_no_stage_work(monkeypatch):
    # C4 plus 400 path ears from 0 to 2, of lengths 2 and 4: each stage
    # has the kernel {0, 2} plus the middle of every length-4 ear
    ears, nxt = [], 4
    for k in range(400):
        ears.append((0, *range(nxt, nxt + 1 + 2 * (k % 2)), 2))
        nxt += 1 + 2 * (k % 2)
    base = (0, 1, 2, 3, 0)
    d = Digraph(range(nxt), [a for part in (base, *ears)
                             for a in zip(part, part[1:])])
    e = EarDecomposition(base, ears)
    middles = {ear[2] for ear in ears if len(ear) == 5}
    glued_kernel = {0, 2} | middles
    stage_kernel = glued_kernel - set(ears[-1][1:-1])
    # an LE_3 instance with cycle ears for the homomorphism
    h, f = generate_random_le(base_length=5, ear_count=400, min_ear_length=3,
                              max_ear_length=6, cycle_ear_probability=0.15,
                              seed=1)
    m = oriented_coloring_le3(h, f)
    phi = VertexMapping({v: m.assignment[v]
                         for v in h.vertices - set(f.ears[-1].vertices[1:-1])},
                        m.target, "homomorphism")
    calls = count_stage_work(monkeypatch)
    runs = [(extend_kernel, d, e, stage_kernel, glued_kernel),
            (restrict_kernel, d, e, glued_kernel, stage_kernel),
            (extend_homomorphism, h, f, phi, m.assignment)]
    for op, g, dec, given, expected in runs:
        calls.update(dict.fromkeys(calls, 0))
        out = op(g, dec, given)
        assert (out.assignment if op is extend_homomorphism
                else set(out.members)) == expected
        assert calls == dict.fromkeys(calls, 0), op.__name__


def test_ten_thousand_vertex_smoke(tmp_path, capsys):
    d, e = generate_random_le(base_length=5, ear_count=2900, min_ear_length=3,
                              max_ear_length=6, cycle_ear_probability=0.15,
                              seed=5)
    assert d.n >= 10_000
    graph = tmp_path / "big.json"
    graph.write_text(json.dumps(serialize_digraph(d)))
    dec = tmp_path / "big.dec.json"
    dec.write_text(json.dumps(e.to_json()))
    assert main(["decompose", str(graph)]) == 0
    found = json.loads(capsys.readouterr().out)["payload"]["decomposition"]
    assert validate_decomposition(d, EarDecomposition.from_json(found)).ok
    for command in ("seymour", "quasi-kernel", "color", "oriented"):
        assert main([command, str(graph), "--decomposition", str(dec)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
