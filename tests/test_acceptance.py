"""Acceptance gate: one test per release criterion, one printed line each.

Every criterion re-derives its own evidence from scratch (seeded generators
plus exhaustive oracles); nothing is trusted from the constructive code
without an independent check.
"""

import time
from itertools import permutations, product

from earlab.constructions import (longest_path_transversal,
                                  small_quasi_kernel, seymour_vertex)
from earlab.coloring import proper_3_coloring, verify_proper
from earlab.digraph import (Digraph, is_asymmetrical, is_kernel,
                            is_nonseparable, is_quasi_kernel, is_strong,
                            neighborhoods, set_predicates)
from earlab.ears import EarDecomposition, generate_random_le
from earlab.kernels import (extend_kernel, restrict_condition,
                            restrict_kernel, trace_kernels)
from earlab.constructions import CertifiedSet
from earlab.coloring import verify_homomorphism
from earlab.oracles import (chromatic_oracles, kernel_oracle,
                            longest_path_oracle, quasi_kernel_oracle)
from earlab.oriented import (REFERENCE_WALKS, build_G,
                             find_tight_le3_instance, gi_lower_bound_check,
                             oriented_coloring_le3, tournament_T,
                             uniqueness_census, validate_reference_walks)
from earlab.tournaments import find_homomorphism


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_unique_walk_tournament():
    started = time.perf_counter()
    census = uniqueness_census()
    elapsed = time.perf_counter() - started
    ok = (census["labeled_count"] == 240 and census["iso_class_count"] == 1
          and census["witness_isomorphic_to_reference"] and elapsed < 10.0)
    _report(1, ok, f"census of 32768 codes: {census['labeled_count']} labeled, "
                   f"{census['iso_class_count']} class, isomorphic to the pinned "
                   f"tournament, {elapsed:.1f}s")


def test_criterion_02_reference_walk_fidelity():
    ok = validate_reference_walks() and len(REFERENCE_WALKS) == 30
    _report(2, ok, "all 90 reference walks validate arc-by-arc")


def test_criterion_03_oriented_coloring_le3():
    worst = 0.0
    passed = 0
    for seed in range(200):
        d, e = generate_random_le(base_length=3 + seed % 8,
                                  ear_count=2 + seed % 7,
                                  min_ear_length=3, max_ear_length=7,
                                  cycle_ear_probability=0.2 if seed % 4 == 0 else 0.0,
                                  seed=seed)
        assert d.n <= 60
        started = time.perf_counter()
        mapping = oriented_coloring_le3(d, e)
        worst = max(worst, time.perf_counter() - started)
        verify_homomorphism(d, mapping)
        assert mapping.target == tournament_T()
        passed += 1
    ok = passed == 200 and worst < 1.0
    _report(3, ok, f"{passed}/200 seeded instances (n <= 60) map into the "
                   f"order-6 tournament, worst {worst * 1000:.0f}ms")


def test_criterion_04_tightness_of_six():
    started = time.perf_counter()
    inst = find_tight_le3_instance()
    # independent re-verification: all twelve order-5 tournaments fail
    from earlab.tournaments import tournament_reps
    below = all(find_homomorphism(inst.digraph, t) is None
                for t in tournament_reps(5))
    verify_homomorphism(inst.digraph, inst.mapping)
    elapsed = time.perf_counter() - started
    ok = (inst.digraph.n == 11 and below
          and inst.below_report.value is None and elapsed < 300.0)
    _report(4, ok, f"11-vertex instance (triangle + four length-3 ears) with "
                   f"no order-5 homomorphism, order-6 verified, {elapsed:.1f}s")


def test_criterion_05_small_quasi_kernels():
    passed = cross_checked = 0
    for seed in range(200):
        d, e = generate_random_le(base_length=3 + seed % 6,
                                  ear_count=1 + seed % 4,
                                  min_ear_length=3, max_ear_length=6,
                                  seed=seed)
        q = small_quasi_kernel(d, e)
        p = set_predicates(d, set(q.members))
        assert p.independent and p.quasi_absorbent
        assert 2 * len(q.members) <= d.n
        if d.n <= 14:
            every = quasi_kernel_oracle(d, enumerate_all=True)
            assert q.members in every.details["all_quasi_kernels"]
            cross_checked += 1
        passed += 1
    ok = passed == 200 and cross_checked > 0
    _report(5, ok, f"{passed}/200 seeded instances yield small quasi-kernels, "
                   f"{cross_checked} oracle cross-checks at n <= 14")


def test_criterion_06_le2_obstruction_exists():
    # q of C_b is kept only if no q or q + v is a quasi-kernel of C_b + ear
    def scan():
        for b in range(3, 8):
            cycle = Digraph.cycle(b)
            every = quasi_kernel_oracle(cycle, enumerate_all=True)
            for x0, xr in permutations(range(b), 2):
                glued = cycle.union([b], [(x0, b), (b, xr)])
                for q in map(frozenset, every.details["all_quasi_kernels"]):
                    tries = {q} | {q | {v} for v in (x0, b, xr)}
                    if not any(is_quasi_kernel(glued, t) for t in tries):
                        yield cycle, glued, (x0, b, xr), q, tries
    found = next(scan(), None)
    ok = found is not None
    detail = "no obstruction instance found"
    if ok:
        cycle, glued, ear, q, tries = found
        ok = (glued.n <= 8 and is_quasi_kernel(cycle, q)
              and (cycle.n, ear, set(q), len(tries)) == (3, (0, 3, 1), {0}, 3))
        detail = (f"n={glued.n} instance where no extension of quasi-kernel "
                  f"{set(q)} survives the length-2 ear {ear}")
    _report(6, ok, detail)


def test_criterion_07_seymour_vertices():
    passed = 0
    for seed in range(500):
        d, e = generate_random_le(base_length=3 + seed % 6,
                                  ear_count=1 + seed % 5,
                                  min_ear_length=2, max_ear_length=6,
                                  seed=seed)
        assert is_asymmetrical(d)
        v, report = seymour_vertex(d, e)
        fresh = neighborhoods(d, v)
        assert fresh.first_out == report.first_out
        assert fresh.second_out == report.second_out
        assert report.second_out_degree >= report.out_degree
        passed += 1
    _report(7, passed == 500,
            f"{passed}/500 seeded asymmetrical instances have a verified "
            f"second-neighborhood vertex")


def test_criterion_08_longest_path_transversals():
    passed = 0
    for seed in range(150):
        d, e = generate_random_le(base_length=3 + seed % 4,
                                  ear_count=1 + seed % 3,
                                  min_ear_length=2, max_ear_length=3,
                                  seed=seed)
        assert d.n <= 12
        s = longest_path_transversal(d, e)
        assert set_predicates(d, set(s.members)).independent
        members = set(s.members)
        paths = longest_path_oracle(d, enumerate_all=True).details["all_longest"]
        for path in paths:
            assert members & set(path)
        passed += 1
    _report(8, passed == 150,
            f"{passed}/150 seeded instances (n <= 12): transversal meets "
            f"every maximum path")


def test_criterion_09_kernel_lemma_sweep():
    started = time.perf_counter()
    # each host with the base and ears it is the last stage of
    hosts = {Digraph.cycle(n): ((*range(n), 0), ()) for n in range(2, 9)}
    for seed in range(30):
        d, e = generate_random_le(base_length=3 + seed % 4,
                                  ear_count=1 + seed % 2,
                                  min_ear_length=2, max_ear_length=3,
                                  seed=seed)
        for j, stage in enumerate(map(e.stage, range(e.stage_count))):
            # a path-ears LE_2 stage is strong and nonseparable
            assert is_strong(stage) and is_nonseparable(stage)
            if stage.n <= 8:
                hosts.setdefault(stage, (e.base.vertices,
                                         [p.vertices for p in e.ears[:j]]))
    extends = recoveries = counterexamples = 0
    for h in sorted(hosts, key=lambda g: (g.n, sorted(g.arcs))):
        kernels = kernel_oracle(h, enumerate_all=True).details["all_kernels"]
        base, ears = hosts[h]
        for r in range(2, 6):
            for x0, xr in product(sorted(h.vertices), repeat=2):
                if x0 == xr:
                    continue
                p = (x0, *range(h.n, h.n + r - 1), xr)
                glued = h.union(p, zip(p, p[1:]))
                dec = EarDecomposition(base, (*ears, p))
                for members in kernels:
                    result = extend_kernel(glued, dec, members)
                    if not isinstance(result, CertifiedSet):
                        continue
                    extends += 1
                    if not is_kernel(glued, set(result.members)):
                        counterexamples += 1
                        continue
                    back = restrict_kernel(glued, dec, result.members)
                    in0 = x0 in set(result.members)
                    inr = xr in set(result.members)
                    if restrict_condition(in0, inr, r) is not None:
                        if (not isinstance(back, CertifiedSet)
                                or not is_kernel(h, set(back.members))):
                            counterexamples += 1
                        else:
                            recoveries += 1
    elapsed = time.perf_counter() - started
    ok = counterexamples == 0 and extends > 1000 and elapsed < 120.0
    _report(9, ok, f"{len(hosts)} hosts, {extends} extensions verified, "
                   f"{recoveries} pull-backs recovered, "
                   f"{counterexamples} counterexamples, {elapsed:.1f}s")


def test_criterion_10_dichotomy_traces():
    branches = {"all_stages_have_kernels": 0, "all_stages_lack_kernels": 0}
    passed = 0
    for seed in range(120):
        d, e = generate_random_le(base_length=3 + seed % 6,
                                  ear_count=1 + seed % 3,
                                  min_ear_length=2, max_ear_length=4,
                                  seed=seed)
        if d.n > 20:
            continue
        trace = trace_kernels(d, e)
        named = trace["dichotomy"]
        assert (named in ("all_stages_have_kernels", "all_stages_lack_kernels")
                or named.startswith("flip_at_stage_"))
        base_even = len(e.base.vertices) % 2 == 1
        if named == "all_stages_have_kernels":
            assert base_even and trace["base_parity"] == "even"
            branches[named] += 1
        elif named == "all_stages_lack_kernels":
            assert not base_even and trace["base_parity"] == "odd"
            branches[named] += 1
        assert trace["pattern_check"]["holds"]
        passed += 1
    ok = passed > 0 and all(branches.values())
    _report(10, ok, f"{passed} traces each classify into exactly one branch; "
                    f"parity laws hold on {sum(branches.values())} pure traces")


def test_criterion_11_three_colorings():
    passed = confirmed = 0
    for seed in range(500):
        d, e = generate_random_le(base_length=3 + seed % 6,
                                  ear_count=1 + seed % 4,
                                  min_ear_length=2, max_ear_length=5,
                                  seed=seed)
        mapping = proper_3_coloring(d, e)
        verify_proper(d, mapping)
        assert mapping.colors_used() <= 3
        if d.n <= 10:
            report = chromatic_oracles(d)
            assert report.value in (2, 3)
            assert report.details["dichromatic"] in (2, 3)
            confirmed += 1
        passed += 1
    ok = passed == 500 and confirmed > 0
    _report(11, ok, f"{passed}/500 seeded instances 3-colored, "
                    f"{confirmed} oracle confirmations at n <= 10")


def test_criterion_12_blowup_identity():
    sizes = [(build_G(i).n, len(build_G(i).arcs)) for i in (1, 2, 3)]
    identity = sizes == [(3, 3), (9, 15), (81, 159)]
    identity = identity and all(a == 2 * n - 3 for n, a in sizes)
    bounds = gi_lower_bound_check(2) and gi_lower_bound_check(3)
    _report(12, identity and bounds,
            f"arc counts {sizes} match 2|V|-3; short-path lower bound holds "
            f"for generations 2 and 3")
