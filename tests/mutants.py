"""Mutants on record: each row breaks src in one place, and named tests must
catch it.

    python tests/mutants.py              # every row
    python tests/mutants.py ROW [ROW]    # the rows named

Run from the root of an earlab checkout.  The node ids of the rows run
first on an unmutated copy of src/ and must pass.  Then, for each row,
src/ is copied to a new temporary directory, the row's old text, which
must occur exactly once in its file, is replaced by its new text, and
`python -m pytest -q -x -p no:cacheprovider <node ids>` runs with
PYTHONPATH at the copy.  It must exit 1: a test failed, not a collection
or usage error.  A row whose old text no longer occurs once fails, so a
refactor updates the row instead of losing it.  Exit status 0 when every
row holds, 1 otherwise.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # under src/earlab/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, relative to the checkout
    breaks: str  # what the mutant gets wrong


RECHECKS = "tests/test_certificate_rechecks.py::"
REFUSED = RECHECKS + "test_a_broken_builder_is_refused"
FAILS = RECHECKS + "test_a_broken_builder_fails_its_command"
SWEEPS = "tests/test_ear_sweeps.py::test_find_ear_decomposition_matches_the_strong_first_reference"
SMALL_SEARCHES = "tests/test_ears.py::test_all_strong_digraphs_up_to_four_vertices_match_reference"
REBUILDING = "tests/test_ears.py::test_incremental_search_matches_rebuilding_reference_"
ROWS = "tests/test_ears.py::test_rows_are_kept_for_branch_vertices_of_d_only"
DIGRAPH = "tests/test_digraph.py::"
CATALOG_GAPS = "tests/test_oriented.py::test_catalog_gaps_match_the_adjacency_powers_on_every_class"

MUTANTS = (
    # the breadth-first layer and its four callers
    Mutant("grow-first-parent", "digraph.py",
           "                parent[w] = v\n",
           "                parent[w] = frontier[0]\n",
           (SWEEPS,), "every new vertex gets the frontier's first vertex as parent"),
    Mutant("grow-ignores-stop", "digraph.py",
           "                if w in stop:\n                    return None\n", "",
           (SMALL_SEARCHES,), "a layer never reports meeting its stop set"),
    Mutant("reach-one-layer", "digraph.py",
           "    while frontier:\n        frontier = _grow(frontier, rows, parent)\n",
           "    if frontier:\n        frontier = _grow(frontier, rows, parent)\n",
           ("tests/test_digraph.py::test_is_strong",),
           "is_strong sweeps one layer from the root"),
    Mutant("cycle-search-backwards", "ears.py",
           "        frontier = _grow(frontier, d._out, parent)\n",
           "        frontier = _grow(frontier, d._in, parent)\n",
           (SWEEPS,), "the base cycle is searched along in-arcs"),
    Mutant("sweep-forwards", "ears.py",
           "        layer = _grow(layer, d._in, parent)\n",
           "        layer = _grow(layer, d._out, parent)\n",
           (SWEEPS,), "the sweep gives parents one step away from the base"),
    Mutant("reaches-around-never-meets", "ears.py",
           "                fwd = _grow(fwd, self.out, ahead, behind)\n"
           "            else:\n"
           "                bwd = _grow(bwd, self.inn, behind, ahead)\n",
           "                fwd = _grow(fwd, self.out, ahead, ())\n"
           "            else:\n"
           "                bwd = _grow(bwd, self.inn, behind, ())\n",
           (SMALL_SEARCHES,), "the peel test's two frontiers never meet"),
    # every certificate re-check
    Mutant("proper-cover", "coloring.py",
           "    if set(a) != d.vertices:\n"
           "        raise VerificationError(\"coloring does not cover",
           "    if False:\n        raise VerificationError(\"coloring does not cover",
           (REFUSED + "[uncovered-coloring]",), "a coloring may miss a vertex"),
    Mutant("three-colors", "coloring.py",
           "    if mapping.colors_used() > 3:\n",
           "    if mapping.colors_used() > 4:\n",
           (REFUSED + "[four-coloring]", FAILS + "[color]"),
           "a coloring may use a fourth color"),
    Mutant("seymour-bound", "constructions.py",
           "    if report.second_out_degree < report.out_degree:\n",
           "    if report.second_out_degree < report.out_degree - 1:\n",
           (REFUSED + "[seymour-bound]", FAILS + "[seymour]"),
           "the second neighbourhood may be one short"),
    Mutant("transversal-independent", "constructions.py",
           "        if any(map(and_, hits, hits[1:])):\n",
           "        if False:\n",
           (REFUSED + "[transversal-independent]", FAILS + "[transversal]"),
           "a transversal may span an arc"),
    Mutant("quasi-kernel-small", "constructions.py",
           "    if 2 * len(q) > d.n:\n",
           "    if len(q) > d.n:\n",
           (REFUSED + "[quasi-kernel-small]", FAILS + "[quasi-kernel]"),
           "a quasi-kernel may hold more than half the vertices"),
    Mutant("self-check-length", "ears.py",
           "    if not e.certifies(min_len):\n"
           "        raise VerificationError(f\"built an ear shorter",
           "    if False:\n        raise VerificationError(f\"built an ear shorter",
           (REFUSED + "[short-ear]", FAILS + "[decompose]"),
           "a built decomposition may hold a short ear"),
    Mutant("restrict-recheck", "kernels.py",
           "    if _kernel_violation(d, stage, restricted):\n",
           "    if False:\n",
           (REFUSED + "[restricted-kernel]", FAILS + "[kernel-restrict]"),
           "a restriction is returned unchecked"),
    Mutant("extend-recheck", "kernels.py",
           "    if _kernel_violation(d, d.vertices, extended):\n",
           "    if False:\n",
           (REFUSED + "[extended-kernel]", FAILS + "[kernel-extend]"),
           "an extension is returned unchecked"),
    Mutant("verify-t-walks", "cli.py",
           "    if not (walks_ok and property_ok",
           "    if not (property_ok",
           (RECHECKS + "test_a_broken_reference_walk_fails_verify_t[non_arc]",),
           "verify-T passes with broken reference walks"),
    Mutant("walk-lengths", "oriented.py",
           "            if len(walk) != k + 1 or walk[0] != i or walk[-1] != j:\n",
           "            if walk[0] != i or walk[-1] != j:\n",
           (RECHECKS + "test_a_broken_reference_walk_fails_verify_t[wrong_length]",),
           "a reference walk may have the wrong length"),
    Mutant("walk-arcs", "oriented.py",
           "            if any(not t.has_arc(u, v) for u, v in zip(walk, walk[1:])):\n",
           "            if False:\n",
           (RECHECKS + "test_a_broken_reference_walk_fails_verify_t[non_arc]",),
           "a reference walk may use a non-arc"),
    # mutants that earlier changes showed their tests catch
    Mutant("kernel-trace-no-reroot", "kernels.py",
           "                for u in kids[v]:\n",
           "                for u in (kids[v] if j == 0 else ()):\n",
           ("tests/test_kernels.py::test_trace_matches_the_per_stage_oracle",
            "tests/test_kernels.py::test_forward_pass_matches_per_stage_rescans"),
           "a forced x0's in-tree is re-rooted only at the first ear"),
    Mutant("no-closed-thread-rule", "ears.py",
           "            not any(map(contains, self.out.values(), self.out))\n"
           "            and ", "",
           ("tests/test_ears.py::test_path_ears_search_skips_separable_remainders",),
           "a closed thread does not make the remainder separable"),
    Mutant("relink-keeps-before", "ears.py",
           "merged = (1 - len(joined), joined, before[2] + after[2])",
           "merged = (1 - len(joined), joined, before[2])",
           ("tests/test_ears.py::test_threads_chain_whole_initial_threads",),
           "a joined thread forgets the initial threads after x"),
    Mutant("longest-path-revisits", "oracles.py",
           "            free = out[v] & ~mask",
           "            free = out[v]",
           ("tests/test_oracles.py::test_longest_path_oracle_matches_dfs_reference",),
           "the longest-path DP extends a path onto its own vertices"),
    Mutant("no-reachability-test", "ears.py",
           "        if t[0] != t[-1] and not self._reaches_around(t):\n",
           "        if False:\n",
           (SMALL_SEARCHES,), "a peel may leave a remainder that is not strong"),
    Mutant("mask-not-restored", "ears.py",
           "                mask += bits(frame[0][2])\n", "",
           (REBUILDING + "on_the_ladder",),
           "a popped frame leaves its thread out of the memo key"),
    Mutant("first-gap-always-open", "oriented.py",
           "and (include_closed or i != j)), None)", "and i != j), None)",
           (CATALOG_GAPS,), "the closed reading skips i = j too"),
    Mutant("first-gap-targets-descending", "oriented.py",
           "for j in range(k) if (i, j, length)",
           "for j in reversed(range(k)) if (i, j, length)",
           (CATALOG_GAPS,), "the first gap is looked for from the highest target"),
    # the one check of each arc entry, and the builds that read it
    Mutant("arc-entry-type-pass-dropped", "digraph.py",
           "    pairs = (all(map(isinstance, entries, repeat((list, tuple))))\n"
           "             and set(map(len, entries)) <= {2})\n",
           "    pairs = set(map(len, entries)) <= {2}\n",
           (DIGRAPH + "test_constructor_matches_the_reference_loops[set-entry]",),
           "a set of two ids is accepted as an arc entry"),
    Mutant("arc-id-type-pass-dropped", "digraph.py",
           "    if not (pairs and set(map(type, ids)) <= {int}):\n",
           "    if not pairs:\n",
           (DIGRAPH + "test_json_loader_matches_the_reference_loops[unhashable-ids]",),
           "an unhashable id escapes as a bare TypeError"),
    Mutant("json-cap-reads-n-alone", "digraph.py",
           "    _check_vertex_count(max(n, top))\n",
           "    _check_vertex_count(n)\n",
           (DIGRAPH + "test_vertex_cap_is_checked_before_allocation",),
           "an arc id past a given n escapes the vertex cap"),
    Mutant("in-index-tail-first", "digraph.py",
           "zip(map(itemgetter(1), self.arcs),\n"
           "                                         map(itemgetter(0), self.arcs))",
           "zip(map(itemgetter(0), self.arcs),\n"
           "                                         map(itemgetter(1), self.arcs))",
           (DIGRAPH + "test_in_index_reads_the_arcs_head_first",),
           "the in-index holds out-neighbours"),
    Mutant("ear-id-refusal-unnamed", "ears.py",
           "                if set(map(type, chain.from_iterable(ears))) <= {int}:\n"
           "                    raise\n",
           "                raise\n",
           ("tests/test_decomposition_index.py::"
            "test_existing_cases_load_and_validate_as_before[ear-not-ids]",),
           "a non-integer ear id gets the constructor's text, not the loader's"),
    Mutant("canonical-first-branch-only", "tournaments.py",
           "                if fixed == best:\n",
           "                if fixed == best and not kept:\n",
           ("tests/test_tournaments.py::"
            "test_canonical_code_matches_reference_on_every_small_code",),
           "the canonical form follows only the first minimal branch"),
    # the thread multigraph's rows
    Mutant("drop-keeps-start-row", "ears.py",
           "        del out[a], inn[z]\n        if not out:  # x0 turned plain",
           "        del inn[z]\n        if not out:  # x0 turned plain",
           (ROWS, SMALL_SEARCHES), "a dropped thread stays in its start's row"),
    Mutant("drop-keeps-empty-row", "ears.py",
           "        if not out:  # x0 turned plain: nonseparable reads branch vertices only\n",
           "        if False:\n",
           (ROWS,), "a vertex that turned plain keeps an empty row"),
    Mutant("reach-keeps-t", "ears.py",
           "        del out[a], inn[z]\n        ahead", "        ahead",
           (SMALL_SEARCHES,), "the reach test may go around along t itself"),
)


def pytest(src: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def copy_of_src(into: str) -> Path:
    src = Path(into) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(ids: list[str]) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown rows: {' '.join(unknown)}")
        return 1
    rows = [known[i] for i in ids] if ids else list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in rows for t in m.tests})
        if pytest(copy_of_src(tmp), tests) != 0:
            print("the rows' tests fail on the unmutated source")
            return 1
    bad = 0
    for m in rows:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_of_src(tmp) / "earlab" / m.file
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                verdict = f"old text occurs {count} times in {m.file}"
            else:
                path.write_text(text.replace(m.old, m.new))
                code = pytest(path.parent.parent, m.tests)
                verdict = "killed" if code == 1 else f"survived (pytest exit {code})"
        bad += verdict != "killed"
        print(f"{m.id:28} {verdict}  {time.perf_counter() - start:.1f} s")
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
