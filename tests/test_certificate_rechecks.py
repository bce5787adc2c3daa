"""Every certificate re-check refuses what its builder got wrong.

Each builder re-verifies its certificate before returning it.  These tests
break the builder with monkeypatch (and, where an earlier check would catch
the break first, that check too), so that each refusal runs through the
library, asserting the exception class and the exact text; one case per
command then runs a broken builder through the CLI, which exits 1 with
property_failed and the same text.
"""

import json

import pytest

from earlab import coloring, constructions, ears, kernels, oriented
from earlab.digraph import Digraph
from earlab.ears import EarDecomposition, find_le_decomposition
from earlab.errors import VerificationError
from test_cli import run


def c(n):
    return Digraph.cycle(n), EarDecomposition((*range(n), 0))


def glued(ear):
    """C3 plus one ear, with its decomposition."""
    d = Digraph(range(4), [(0, 1), (1, 2), (2, 0), *zip(ear, ear[1:])])
    return d, EarDecomposition((0, 1, 2, 0), [ear])


def chorded_c4():
    """C4 plus the length-1 ear (0, 2): vertex 0, its next-to-last vertex,
    has out-degree 2 and second out-degree 1."""
    return (Digraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            EarDecomposition((0, 1, 2, 3, 0), [(0, 2)]))


def c4_with_ear():
    """C4 plus the ear 1 4 3; {0, 2} is a kernel of C4 that leaves 3 out."""
    return (Digraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 3)]),
            EarDecomposition((0, 1, 2, 3, 0), [(1, 4, 3)]))


def uncovering(monkeypatch):
    # the base takes one color too few, so one vertex has none
    monkeypatch.setattr(coloring, "_cycle_colors", lambda n: [1, 2, 3][:n - 1])


def four_colors(monkeypatch):
    monkeypatch.setattr(coloring, "_cycle_colors", lambda n: list(range(1, n + 1)))


def any_ear_vertex(monkeypatch):
    monkeypatch.setattr(constructions, "require_decomposition", lambda *args: None)


def member_and_successor(monkeypatch):
    members = constructions._transversal_members
    monkeypatch.setattr(constructions, "_transversal_members",
                        lambda e: members(e) | {e.base[1]})


def every_base_vertex(monkeypatch):
    monkeypatch.setattr(constructions, "cycle_quasi_kernel_indices",
                        lambda n: list(range(n)))
    monkeypatch.setattr(constructions, "quasi_kernel_failing_stage",
                        lambda e, members: None)


def short_last_ears(monkeypatch):
    monkeypatch.setattr(ears._Remainder, "_may_be_last", lambda self, t: True)


def no_restrict_obstruction(monkeypatch):
    monkeypatch.setattr(kernels, "restrict_condition", lambda x0_in, xr_in, r: 1)


def no_interior_picks(monkeypatch):
    monkeypatch.setattr(kernels, "_stride_back", lambda length, xr_in, stride: [])


# (break, build, instance, text): build runs the broken builder on instance
LIBRARY = {
    "uncovered-coloring": (
        uncovering, coloring.proper_3_coloring, lambda: c(3),
        "coloring does not cover the vertex set"),
    "four-coloring": (
        four_colors, coloring.proper_3_coloring, lambda: c(4),
        "coloring uses more than 3 colors"),
    "seymour-bound": (
        any_ear_vertex, constructions.seymour_vertex, chorded_c4,
        "vertex 0 fails the second-neighborhood bound: 1 < 2"),
    "transversal-independent": (
        member_and_successor, constructions.longest_path_transversal,
        lambda: c(4), "constructed transversal [0, 1] is not independent"),
    "quasi-kernel-small": (
        every_base_vertex, constructions.small_quasi_kernel, lambda: c(3),
        "quasi-kernel has 3 members on 3 vertices: not small"),
    "short-ear": (
        short_last_ears, lambda d, e: find_le_decomposition(d, 3),
        lambda: glued((0, 3, 2)), "built an ear shorter than 3"),
    "restricted-kernel": (
        no_restrict_obstruction,
        lambda d, e: kernels.restrict_kernel(d, e, {2, 3}), lambda: glued((0, 3, 1)),
        "restriction [2] under condition 1 is not a kernel of the stage digraph"),
    "extended-kernel": (
        no_interior_picks, lambda d, e: kernels.extend_kernel(d, e, {0, 2}),
        c4_with_ear,
        "extension [0, 2] under case 4 is not a kernel of the glued digraph"),
}


@pytest.mark.parametrize("key", LIBRARY)
def test_a_broken_builder_is_refused(monkeypatch, key):
    breaks, build, instance, text = LIBRARY[key]
    d, e = instance()
    breaks(monkeypatch)
    with pytest.raises(VerificationError) as caught:
        build(d, e)
    assert type(caught.value) is VerificationError
    assert str(caught.value) == text


# (LIBRARY row, the command's words, its options, with --decomposition,
# the --set members)
COMMANDS = {
    "color": ("four-coloring", ["color"], [], False, None),
    "seymour": ("seymour-bound", ["seymour"], [], True, None),
    "transversal": ("transversal-independent", ["transversal"], [], False, None),
    "quasi-kernel": ("quasi-kernel-small", ["quasi-kernel"], [], False, None),
    "decompose": ("short-ear", ["decompose"], ["--min-ear-length", "3"], False, None),
    "kernel-restrict": ("restricted-kernel", ["kernel", "restrict"], [], True, [2, 3]),
    "kernel-extend": ("extended-kernel", ["kernel", "extend"], [], True, [0, 2]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_broken_builder_fails_its_command(capsys, monkeypatch, tmp_path, command):
    key, words, options, given, members = COMMANDS[command]
    breaks, _, instance, text = LIBRARY[key]
    d, e = instance()
    files = {"g.txt": "".join(f"{u} {v}\n" for u, v in sorted(d.arcs))}
    if given:
        files["d.json"] = json.dumps(e.to_json())
        options = [*options, "--decomposition", str(tmp_path / "d.json")]
    if members is not None:
        files["s.json"] = json.dumps(members)
        options = [*options, "--set", str(tmp_path / "s.json")]
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    breaks(monkeypatch)
    code, doc = run(capsys, *words, str(tmp_path / "g.txt"), *options)
    assert (code, doc["status"], doc["error"]) == (1, "property_failed", text)


def wrong_length(walks):
    # the walks of lengths 3 and 4 swapped: right ends, every hop an arc
    (i, j), (three, four, *rest) = min(walks.items())
    return {**walks, (i, j): (four, three, *rest)}


def non_arc(walks):
    # the right length and ends, through the non-arc (i, i)
    (i, j), (walk, *rest) = min(walks.items())
    return {**walks, (i, j): ((i,) * (len(walk) - 1) + (j,), *rest)}


@pytest.mark.parametrize("corrupt", [wrong_length, non_arc])
def test_a_broken_reference_walk_fails_verify_t(capsys, monkeypatch, corrupt):
    code, doc = run(capsys, "verify-T")
    assert code == 0 and oriented.validate_reference_walks() is True
    payload = {**doc["payload"], "reference_walks_valid": False}
    monkeypatch.setattr(oriented, "REFERENCE_WALKS",
                        corrupt(oriented.REFERENCE_WALKS))
    assert oriented.validate_reference_walks() is False
    code, doc = run(capsys, "verify-T")
    assert (code, doc["status"], doc["error"]) == (
        1, "property_failed", f"verification failed: {json.dumps(payload)}")
