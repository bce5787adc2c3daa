import argparse
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from earlab import cli, digraph, ears
from earlab.cli import main
from earlab.digraph import Digraph, is_strong, parse_digraph, serialize_digraph
from earlab.errors import BudgetExceededError
from earlab.kernels import TRACE_VERTEX_CAP, trace_kernels
from earlab.oriented import uniqueness_census
from test_kernels import fan
from test_oracles import longest_paths_by_dfs, rotational_tournament_8


def run(capsys, *argv):
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def byte_stdin(data: bytes, errors: str = "strict") -> io.TextIOWrapper:
    """A text stdin over bytes, as Python builds sys.stdin."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    return str(path)


@pytest.fixture
def k3_sym_file(tmp_path):
    arcs = [(u, v) for u in range(3) for v in range(3) if u != v]
    path = tmp_path / "k3.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in arcs))
    return str(path)


@pytest.fixture
def le3_instance(tmp_path, capsys):
    code = main(["gen", "--le", "--base", "4", "--ears", "2",
                 "--min-ear-length", "3", "--max-ear-length", "4",
                 "--seed", "9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(doc["payload"]["decomposition"]))
    return str(inst), str(dec)


def test_envelope_shape(capsys, c5_file):
    code, doc = run(capsys, "decompose", c5_file)
    assert code == 0
    assert doc["status"] == "ok"
    assert isinstance(doc["timing_ms"], int)
    assert doc["payload"]["decomposition"]["base"] == [0, 1, 2, 3, 4]
    assert doc["payload"]["ear_count"] == 0


def test_decompose_min_ear_length_failure(capsys, k3_sym_file):
    code, doc = run(capsys, "decompose", k3_sym_file, "--min-ear-length", "2")
    assert code == 1
    assert doc["status"] == "property_failed"
    assert "provably none" in doc["error"]
    assert doc["payload"] is None


def test_classify(capsys, k3_sym_file):
    code, doc = run(capsys, "classify", k3_sym_file)
    assert code == 0
    assert doc["payload"]["levels"] == {"1": True, "2": False, "3": False}
    assert doc["payload"]["max_certified"] == 1


def test_classify_non_strong(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0 1\n")
    code, doc = run(capsys, "classify", str(path))
    assert code == 0
    assert doc["payload"]["strong"] is False
    assert doc["payload"]["max_certified"] is None


@pytest.mark.parametrize("n", [0, 1])
def test_classify_without_a_cycle_holds_no_level(capsys, tmp_path, n):
    # K1 and the empty digraph are strong but have no cycle, so no LE_i
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": n, "arcs": []}))
    code, doc = run(capsys, "classify", str(path))
    assert code == 0
    assert doc["payload"] == {"strong": True,
                              "levels": {"1": False, "2": False, "3": False},
                              "max_certified": None}


def test_constructions_from_instance(capsys, le3_instance):
    inst, dec = le3_instance
    for argv in (["seymour", inst, "--decomposition", dec],
                 ["transversal", inst, "--decomposition", dec],
                 ["quasi-kernel", inst, "--decomposition", dec],
                 ["color", inst, "--decomposition", dec, "--exact"],
                 ["oriented", inst, "--decomposition", dec]):
        code, doc = run(capsys, *argv)
        assert code == 0, argv
        assert doc["status"] == "ok"


def test_one_source_for_both_parts_is_read_once(capsys, monkeypatch,
                                               le3_instance):
    # a gen document on stdin names the input and --decomposition at once
    inst, dec = le3_instance
    reads, read = [], cli._read_document

    def counted(source):
        reads.append(source)
        return read(source)

    monkeypatch.setattr(cli, "_read_document", counted)
    for argv in (["seymour"], ["quasi-kernel"], ["kernel", "trace"]):
        _, two_files = run(capsys, *argv, inst, "--decomposition", dec)
        with open(inst, "rb") as handle:
            monkeypatch.setattr("sys.stdin", byte_stdin(handle.read()))
        reads.clear()
        code, doc = run(capsys, *argv, "-", "--decomposition", "-")
        assert (code, reads) == (0, ["-"]), argv
        assert doc["payload"] == two_files["payload"]


def test_color_reports_bounds(capsys, c5_file):
    code, doc = run(capsys, "color", c5_file, "--exact")
    assert code == 0
    assert doc["payload"]["colors_used"] == 3
    assert doc["payload"]["dichromatic"] == {"lower": 2, "upper": 3, "exact": 2}


def test_kernel_trace(capsys, c5_file):
    code, doc = run(capsys, "kernel", "trace", c5_file)
    assert code == 0
    assert doc["payload"]["dichotomy"] == "all_stages_lack_kernels"
    assert doc["payload"]["base_parity"] == "odd"


@pytest.fixture
def kernel_files(tmp_path):
    """The input, --decomposition and --set of a kernel command: C4 with the
    ear 1 4 3, and [1, 3], a kernel of C4 and of the whole."""
    files = {"g.txt": "0 1\n1 2\n2 3\n3 0\n1 4\n4 3\n", "s.json": "[1, 3]",
             "d.json": '{"base": [0, 1, 2, 3], "ears": [[1, 4, 3]]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / "g.txt"), "--decomposition", str(tmp_path / "d.json"),
            "--set", str(tmp_path / "s.json")]


def test_kernel_extend_and_restrict(capsys, kernel_files):
    for action in ("extend", "restrict"):
        code, doc = run(capsys, "kernel", action, *kernel_files)
        assert code == 0
        assert doc["payload"]["members"] == [1, 3]
        assert doc["payload"]["verified"] is True


@pytest.mark.parametrize("action", ["extend", "restrict"])
def test_kernel_propagation_validates_the_decomposition(capsys, tmp_path,
                                                        action):
    # vertices 4 and 5 of the ear are not in the input digraph
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    dec = tmp_path / "d.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 2]]}))
    members = tmp_path / "s.json"
    members.write_text("[1, 3]")
    code, doc = run(capsys, "kernel", action, str(graph),
                    "--decomposition", str(dec), "--set", str(members))
    assert code == 2
    assert doc["status"] == "invalid_input"
    assert doc["error"].startswith("invalid decomposition")


@pytest.mark.parametrize("action", ["extend", "restrict"])
@pytest.mark.parametrize("given", [True, False])
def test_kernel_propagation_validates_once(capsys, monkeypatch, kernel_files,
                                           action, given):
    # the library validates the decomposition once, in path-ears mode; a
    # searched one is validated first by the search's own self-check, as
    # for every other certificate command
    modes = []
    validate = ears.validate_decomposition

    def counting(d, e, path_ears_only=False):
        modes.append(path_ears_only)
        return validate(d, e, path_ears_only)

    monkeypatch.setattr(ears, "validate_decomposition", counting)
    argv = ["kernel", action, *kernel_files]
    code, _ = run(capsys, *(argv if given else argv[:3] + argv[5:]))
    assert code == 0
    assert modes == [True] * (1 if given else 2)


def test_parser_is_built_once_per_process(capsys, monkeypatch, c5_file):
    getattr(cli._build_parser, "cache_clear", lambda: None)()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert run(capsys, "decompose", c5_file)[0] == 0
    assert built.count("earlab") == 1


def _subcommands():
    commands, = (a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def test_plain_calls_never_reach_argparse(capsys, monkeypatch, c5_file,
                                          tmp_path):
    members = tmp_path / "members.json"
    members.write_text("[0, 2]")
    calls = {
        "decompose": [c5_file, "--min-ear-length", "2", "--budget", "50"],
        "classify": [c5_file, "--max-level", "2"],
        "seymour": [c5_file, "--decomposition", c5_file],
        "transversal": [c5_file],
        "quasi-kernel": [c5_file],
        "kernel": ["--set", str(members), "extend", c5_file],
        "color": [c5_file, "--exact"],
        "oriented": ["-", "--budget", "7"],
        "verify-T": [],
        "census": [],
        "oracle": ["oriented", c5_file, "--kmax", "3"],
    }
    # gen's required group is argparse's to check
    assert set(calls) == set(_subcommands()) - {"gen"}

    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr("sys.stdin", byte_stdin(Path(c5_file).read_bytes()))
    for command, rest in calls.items():
        code, doc = run(capsys, command, *rest)
        assert doc["status"] == STATUS_OF_CODE[code], (command, doc)


# values of the right and the wrong type, numbers _budget refuses, and
# tokens that no subparser defines or that argparse reads in its own way
SCAN_VALUES = ["3", "12", "0", " 4", "1.5", "x", "-5", "-", "", "a b", "g.txt"]
SCAN_TOKENS = SCAN_VALUES + ["--dec", "--min", "--budget=5", "-h", "--"]


@st.composite
def scan_argvs(draw):
    """A command, its positionals and some of its options with values, in
    a drawn order; then up to two tokens of the whole alphabet put in."""
    subs = _subcommands()
    actions = [a for sub in subs.values() for a in sub._actions]
    alphabet = sorted({*subs, *SCAN_TOKENS,
                       *(s for a in actions for s in a.option_strings),
                       *(c for a in actions for c in a.choices or ())})
    command = draw(st.sampled_from(sorted(subs)))
    chunks = []
    for action in subs[command]._actions:
        if isinstance(action, argparse._HelpAction) or (
                action.option_strings and draw(st.booleans())):
            continue
        values = sorted(action.choices) if action.choices else SCAN_VALUES
        flag = [draw(st.sampled_from(action.option_strings))] \
            if action.option_strings else []
        chunks.append(flag + ([] if action.nargs == 0
                              else [draw(st.sampled_from(values))]))
    argv = [command, *(t for chunk in draw(st.permutations(chunks)) for t in chunk)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))),
                    draw(st.sampled_from(alphabet)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_argvs())
def test_scan_gives_argparses_namespace_wherever_it_accepts(argv):
    scanned = cli._scan_args(argv)
    if scanned is not None:
        try:
            parsed = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which the scan accepts")
        assert scanned == parsed, argv


def test_seymour_refuses_a_repeated_interior_vertex(capsys, tmp_path,
                                                   c5_file):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3, 4],
                               "ears": [[0, 5, 6, 5, 2]]}))
    code, doc = run(capsys, "seymour", c5_file, "--decomposition", str(dec))
    assert (code, doc["status"], doc["payload"]) == (2, "invalid_input", None)
    assert "repeated internal vertex" in doc["error"]


def test_verify_t(capsys):
    code, doc = run(capsys, "verify-T")
    assert code == 0
    payload = doc["payload"]
    assert payload["iso_class_count"] == 1
    assert payload["code"] == "101001001010101"
    assert payload["walk_property"] is True
    assert payload["reference_walks_valid"] is True
    assert payload["census"]["labeled_count"] == 240


def test_census(capsys):
    code, doc = run(capsys, "census")
    assert code == 0
    assert doc["payload"]["labeled_count"] == 240
    assert doc["payload"]["closed_reading"]["agrees"] is True


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_reports_are_the_payloads_they_print(capsys, tmp_path, direction):
    # one shape: the library returns what the command prints, key for key
    d, e = ears.generate_random_le(base_length=4, ear_count=4,
                                   min_ear_length=2, max_ear_length=3, seed=3)
    path = tmp_path / "le.json"
    path.write_text(json.dumps({"digraph": serialize_digraph(d),
                                "decomposition": e.to_json()}))
    code, doc = run(capsys, "kernel", "trace", str(path), "--decomposition",
                    str(path), "--direction", direction)
    assert code == 0 and doc["payload"] == trace_kernels(d, e, direction)
    code, doc = run(capsys, "census")
    assert code == 0 and doc["payload"] == uniqueness_census()


def test_gen_gi_payload_is_a_digraph(capsys):
    code, doc = run(capsys, "gen", "--gi", "2")
    assert code == 0
    assert doc["payload"]["n"] == 9
    assert len(doc["payload"]["arcs"]) == 15


def test_gen_le_is_deterministic(capsys):
    _, first = run(capsys, "gen", "--le", "--seed", "4", "--ears", "2")
    _, second = run(capsys, "gen", "--le", "--seed", "4", "--ears", "2")
    assert first["payload"] == second["payload"]


def test_gen_pipes_into_oracle(capsys, monkeypatch):
    code, doc = run(capsys, "gen", "--gi", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", byte_stdin(json.dumps(doc).encode()))
    code, doc = run(capsys, "oracle", "kernel", "-")
    assert code == 0
    assert doc["payload"]["value"] is True
    assert doc["payload"]["witness"] == [3, 4, 5, 6, 7, 8]


def test_oracle_kinds(capsys, c5_file):
    expected = {"kernel": False, "quasi-kernel": 2, "chromatic": 3,
                "oriented": 5, "longest-path": 4}
    for kind, value in expected.items():
        code, doc = run(capsys, "oracle", kind, c5_file)
        assert code == 0
        assert doc["payload"]["value"] == value, kind


@pytest.mark.parametrize("kmax, code, status", [
    ("0", 2, "invalid_input"), ("-3", 2, "invalid_input"),
    ("8", 3, "cap_exceeded")])
def test_oracle_oriented_refuses_kmax_outside_one_to_seven(capsys, c5_file,
                                                           kmax, code, status):
    got, doc = run(capsys, "oracle", "oriented", c5_file, "--kmax", kmax)
    assert (got, doc["status"], doc["payload"]) == (code, status, None)


def test_oracle_all_flag(capsys, c5_file):
    code, doc = run(capsys, "oracle", "quasi-kernel", c5_file, "--all")
    assert code == 0
    assert len(doc["payload"]["details"]["all_quasi_kernels"]) > 1


def test_missing_file_exit_code(capsys):
    code, doc = run(capsys, "oracle", "kernel", "/nonexistent/file.txt")
    assert code == 2


def test_cap_exceeded_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{i} {(i + 1) % 25}\n" for i in range(25)))
    code, doc = run(capsys, "oracle", "kernel", str(path))
    assert code == 3
    assert doc["status"] == "cap_exceeded"


def subdivided_symmetric_cycle(k):
    """The symmetric k-cycle with every arc replaced by a 3-path, with a
    path-ear decomposition of it: 5k vertices, k of them branch vertices.
    It has as many kernels as the k-cycle, exponentially many in k."""
    ears = [(0, 1, 0), tuple(range(1, k)) + (0,)]
    ears += [(i + 1, i) for i in range(1, k - 1)] + [(0, k - 1)]
    fresh = iter(range(k, 5 * k))
    paths = [[p[0]] + [w for v in p[1:] for w in (next(fresh), next(fresh), v)]
             for p in ears]
    arcs = [arc for path in paths for arc in zip(path, path[1:])]
    return {"digraph": {"arcs": arcs},
            "decomposition": {"base": paths[0][:-1], "ears": paths[1:]}}


def test_classify_after_budget_stop_reports_unknown(capsys, tmp_path):
    # an LE_2 instance by construction, so a False at level 2 would be wrong
    code, doc = run(capsys, "gen", "--le", "--base", "4", "--ears", "8",
                    "--min-ear-length", "2", "--max-ear-length", "4",
                    "--seed", "3")
    path = tmp_path / "le2.json"
    path.write_text(json.dumps(doc))
    code, doc = run(capsys, "classify", str(path), "--budget", "1")
    assert code == 0
    # level 1 needs no search: every strong digraph has an ear decomposition,
    # and the one found here has no ear shorter than 2, so it answers level
    # 2 too; level 3 runs the search, which stops on the budget
    assert doc["payload"]["levels"] == {"1": True, "2": True, "3": "unknown"}
    assert doc["payload"]["max_certified"] == 2
    code, doc = run(capsys, "classify", str(path), "--budget", "20")
    levels = list(doc["payload"]["levels"].values())
    assert "unknown" in levels
    assert False not in levels[levels.index("unknown"):]


@pytest.mark.parametrize("level, code, status", [
    ("0", 2, "invalid_input"), ("-1", 2, "invalid_input"),
    (str(cli.MAX_LEVEL_CAP + 1), 3, "cap_exceeded"),
], ids=["zero", "negative", "past-cap"])
def test_classify_refuses_max_level_outside_its_range(capsys, c5_file, level,
                                                      code, status):
    got, doc = run(capsys, "classify", c5_file, "--max-level", level)
    assert (got, doc["status"], doc["payload"]) == (code, status, None)
    assert level in doc["error"] and str(cli.MAX_LEVEL_CAP) in doc["error"]
    if code == 3:
        # a cycle is in every LE_i, so every level up to the cap holds
        got, doc = run(capsys, "classify", c5_file,
                       "--max-level", str(cli.MAX_LEVEL_CAP))
        assert got == 0
        assert list(doc["payload"]["levels"].values()) == [True] * cli.MAX_LEVEL_CAP


def test_classify_answers_every_level_of_a_cycle_without_search(
        capsys, monkeypatch, tmp_path):
    path = tmp_path / "c50.txt"
    path.write_text("".join(f"{i} {(i + 1) % 50}\n" for i in range(50)))
    calls = []
    search = cli.find_le_decomposition
    monkeypatch.setattr(cli, "find_le_decomposition",
                        lambda *a, **k: calls.append(a) or search(*a, **k))
    code, doc = run(capsys, "classify", str(path), "--max-level", "30")
    assert code == 0
    assert list(doc["payload"]["levels"].values()) == [True] * 30
    assert doc["payload"]["max_certified"] == 30
    assert calls == []


def test_classify_sweeps_for_strongness_only_at_level_one(
        capsys, monkeypatch, tmp_path):
    # level 1's decomposition proves the input strong, and the searches
    # above it read that answer: is_strong runs no sweep of its own
    d, _ = ears.generate_random_le(5, 400, 2, 4, seed=3)
    path = tmp_path / "le2.json"
    path.write_text(json.dumps(serialize_digraph(d)))
    sweeps, reach = [], digraph._reach
    monkeypatch.setattr(digraph, "_reach",
                        lambda rows, root: sweeps.append(root) or reach(rows, root))
    code, doc = run(capsys, "classify", str(path), "--max-level", "5")
    assert code == 0 and doc["payload"]["levels"]["2"] is True
    assert sweeps == []


def per_level_search(d, max_level, budget):
    """Reference for classify: one search per level until one fails."""
    levels, rest = {}, None if is_strong(d) else False
    for i in range(1, max_level + 1):
        if rest is None:
            try:
                found = (ears.find_ear_decomposition(d) if i == 1 else
                         ears.find_le_decomposition(d, i=i, budget=budget))
            except BudgetExceededError:
                rest = "unknown"
            else:
                rest = None if found is not None else False
        levels[str(i)] = True if rest is None else rest
    return levels


def test_classify_matches_one_search_per_level(capsys, tmp_path):
    seen, path = set(), tmp_path / "g.json"
    for seed in range(30):
        d, _ = ears.generate_random_le(
            base_length=3 + seed % 3, ear_count=3 + seed % 5,
            min_ear_length=2, max_ear_length=2 + seed % 4,
            cycle_ear_probability=0.2, seed=seed)
        # the instance, and it with a new source or a new sink: not strong
        v = random.Random(seed).randrange(d.n)
        for arcs in ([], [(d.n, v)], [(v, d.n)]):
            g = Digraph(range(d.n + bool(arcs)), d.arcs | set(arcs))
            path.write_text(json.dumps({"n": g.n, "arcs": sorted(g.arcs)}))
            expected = per_level_search(g, 5, cli.DEFAULT_BUDGET)
            code, doc = run(capsys, "classify", str(path), "--max-level", "5")
            assert code == 0
            assert doc["payload"]["strong"] == is_strong(g), (seed, arcs)
            assert doc["payload"]["levels"] == expected, (seed, arcs)
            seen.add(tuple(expected.values()))
    assert len(seen) > 2


@pytest.mark.parametrize("failing_call", [1, 2])
def test_classify_reports_a_failed_self_check(capsys, monkeypatch, tmp_path,
                                              failing_call):
    # a built decomposition that fails its re-verification is an error at
    # every level, never a verdict: call 1 is level 1's, call 2 level 2's
    d, _ = ears.generate_random_le(base_length=3, ear_count=4, min_ear_length=2,
                                   max_ear_length=3, cycle_ear_probability=0,
                                   seed=0)
    path = tmp_path / "le2.json"
    path.write_text(json.dumps({"n": d.n, "arcs": sorted(d.arcs)}))
    calls, validate = [], ears.validate_decomposition

    def failing(d, e, path_ears_only=False):
        calls.append(e)
        report = validate(d, e, path_ears_only)
        if len(calls) == failing_call:
            report = ears.DecompositionReport(ok=False, violations=["planted"])
        return report

    monkeypatch.setattr(ears, "validate_decomposition", failing)
    code, doc = run(capsys, "classify", str(path))
    assert (code, doc["status"], doc["error"]) == (1, "property_failed", "planted")
    assert len(calls) == failing_call


@pytest.mark.parametrize("lengths", [("2", "0"), ("3", "2"), ("1", "-1")])
def test_gen_refuses_max_ear_length_below_min(capsys, lengths):
    code, doc = run(capsys, "gen", "--le", "--min-ear-length", lengths[0],
                    "--max-ear-length", lengths[1])
    assert (code, doc["status"]) == (2, "invalid_input")
    assert doc["error"] == "max ear length below min"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_classify_rejects_budget_below_one(capsys, k3_sym_file, budget):
    with pytest.raises(SystemExit) as exc:
        main(["classify", k3_sym_file, "--budget", budget])
    assert exc.value.code == 2
    assert "--budget: must be an integer >= 1" in capsys.readouterr().err


def test_huge_vertex_id_hits_the_cap(capsys, tmp_path):
    # id 10**8 would otherwise allocate 10**8 vertices; int() refuses a
    # 5,000-digit string, so the cap is checked before it is read
    for vid in ("100000000", "9" * 5000):
        path = tmp_path / "huge.txt"
        path.write_text(f"0 {vid}\n{vid} 0\n")
        code, doc = run(capsys, "decompose", str(path))
        assert code == 3
        assert doc["status"] == "cap_exceeded"
        assert "1000000" in doc["error"]


@pytest.mark.parametrize("lengths", [
    ["--min-ear-length", "1000500"],
    ["--min-ear-length", "2", "--max-ear-length", "3000000"],
], ids=["least-size", "drawn-ear"])
def test_gen_hits_the_cap_before_allocating(capsys, lengths):
    # the first bound needs no draw; the second stops the drawn ear
    started = time.perf_counter()
    code, doc = run(capsys, "gen", "--le", "--ears", "1", *lengths)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert doc["status"] == "cap_exceeded"
    assert "1000000" in doc["error"]


@pytest.mark.parametrize("doc", [
    {"n": 2, "arcs": None},
    {"arcs": [["a", "b"], ["b", "a"]]},
    {"arcs": [[0, 1], [1, 0]], "labels": ["x", "y"]},
    {"arcs": [[0, 1.5], [1, 0]]},
    {"n": -5, "arcs": []},
], ids=["arcs-null", "string-ids", "list-labels", "non-integer-id",
        "negative-n"])
def test_malformed_json_digraph_is_invalid_input(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "decompose", str(path))
    assert code == 2
    assert out["status"] == "invalid_input"


@pytest.mark.parametrize("dec", [
    {"base": 5},
    {"base": [0, 1, 2, 3, 4], "ears": 3},
    {"base": [0, 1, 2, 3, 4], "ears": [5]},
    {"base": [0, 1.9, 2, 3, 4]},
    {"base": [0, "1", 2, 3, 4]},
], ids=["base-not-list", "ears-not-list", "ear-not-list", "float-id",
        "string-id"])
def test_malformed_decomposition_json_is_invalid_input(capsys, c5_file,
                                                       tmp_path, dec):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(dec))
    code, out = run(capsys, "seymour", c5_file, "--decomposition", str(path))
    assert code == 2
    assert out["status"] == "invalid_input"


C4 = "0 1\n1 2\n2 3\n3 0\n"
# C4 with the ear 0 4 5 2, and the kernel [0, 2] of C4: extending it across
# the ear meets an obstruction.  KERNEL_DOC holds all three parts.
EAR_G = C4 + "0 4\n4 5\n5 2\n"
EAR_D = {"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 2]]}
EAR_ARCS = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4], [4, 5], [5, 2]]
KERNEL_DOC = {"digraph": {"arcs": EAR_ARCS}, "decomposition": EAR_D,
              "members": [0, 2]}
# C4 with the ear 0 4 5 3: restricting the kernel [1, 3, 4] meets an obstruction
RESTRICT_G = C4 + "0 4\n4 5\n5 3\n"
RESTRICT_D = {"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 3]]}
# C4 with the ear 0 4 5 6 2: the kernel [0, 2] of C4 extends across it
EAR4_G = C4 + "0 4\n4 5\n5 6\n6 2\n"
EAR4_D = {"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 6, 2]]}
# C4 plus the cycle 0 -> 4 -> ... -> 19999 -> 0, which {"base": [0, 1, 2, 3]} leaves out
AROUND = [0, *range(4, 20_000), 0]


def _doc(*keys):
    return json.dumps({key: KERNEL_DOC[key] for key in keys})


def tournament(n):
    """The fair-coin tournament on 0..n-1 that random.Random(0) draws, as
    an edge list."""
    rng = random.Random(0)
    return "".join(f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n"
                   for u in range(n) for v in range(u + 1, n))


def has(**want):
    """A payload check: these keys hold these values."""
    return lambda payload: {key: payload[key] for key in want} == want


def longest_path_as_the_reference(payload):
    value, paths, _ = longest_paths_by_dfs(parse_digraph(tournament(11)))
    return (payload["value"], payload["witness"], payload["details"]) \
        == (value, list(paths[0]), {"maximum_count": len(paths)})


class Prefix(str):
    """An error text that the envelope's error starts with."""


class Gen(str):
    """The stdout of `earlab gen` with these arguments, which exits 0."""


CLOSED = object()  # a stdin whose fd 0 is closed


class Case(NamedTuple):
    """One CLI call and the envelope it prints.  files and stdin hold text,
    bytes, JSON values or a Gen, and "{name}" in argv and error is the path
    of file name; stdin may be CLOSED, or read as under the C locale if
    c_locale.  error is exact or a Prefix; payload is a predicate on the
    payload, and max_bytes bounds the envelope."""
    id: str
    argv: str
    code: int = 0
    error: str = None
    files: dict = {}
    stdin: object = b""
    c_locale: bool = False
    payload: object = None
    max_bytes: int = None
    marks: tuple = ()


KERNEL = "kernel extend {g} --decomposition {d} --set {s}"
RESTRICT = KERNEL.replace("extend", "restrict")
TRACE = "kernel trace {g} --decomposition {g}"
BOTH_IN_ODD = has(obstruction=True, pattern="both_in_odd")
X0_OUT_XR_IN_ODD = has(obstruction=True, pattern="x0_out_xr_in_odd")
NO_DECOMPOSITION = "an edge list carries no decomposition"
NOT_JSON = '{"n": 3'  # an input that a refusal before its read never sees
LE3 = Gen("--le --base 5 --ears 6 --min-ear-length 3 --max-ear-length 8 --seed 2")
EARS_3200 = Gen("--le --base 5 --ears 3200 --min-ear-length 3 --max-ear-length 4 "
                "--seed 3")
ROT8 = serialize_digraph(rotational_tournament_8())
LEVELS = f"--max-level must lie in 1..{cli.MAX_LEVEL_CAP}, got "
PAST = str(cli.MAX_LEVEL_CAP + 1)
FAN = fan(TRACE_VERTEX_CAP - 3)  # C3 and 497 ears: 498 stages at the vertex cap
BRANCH_CAP = "kernel trace capped at 20 branch vertices (out-degree other than 1), got "
BOM = "\ufeff"
# the payload of `decompose` on the triangle 0 -> 1 -> 2 -> 0, in either form
TRIANGLE_DECOMPOSED = has(decomposition={"base": [0, 1, 2], "ears": []},
                          ear_count=0, min_ear_length=None)

# The CLI's cases: test_envelope_paths runs each in-process, and
# test_installed_script through the installed earlab.
CASES = [
    Case("truncated-json", "decompose {g}", 2, Prefix("bad JSON: "),
         {"g": '{"n": 3, "arcs": [[0, 1]'}),
    Case("stdin-truncated-json", "decompose -", 2, Prefix("bad JSON: "), stdin="{"),
    Case("blank-input", "decompose {g}", 2, "empty input", {"g": " \n\n"}),
    Case("edge-list-line-of-three", "oracle kernel {g}", 2,
         "line 1: expected 'u v', got '1 2 3'", {"g": "1 2 3\n"}),
    Case("kernel-without-ears", KERNEL, 2, "decomposition has no ears to propagate "
         "across", {"g": C4, "d": '{"base": [0, 1, 2, 3]}', "s": "[0, 2]"}),
    Case("extend-obstruction", KERNEL, files={"g": EAR_G, "d": EAR_D, "s": "[0, 2]"},
         payload=BOTH_IN_ODD),
    Case("restrict-obstruction", RESTRICT, payload=X0_OUT_XR_IN_ODD,
         files={"g": RESTRICT_G, "d": RESTRICT_D, "s": "[1, 3, 4]"}),
    Case("extend-across-ear", KERNEL, files={"g": EAR4_G, "d": EAR4_D, "s": "[0, 2]"},
         payload=has(members=[0, 2, 5])),
    Case("restrict-across-ear", RESTRICT, payload=has(members=[0, 2]),
         files={"g": EAR4_G, "d": EAR4_D, "s": "[0, 2, 5]"}),
    # the same propagation with the decomposition searched for
    Case("extend-across-searched-ear", "kernel extend {g} --set {s}",
         files={"g": EAR4_G, "s": "[0, 2]"}, payload=has(members=[0, 2, 5])),
    Case("restrict-non-kernel", "kernel restrict {g} --set {s}", 1,
         "[0, 2] is not a kernel of the glued digraph; non-member 4 has no "
         "out-neighbour in the set", {"g": EAR4_G, "s": "[0, 2]"}),
    # a 1,004-vertex path-ears search is decided within its budget
    Case("extend-empty-set-400-ears", "kernel extend {g} --set {s}", 1,
         "[] is not a kernel of the stage digraph; non-member 0 has no "
         "out-neighbour in the set", {"s": "[]", "g": Gen(
             "--le --base 5 --ears 400 --min-ear-length 3 --max-ear-length 4 "
             "--seed 3")}),
    # --set is checked and read before the input, and so is a flag that the
    # action does not read
    Case("extend-without-set", "kernel extend {g}", 2, "kernel extend needs --set",
         {"g": NOT_JSON}),
    Case("extend-without-set-or-input", "kernel extend missing.json", 2,
         "kernel extend needs --set"),
    Case("restrict-bad-set", "kernel restrict {g} --set {s}", 2,
         "vertex set must be a JSON list of integers", {"g": NOT_JSON, "s": "[1.5]"}),
    Case("kernel-set-of-booleans", KERNEL, 2, "vertex set must be a JSON list of "
         "integers", {"g": EAR_G, "d": EAR_D, "s": "[true, 3]"}),
    Case("trace-takes-no-set", "kernel trace {g} --set {s}", 2,
         "kernel trace takes no --set", {"g": NOT_JSON, "s": "[0]"}),
    Case("extend-takes-no-direction", KERNEL + " --direction backward", 2,
         "kernel extend takes no --direction", {"g": NOT_JSON, "d": EAR_D, "s": "["}),
    Case("restrict-takes-no-direction", RESTRICT + " --direction forward", 2,
         "kernel restrict takes no --direction", {"g": NOT_JSON, "d": EAR_D, "s": "["}),
    # an edge list named as the input and --decomposition, as one file or
    # on stdin, carries no decomposition; stdin serves --set alone
    Case("edge-list-as-decomposition", "seymour {g} --decomposition {g}", 2,
         NO_DECOMPOSITION, {"g": C4}),
    Case("stdin-edge-list-as-decomposition", "seymour - --decomposition -", 2,
         NO_DECOMPOSITION, stdin=C4),
    Case("stdin-for-input-and-set", "kernel extend - --set -", 2,
         "stdin is named by both the input and --set", stdin="[0]"),
    Case("stdin-for-decomposition-and-set", "kernel restrict {g} --decomposition - "
         "--set -", 2, "stdin is named by both --decomposition and --set",
         {"g": C4}, stdin="[0]"),
    # one file spelled two ways is one source, read once
    Case("edge-list-spelled-two-ways", "seymour g --decomposition ./g", 2,
         NO_DECOMPOSITION, {"g": C4}),
    # bytes that are not UTF-8, from a file or from stdin under any locale
    Case("file-not-utf8", "decompose {g}", 2, "cannot read {g}: not UTF-8 at byte 6",
         {"g": b"0 1\n1 \xff\n"}),
    Case("stdin-not-utf8", "decompose -", 2, "cannot read -: not UTF-8 at byte 6",
         stdin=b"0 1\n1 \xff\n"),
    Case("c-locale-stdin-not-utf8", "decompose -", 2,
         "cannot read -: not UTF-8 at byte 6", stdin=b"0 1\n1 \xff\n", c_locale=True),
    # a leading byte-order mark is dropped, and a bad byte's offset counts it
    *(Case(f"{source}-bom-{kind}", "decompose " + ("{g}" if source == "file" else "-"),
           files={"g": BOM + text} if source == "file" else {},
           stdin=BOM + text if source == "stdin" else b"", payload=TRIANGLE_DECOMPOSED)
      for kind, text in (("edge-list", "0 1\n1 2\n2 0\n"),
                         ("json", '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}'))
      for source in ("file", "stdin")),
    Case("file-bom-not-utf8", "decompose {g}", 2, "cannot read {g}: not UTF-8 at byte 9",
         {"g": BOM.encode() + b"0 1\n1 \xff\n"}),
    # an edge list named by --decomposition alone carries no decomposition
    Case("stdin-edge-list-as-decomposition-only", "seymour - --decomposition {g}",
         2, NO_DECOMPOSITION, {"g": C4}, stdin=C4),
    Case("edge-list-as-decomposition-only", "seymour {g} --decomposition {d}", 2,
         NO_DECOMPOSITION, {"g": C4, "d": C4}),
    # stdin serves one of the input, --decomposition and --set, and files
    # serve the others
    Case("stdin-for-input", KERNEL.replace("{g}", "-"), stdin=EAR_G,
         files={"d": EAR_D, "s": "[0, 2]"}, payload=BOTH_IN_ODD),
    Case("stdin-for-decomposition", KERNEL.replace("{d}", "-"), stdin=EAR_D,
         files={"g": EAR_G, "s": "[0, 2]"}, payload=BOTH_IN_ODD),
    Case("stdin-for-set", KERNEL.replace("{s}", "-"), stdin="[0, 2]",
         files={"g": EAR_G, "d": EAR_D}, payload=BOTH_IN_ODD),
    # stdin or one file serves two of them, or all three
    Case("stdin-for-input-and-decomposition", "kernel extend - --decomposition - "
         "--set {s}", files={"s": "[0, 2]"}, stdin=_doc("digraph", "decomposition"),
         payload=BOTH_IN_ODD),
    Case("seymour-stdin-for-input-and-decomposition", "seymour - --decomposition -",
         stdin=LE3),
    Case("stdin-for-all-three", "kernel extend - --decomposition - --set -", 2,
         "stdin is named by both the input and --set",
         stdin=_doc("digraph", "decomposition", "members")),
    Case("stdin-for-input-and-set-in-trace", "kernel trace - --set -", 2,
         "stdin is named by both the input and --set", stdin=C4),
    Case("file-for-input-and-decomposition", "kernel extend g --decomposition ./g "
         "--set {s}", files={"g": _doc("digraph", "decomposition"), "s": "[0, 2]"},
         payload=BOTH_IN_ODD),
    Case("file-for-input-and-set", "kernel extend g --decomposition {d} --set ./g",
         files={"g": _doc("digraph", "members"), "d": EAR_D}, payload=BOTH_IN_ODD),
    Case("file-for-decomposition-and-set", "kernel restrict {g} --decomposition d "
         "--set ./d", files={"g": RESTRICT_G, "d": {"decomposition": RESTRICT_D,
                                                     "members": [1, 3, 4]}},
         payload=X0_OUT_XR_IN_ODD),
    Case("file-for-all-three", "kernel extend g --decomposition ./g --set {g}",
         files={"g": _doc("digraph", "decomposition", "members")}, payload=BOTH_IN_ODD),
    Case("json-nested-too-deep", "decompose {g}", 2, Prefix("bad JSON: maximum "
         "recursion depth exceeded"), {"g": '{"arcs": ' + "[" * 200_000}),
    Case("closed-stdin", "decompose -", 2, "cannot read -: stdin is closed",
         stdin=CLOSED),
    Case("json-integer-too-long", "decompose {g}", 2, Prefix("bad JSON: Exceeds the "
         "limit"), {"g": '{"n": ' + "9" * 5000 + "}"}, marks=pytest.mark.skipif(
             not hasattr(sys, "get_int_max_str_digits"),
             reason="no integer digit limit: n hits the vertex cap")),
    Case("unhashable-arc-ids", "classify {g}", 2,
         "bad arc entry [[0], [1]]: need two integer ids", {"g": {"arcs": [[[0], [1]]]}}),
    Case("label-key-not-an-id", "decompose {g}", 2, "label key '00' is not an id as "
         "str(id) writes it", {"g": {"arcs": [[0, 1], [1, 0]], "labels": {"00": "a"}}}),
    # each part is checked as the decomposition loads, then against the input
    Case("ear-repeat-at-load", "color {g} --decomposition {d}", 2,
         "repeated internal vertex in ear (0, 4, 4, 1)",
         {"g": EAR4_G, "d": {"base": [0, 1, 2, 3], "ears": [[0, 4, 4, 1]]}}),
    Case("ear-ending-off-stage", "color {g} --decomposition {d}", 2,
         "invalid decomposition: stage 0: ear endpoints must lie in the stage digraph",
         {"g": EAR4_G, "d": {"base": [0, 1, 2, 3], "ears": [[0, 4, 5, 6, 9]]}}),
    Case("negative-id-at-load", "transversal {g} --decomposition {d}", 2,
         "negative vertex id -1",
         {"g": EAR4_G, "d": {"base": [0, 1, 2, 3], "ears": [[0, -1, 1]]}}),
    # a refusal names the first ids of a large value; it does not copy it
    Case("kernel-set-off-stage-20000", KERNEL, 2,
         "set [7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17 not in digraph",
         {"g": EAR4_G, "d": EAR4_D, "s": list(range(7, 20_007))}, max_bytes=1024),
    Case("uncovered-vertices", "color {g} --decomposition {d}", 2,
         Prefix("invalid decomposition: final: vertices uncovered: [4, 5, "),
         {"g": {"arcs": [*EAR_ARCS[:4], *zip(AROUND, AROUND[1:])]},
          "d": {"base": [0, 1, 2, 3]}}, max_bytes=1024),
    # option values out of range
    Case("classify-max-level-zero", "classify {g} --max-level 0", 2, LEVELS + "0",
         {"g": EAR4_G}),
    Case("classify-max-level-past-cap", "classify {g} --max-level " + PAST, 3,
         LEVELS + PAST, {"g": EAR4_G}),
    Case("decompose-min-ear-length-zero", "decompose {g} --min-ear-length 0", 2,
         "minimum ear length must be >= 1", {"g": EAR4_G}),
    Case("gen-max-below-min", "gen --le --min-ear-length 2 --max-ear-length 0", 2,
         "max ear length below min"),
    Case("gen-past-vertex-cap", "gen --le --ears 1 --min-ear-length 1000001", 3,
         "1000003 vertices exceed the cap of 1000000 (largest id + 1)"),
    # commands fed by gen, on stdin or as a file
    Case("gen-into-decompose", "decompose -", stdin=Gen("--le --seed 1")),
    Case("gen-into-classify", "classify -", stdin=Gen(
        "--le --ears 12 --min-ear-length 2 --max-ear-length 4 --seed 1")),
    Case("gen-into-transversal", "transversal -", stdin=Gen(
        "--le --ears 6 --min-ear-length 2 --max-ear-length 4 --seed 1")),
    Case("gen-into-oriented", "oriented -", stdin=Gen(
        "--le --base 8 --ears 4 --min-ear-length 3 --max-ear-length 5 --seed 7")),
    Case("oriented-on-base-6", "oriented {g} --decomposition {g}", files={"g": Gen(
        "--le --base 6 --ears 3 --min-ear-length 3 --max-ear-length 4 --seed 2")}),
    Case("quasi-kernel-on-le3", "quasi-kernel {g} --decomposition {g}",
         files={"g": LE3}),
    # the certificates are checked along the ears: no vertex cap
    *(Case(f"{command}-3200-ears", command + " {g} --decomposition {g}",
           files={"g": EARS_3200}, payload=check)
      for command, check in (("transversal", lambda p: p["role"] == "transversal"),
                             ("seymour", None), ("quasi-kernel", None),
                             ("color", None), ("oriented", None))),
    Case("verify-t", "verify-T"),
    Case("census", "census", payload=lambda p: p["closed_reading"]["agrees"] is True),
    # the kernel trace, and its caps: at 80 branch vertices the last stages
    # of a subdivided symmetric cycle would have about 6e9 kernels
    Case("gen-into-trace", "kernel trace -", stdin=Gen(
        "--le --ears 8 --min-ear-length 2 --max-ear-length 4 --seed 1")),
    Case("trace-backward", TRACE + " --direction backward", files={"g": Gen(
        "--le --ears 6 --min-ear-length 2 --max-ear-length 4 --seed 3")}),
    # 180 vertices, 15 of them branch vertices; 302, 118; 504, 2
    Case("trace-inside-both-caps", TRACE, payload=lambda p: len(p["stages"]) == 17,
         files={"g": Gen("--le --base 4 --ears 16 --min-ear-length 10 "
                         "--max-ear-length 14 --seed 0")}),
    Case("trace-past-branch-cap", TRACE, 3, BRANCH_CAP + "118", {"g": Gen(
        "--le --base 4 --ears 200 --min-ear-length 2 --max-ear-length 3 --seed 0")}),
    Case("trace-past-vertex-cap", TRACE, 3, "kernel trace capped at 500 vertices, "
         "got 504", {"g": Gen("--le --base 4 --ears 1 --min-ear-length 501 --seed 0")}),
    Case("trace-at-vertex-cap", TRACE, files={"g": {
        "digraph": serialize_digraph(FAN[0]), "decomposition": FAN[1].to_json()}},
         payload=lambda p: len(p["stages"]) == TRACE_VERTEX_CAP - 2),
    Case("trace-subdivided-cycle-20", TRACE,
         files={"g": subdivided_symmetric_cycle(20)}),
    Case("trace-subdivided-cycle-80", TRACE, 3, BRANCH_CAP + "80",
         {"g": subdivided_symmetric_cycle(80)}),
    # oracles: no tournament class up to order 7 admits ROT8; 85,002,437
    # longest paths of a 15-tournament are counted, not listed
    Case("oracle-chromatic-empty-digraph", "oracle chromatic -",
         stdin='{"n": 0, "arcs": []}', payload=has(witness={})),
    Case("gen-gi-into-oracle-oriented", "oracle oriented -", stdin=Gen("--gi 2")),
    Case("oriented-past-order-7", "oracle oriented {g}", files={"g": ROT8},
         payload=has(value=None, search_space_size=532)),
    Case("oriented-past-order-7-kmax-0", "oracle oriented {g} --kmax 0", 2,
         "target order must be >= 1, got 0", {"g": ROT8}),
    Case("longest-path-tournament-15", "oracle longest-path -", max_bytes=1024,
         stdin=tournament(15), payload=lambda p: p["value"] == 14
         and "all_longest" not in p["details"]),
    Case("longest-path-tournament-11", "oracle longest-path {g}",
         files={"g": tournament(11)}, payload=longest_path_as_the_reference),
    # a flag that the oracle kind does not read is refused, before the input
    Case("chromatic-takes-no-all", "oracle chromatic {g} --all", 2,
         "oracle chromatic takes no --all", {"g": C4}),
    Case("oriented-takes-no-all", "oracle oriented {g} --all", 2,
         "oracle oriented takes no --all", {"g": NOT_JSON}),
    Case("kernel-takes-no-kmax", "oracle kernel {g} --kmax 7", 2,
         "oracle kernel takes no --kmax", {"g": C4}),
    Case("quasi-kernel-takes-no-kmax", "oracle quasi-kernel {g} --kmax 3", 2,
         "oracle quasi-kernel takes no --kmax", {"g": C4}),
    Case("chromatic-takes-no-kmax", "oracle chromatic - --kmax 7", 2,
         "oracle chromatic takes no --kmax", stdin=C4),
    Case("longest-path-takes-no-kmax", "oracle longest-path {g} --all --kmax 0", 2,
         "oracle longest-path takes no --kmax", {"g": NOT_JSON}),
]
CASE_PARAMS = [pytest.param(case, id=case.id, marks=case.marks) for case in CASES]


def envelope(out, code, want) -> dict:
    """out, checked as the bytes json.dumps writes, with exit code want."""
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert (code, doc["status"]) == (want, STATUS_OF_CODE[want]), doc.get("error")
    assert ("error" in doc) == (want != 0)
    return doc


@functools.cache
def gen(call, args: str) -> bytes:
    code, out = call(["gen", *args.split()])
    envelope(out, code, 0)
    return out.encode()


def source_bytes(data, call) -> bytes:
    if isinstance(data, Gen):
        return gen(call, data)
    if isinstance(data, str):
        return data.encode()
    return data if isinstance(data, bytes) else json.dumps(data).encode()


def run_case(case, directory, call):
    """Writes the files of case into directory, the working directory, and
    checks the envelope of its call through call(argv, stdin, c_locale)."""
    for key, data in case.files.items():
        (directory / key).write_bytes(source_bytes(data, call))
    paths = {key: str(directory / key) for key in case.files}
    stdin = case.stdin if case.stdin is CLOSED else source_bytes(case.stdin, call)
    code, out = call([arg.format(**paths) for arg in case.argv.split()], stdin,
                     case.c_locale)
    doc = envelope(out, code, case.code)
    if case.code:
        error, want = doc["error"], case.error.format(**paths)
        assert doc["payload"] is None
        assert error.startswith(want) if isinstance(case.error, Prefix) \
            else error == want, error[:200]
    assert case.payload is None or case.payload(doc["payload"]), \
        str(doc["payload"])[:200]
    assert case.max_bytes is None or len(out) < case.max_bytes, len(out)


def in_process(argv, stdin=b"", c_locale=False):
    """main's exit code and stdout.  stdin is decoded strictly, as under
    PYTHONIOENCODING=utf-8, or as under the C locale; CLOSED leaves
    sys.stdin None, as Python does when fd 0 is closed."""
    errors = "surrogateescape" if c_locale else "strict"
    out = io.StringIO()
    with mock.patch("sys.stdin", None if stdin is CLOSED
                    else byte_stdin(stdin, errors)), redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def installed(argv, stdin=b"", c_locale=False):
    """The installed earlab's exit code and stdout; it writes no stderr."""
    # an empty PYTHONIOENCODING is unset, so the locale decodes stdin
    env = {**os.environ, "LC_ALL": "C", "PYTHONIOENCODING": ""} if c_locale else None
    closed = stdin is CLOSED
    proc = subprocess.run(
        [EARLAB, *argv], env=env, capture_output=True, timeout=120,
        input=None if closed else stdin,
        stdin=subprocess.DEVNULL if closed else None,
        preexec_fn=(lambda: os.close(0)) if closed else None)
    assert proc.stderr == b""
    return proc.returncode, proc.stdout.decode()


# the installed script, unless there is none or it lies under src/
EARLAB = shutil.which("earlab")
if EARLAB and Path(EARLAB).resolve().is_relative_to(
        Path(__file__).resolve().parents[1] / "src"):
    EARLAB = None


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_envelope_paths(monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    reads, read = [], cli._read_document
    monkeypatch.setattr(cli, "_read_document",
                        lambda source: reads.append(source) or read(source))
    run_case(case, tmp_path, in_process)
    # a source is read once, however often and however spelled it is named
    sources = [os.stat(s)[1:3] if os.path.isfile(s) else s for s in reads]
    assert len(sources) == len(set(sources)), reads


@pytest.mark.skipif(EARLAB is None, reason="no earlab on PATH outside src/")
@pytest.mark.parametrize("case", CASE_PARAMS)
def test_installed_script(monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    run_case(case, tmp_path, installed)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_crlf_edge_list_reads_as_its_lf_form(capsys, monkeypatch, tmp_path,
                                            source):
    # sources are read as bytes, so "\r\n" reaches the edge-list parser
    lf = "# C4 and one ear\n" + EAR_G.replace("4 5\n", "4 5  # inner\n")
    path = tmp_path / "lf.txt"
    path.write_text(lf)
    _, want = run(capsys, "kernel", "trace", str(path))
    crlf = lf.replace("\n", "\r\n").encode()
    path.write_bytes(crlf)
    monkeypatch.setattr("sys.stdin", byte_stdin(crlf))
    code, got = run(capsys, "kernel", "trace",
                    str(path) if source == "file" else "-")
    assert code == 0 and got["payload"] == want["payload"]


BIG_IDS = list(range(3, 100_003))


@pytest.mark.parametrize("argv, files, expect", [
    (["seymour", "{g}", "--decomposition", "{d}"],
     {"g": C4, "d": {"base": ["x"] * 200_000}}, "bad 'base' ['x', "),
    (["decompose", "{g}"], {"g": {"arcs": [[0, 1], BIG_IDS]}},
     "bad arc entry [3, 4, "),
    (["seymour", "{g}", "--decomposition", "{d}"],
     {"g": C4, "d": {"base": [0, 1, 2, 3], "ears": [[0, *BIG_IDS, 3, 2]]}},
     "repeated internal vertex in ear (0, 3, "),
    (["decompose", "{g}"], {"g": {"n": "9" * 100_000, "arcs": []}},
     "'n' must be a non-negative integer, got '999"),
    (["decompose", "{g}"], {"g": {"arcs": [[0, 1], [1, 0]],
                                  "labels": {"0": BIG_IDS}}},
     "label '0' names its vertex [3, 4, "),
    (["decompose", "{g}"], {"g": {"arcs": [[0, 1], [1, 0]],
                                  "labels": {"x" * 100_000: "a"}}},
     "label key 'xxx"),
    (["decompose", "{g}"],
     {"g": {"arcs": [[0, 1], [1, 0]],
            "labels": dict.fromkeys(map(str, BIG_IDS), "a")}},
     "labels name ids [3, 4, "),
    (["decompose", "{g}"], {"g": "0 1 " + "2 " * 100_000}, "expected 'u v'"),
    (["decompose", "{g}"], {"g": ("x" * 100_000 + " ") * 2}, "loop arc on 'xxx"),
    (["kernel", "extend", "{g}", "--decomposition", "{d}", "--set", "{s}"],
     {"g": EAR_G, "d": EAR_D, "s": BIG_IDS}, "set [4, 5, "),
], ids=["decomposition-base", "arc-entry", "ear-repeat", "n", "label-name",
        "label-key", "labels-past-n", "edge-list-line", "edge-list-loop",
        "kernel-set-off-stage"])
def test_refusals_echo_a_bounded_value(capsys, tmp_path, argv, files, expect):
    # the message names the offending value; it does not copy the input
    paths = {}
    for key, data in files.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_text(
            data if isinstance(data, str) else json.dumps(data))
    code = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert (code, doc["status"]) == (2, "invalid_input")
    assert expect in doc["error"] and len(out) < 1024, doc["error"][:100]


@pytest.mark.parametrize("action, members, where", [
    ("extend", range(6000), "stage"), ("restrict", range(6001), "glued")])
def test_kernel_refusals_echo_a_bounded_set(capsys, tmp_path, action, members,
                                            where):
    # every vertex of a 6,000-cycle, or of it with one length-2 ear: no
    # independent set, so no kernel of the stage or of the glued digraph
    base = list(range(6000))
    arcs = [[v, (v + 1) % 6000] for v in base] + [[0, 6000], [6000, 2]]
    doc = {"digraph": {"arcs": arcs},
           "decomposition": {"base": base, "ears": [[0, 6000, 2]]},
           "members": list(members)}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["kernel", action, str(path), "--decomposition", str(path),
                 "--set", str(path)])
    out = capsys.readouterr().out
    error = json.loads(out)["error"]
    assert code == 1
    assert error.startswith("[0, 1, 2, ")
    assert error.endswith(f" is not a kernel of the {where} digraph; "
                          "member 0 has out-neighbour 1 in the set")
    assert len(out) < 1024, error[:100]


def test_closed_pipe_is_silent():
    # about 332 KB of output, far more than a pipe buffers, so the write
    # that follows the reader's close fails with EPIPE; through the module,
    # and through the installed script when there is one
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    for launcher in [[sys.executable, "-m", "earlab.cli"]] + [[EARLAB]] * bool(EARLAB):
        proc = subprocess.Popen(
            [*launcher, "gen", "--le", "--ears", "2000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{\n  "statu'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b""), launcher


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS acts on Linux")
def test_search_on_3200_ears_fits_in_100_mb(capsys, tmp_path):
    # only the search's exhausted frames hold a mask, one bit per initial
    # thread: about 30 MB here
    _, doc = run(capsys, "gen", "--le", "--base", "5", "--ears", "3200",
                 "--min-ear-length", "3", "--max-ear-length", "4", "--seed", "3")
    path = tmp_path / "le3.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    limit = 100 * 2**20  # on the child alone
    proc = subprocess.run(
        [sys.executable, "-m", "earlab.cli", "decompose", str(path),
         "--min-ear-length", "2"], capture_output=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr[-300:]) == (0, b"")
    doc = json.loads(proc.stdout)  # one envelope and nothing after it
    assert doc["status"] == "ok" and doc["payload"]["ear_count"] == 3200


# big ints, all floats (NaN and both infinities too), non-ASCII and control
# characters; lists of ints and int-to-int dicts take the writer's fast
# paths
TEXTS = st.text(max_size=4)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
JSON_KEYS = TEXTS | st.integers() | FLOATS | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXTS
    | st.lists(st.integers(), max_size=4) | st.lists(TEXTS, max_size=4)
    | st.dictionaries(st.integers(), st.integers(), max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_writer_refuses_what_json_refuses():
    for value in ({1, 2}, {"k": [object()]}, {(1,): 2}):
        with pytest.raises(TypeError) as ours:
            cli._json_text(value)
        with pytest.raises(TypeError) as theirs:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(theirs.value)


def test_payload_containers_stay_on_the_writers_path(capsys, monkeypatch,
                                                     le3_instance, c5_file,
                                                     kernel_files):
    # json.dumps(indent=2) writes containers through a Python generator; a
    # payload container that fell back to it would slow every envelope
    inst, _ = le3_instance
    dumps = json.dumps

    def scalars_only(value, *args, **kwargs):
        assert not isinstance(value, (list, tuple, dict)), value
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", scalars_only)
    for argv in (["decompose", c5_file], ["classify", inst],
                 ["seymour", inst, "--decomposition", inst],
                 ["transversal", inst], ["quasi-kernel", inst],
                 ["kernel", "extend", *kernel_files],
                 ["kernel", "restrict", *kernel_files],
                 ["kernel", "trace", c5_file], ["color", c5_file, "--exact"],
                 ["oriented", inst], ["verify-T"], ["census"],
                 ["gen", "--le", "--seed", "1"], ["gen", "--gi", "1"],
                 *(["oracle", kind, c5_file] for kind in (
                     "kernel", "quasi-kernel", "chromatic", "oriented",
                     "longest-path"))):
        code, doc = run(capsys, *argv)
        assert code == 0, (argv, doc)


# The 14 command forms.  "{g}" is the input digraph; forms that read a
# decomposition or a vertex set get "--decomposition {d}" or "--set {s}"
# appended at random.  Any of the three may be "-" instead.
FUZZ_FORMS = (
    ("decompose", "{g}"), ("classify", "{g}"), ("seymour", "{g}"),
    ("transversal", "{g}"), ("quasi-kernel", "{g}"),
    ("kernel", "extend", "{g}"), ("kernel", "restrict", "{g}"),
    ("kernel", "trace", "{g}"), ("color", "{g}"), ("oriented", "{g}"),
    ("verify-T",), ("census",), ("gen",), ("oracle",),
)
TAKES_DECOMPOSITION = {"seymour", "transversal", "quasi-kernel", "kernel",
                       "color", "oriented"}
STATUS_OF_CODE = {0: "ok", 1: "property_failed", 2: "invalid_input",
                  3: "cap_exceeded"}
# ids 0-11 only: a numeric edge list means vertices 0..max, so a sparse
# large id costs time and memory that the fuzz would spend for nothing
FUZZ_IDS = st.integers(min_value=0, max_value=11)
SMALL_INTS = st.integers(min_value=-1, max_value=5)


def _mutate_text(draw, text: str) -> str:
    """Keep the text, or cut it short, or splice in a stray character."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "cut", "splice"]))
    if how == "keep" or not text:
        return text
    at = draw(st.integers(min_value=0, max_value=len(text) - 1))
    if how == "cut":
        return text[:at]
    return text[:at] + draw(st.sampled_from('{}[],:"-x 0 1\n#')) + text[at:]


@st.composite
def fuzz_calls(draw):
    """argv, the files it names and stdin: a seeded LE instance (ids 0-10)
    with arcs dropped and added, written as an edge list, a JSON digraph or
    an envelope, next to a mutated decomposition and vertex set.  stdin
    holds the text of the first source that argv names as "-"."""
    d, e = ears.generate_random_le(
        base_length=draw(st.integers(min_value=3, max_value=5)),
        ear_count=draw(st.integers(min_value=0, max_value=3)),
        min_ear_length=draw(st.sampled_from([2, 3])), max_ear_length=3,
        cycle_ear_probability=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(min_value=0, max_value=1000)))
    arcs = sorted(d.arcs)
    dropped = draw(st.sets(st.sampled_from(arcs), max_size=1))
    arcs = [a for a in arcs if a not in dropped]
    arcs += draw(st.lists(st.tuples(FUZZ_IDS, FUZZ_IDS), max_size=2))
    dec = e.to_json()
    if dec["ears"] and draw(st.booleans()):
        dec["ears"] = dec["ears"][:-1]
    fmt = draw(st.sampled_from(["edges", "json", "envelope"]))
    if fmt == "edges":
        graph = "".join(f"{u} {v}\n" for u, v in arcs)
    else:
        doc = {"arcs": [list(a) for a in arcs]}
        if arcs and draw(st.booleans()):
            doc["n"] = max(map(max, arcs)) + draw(
                st.integers(min_value=0, max_value=2))
        if fmt == "envelope":
            doc = {"status": "ok", "timing_ms": 1,
                   "payload": {"digraph": doc, "decomposition": dec}}
        graph = json.dumps(doc)
    members = draw(st.lists(FUZZ_IDS, max_size=4))
    files = {"g": _mutate_text(draw, graph),
             "d": _mutate_text(draw, json.dumps(dec)),
             "s": _mutate_text(draw, json.dumps(members))}

    argv = list(draw(st.sampled_from(FUZZ_FORMS)))
    if argv[0] == "gen":
        if draw(st.booleans()):
            argv += ["--gi", str(draw(st.integers(min_value=-1, max_value=3)))]
        else:
            argv += ["--le"]
            for flag in ("--base", "--ears", "--min-ear-length",
                         "--max-ear-length", "--seed"):
                argv += [flag, str(draw(SMALL_INTS))]
            argv += ["--cycle-ear-prob",
                     draw(st.sampled_from(["0", "0.5", "1", "2", "-0.5", "nan"]))]
    elif argv[0] == "oracle":
        kind = draw(st.sampled_from(["kernel", "quasi-kernel", "chromatic",
                                     "oriented", "longest-path"]))
        argv += [kind, "{g}"]
        # --kmax is read by oriented alone; elsewhere it is refused
        if kind == "oriented" or draw(st.integers(0, 3)) == 0:
            argv += ["--kmax", str(draw(st.sampled_from([-1, 0, 3, 4, 8])))]
    elif argv[0] not in ("verify-T", "census"):
        argv += ["--budget", str(draw(st.integers(min_value=1, max_value=40)))]
        if argv[0] == "classify" and draw(st.booleans()):
            argv += ["--max-level", str(draw(st.sampled_from(
                [-1, 0, 3, cli.MAX_LEVEL_CAP + 1])))]
        if argv[0] == "decompose" and draw(st.booleans()):
            argv += ["--min-ear-length", str(draw(SMALL_INTS))]
        if argv[0] in TAKES_DECOMPOSITION and draw(st.booleans()):
            argv += ["--decomposition", "{d}"]
        if argv[0] == "kernel":
            # --set is read by extend and restrict, --direction by trace:
            # each is drawn 3 times in 4 where it is read, once where not
            trace = argv[1] == "trace"
            if (draw(st.integers(0, 3)) > 0) != trace:
                argv += ["--set", "{s}"]
            if (draw(st.integers(0, 3)) > 0) == trace:
                argv += ["--direction", draw(st.sampled_from(["forward", "backward"]))]
    stdin = ""
    for at, arg in enumerate(argv):
        if arg in ("{g}", "{d}", "{s}") and draw(st.integers(0, 2)) == 0:
            stdin = stdin if "-" in argv else files[arg[1]]
            argv[at] = "-"
    return argv, files, stdin


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fuzz_calls())
def test_fuzzed_calls_end_in_one_envelope(fuzz_dir, call):
    argv, files, stdin = call
    paths = {}
    for key, text in files.items():
        paths[key] = str(fuzz_dir / key)
        (fuzz_dir / key).write_text(text)
    out = io.StringIO()
    with mock.patch("sys.stdin", byte_stdin(stdin.encode())), \
            redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    assert code in STATUS_OF_CODE, argv
    if "--le" in argv:
        ears = int(argv[argv.index("--ears") + 1])
        chance = float(argv[argv.index("--cycle-ear-prob") + 1])
        shortest = int(argv[argv.index("--min-ear-length") + 1])
        longest = int(argv[argv.index("--max-ear-length") + 1])
        if ears < 0 or not 0 <= chance <= 1 or longest < shortest:
            assert code == 2, argv
    if "--max-level" in argv:
        level = int(argv[argv.index("--max-level") + 1])
        if level < 1 or level > cli.MAX_LEVEL_CAP:
            assert code == (2 if level < 1 else 3), argv
    if argv[0] == "oracle" and argv[1] != "oriented" and "--kmax" in argv:
        assert code == 2, argv
    if argv[0] == "kernel" and ("--set" if argv[1] == "trace"
                                else "--direction") in argv:
        assert code == 2, argv
    doc = json.loads(out.getvalue())
    assert doc["status"] == STATUS_OF_CODE[code], (argv, doc)
    if argv.count("-") > 1 and "--set" in argv \
            and argv[argv.index("--set") + 1] == "-":
        assert "stdin is named by both" in doc["error"], (argv, doc)
    assert set(doc) == ({"status", "payload", "timing_ms"}
                        | ({"error"} if code else set())), (argv, doc)
