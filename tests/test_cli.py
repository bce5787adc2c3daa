import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from earlab import cli, ears
from earlab.cli import main
from earlab.digraph import parse_digraph, serialize_digraph
from earlab.errors import BudgetExceededError
from earlab.kernels import trace_kernels
from earlab.oriented import uniqueness_census
from test_oracles import longest_paths_by_dfs


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


def test_transversal_above_the_longest_path_oracle_cap(capsys, tmp_path):
    # the check runs along the ears, so no vertex cap applies
    code, doc = run(capsys, "gen", "--le", "--base", "5", "--ears", "4000",
                    "--min-ear-length", "3", "--max-ear-length", "4",
                    "--seed", "3")
    assert code == 0 and doc["payload"]["digraph"]["n"] > 9_000
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    code, doc = run(capsys, "transversal", str(inst), "--decomposition",
                    str(inst))
    assert code == 0, doc["error"]
    assert doc["payload"]["role"] == "transversal"


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


def test_kernel_extend_and_restrict(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n1 4\n4 3\n")
    dec = tmp_path / "d.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3], "ears": [[1, 4, 3]]}))
    members = tmp_path / "s.json"
    members.write_text("[1, 3]")
    for action in ("extend", "restrict"):
        code, doc = run(capsys, "kernel", action, str(graph),
                        "--decomposition", str(dec), "--set", str(members))
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
def test_kernel_propagation_validates_once(capsys, monkeypatch, tmp_path,
                                           action, given):
    # the library validates the decomposition once, in path-ears mode; a
    # searched one is validated first by the search's own self-check, as
    # for every other certificate command
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n1 4\n4 3\n")
    dec = tmp_path / "d.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3], "ears": [[1, 4, 3]]}))
    members = tmp_path / "s.json"
    members.write_text("[1, 3]")
    modes = []
    validate = ears.validate_decomposition

    def counting(d, e, path_ears_only=False):
        modes.append(path_ears_only)
        return validate(d, e, path_ears_only)

    monkeypatch.setattr(ears, "validate_decomposition", counting)
    argv = ["kernel", action, str(graph), "--set", str(members)]
    code, _ = run(capsys, *argv, *(["--decomposition", str(dec)] if given else []))
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


def test_seymour_refuses_a_repeated_interior_vertex(capsys, tmp_path,
                                                   c5_file):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3, 4],
                               "ears": [[0, 5, 6, 5, 2]]}))
    code, doc = run(capsys, "seymour", c5_file, "--decomposition", str(dec))
    assert (code, doc["status"], doc["payload"]) == (2, "invalid_input", None)
    assert "repeated internal vertex" in doc["error"]


def test_kernel_set_rejects_boolean_ids(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n1 4\n4 3\n")
    dec = tmp_path / "d.json"
    dec.write_text(json.dumps({"base": [0, 1, 2, 3], "ears": [[1, 4, 3]]}))
    members = tmp_path / "s.json"
    members.write_text("[true, 3]")
    code, doc = run(capsys, "kernel", "extend", str(graph),
                    "--decomposition", str(dec), "--set", str(members))
    assert code == 2
    assert doc["status"] == "invalid_input"
    assert doc["payload"] is None


def test_kernel_extend_requires_set(capsys, c5_file):
    code, doc = run(capsys, "kernel", "extend", c5_file)
    assert code == 2
    assert doc["status"] == "invalid_input"


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


def test_invalid_input_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    code, doc = run(capsys, "oracle", "kernel", str(path))
    assert code == 2
    assert doc["status"] == "invalid_input"
    assert "line 1" in doc["error"]


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
    """The symmetric k-cycle with every arc replaced by a 3-path, and a
    path-ear decomposition of it: 5k vertices, k of them branch vertices.
    It has as many kernels as the k-cycle, exponentially many in k."""
    ears = [(0, 1, 0), tuple(range(1, k)) + (0,)]
    ears += [(i + 1, i) for i in range(1, k - 1)] + [(0, k - 1)]
    fresh = iter(range(k, 5 * k))
    paths = [[p[0]] + [w for v in p[1:] for w in (next(fresh), next(fresh), v)]
             for p in ears]
    arcs = [arc for path in paths for arc in zip(path, path[1:])]
    return arcs, {"base": paths[0][:-1], "ears": paths[1:]}


def test_kernel_trace_caps_name_the_cap(capsys, tmp_path):
    def trace(*gen_args):
        code, doc = run(capsys, "gen", "--le", *gen_args)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "kernel", "trace", str(path),
                   "--decomposition", str(path))

    # 180 vertices, 15 of them branch vertices: inside both caps
    code, doc = trace("--base", "4", "--ears", "16", "--min-ear-length", "10",
                      "--max-ear-length", "14", "--seed", "0")
    assert code == 0 and len(doc["payload"]["stages"]) == 17
    # 302 vertices, 118 branch vertices
    code, doc = trace("--base", "4", "--ears", "200", "--min-ear-length", "2",
                      "--max-ear-length", "3", "--seed", "0")
    assert code == 3
    assert doc["status"] == "cap_exceeded"
    assert "capped at 20 branch vertices (out-degree other than 1), got 118" \
        in doc["error"]
    # one ear: 2 branch vertices, 504 vertices
    code, doc = trace("--base", "4", "--ears", "1", "--min-ear-length", "501",
                      "--seed", "0")
    assert code == 3
    assert "kernel trace capped at 500 vertices, got 504" in doc["error"]
    # the branch cap bounds the kernels: at k = 80 the last stages would
    # have about 6e9 of them
    for k, expected in ((20, 0), (80, 3)):
        arcs, dec = subdivided_symmetric_cycle(k)
        graph, dec_path = tmp_path / "g.txt", tmp_path / "dec.json"
        graph.write_text("".join(f"{u} {v}\n" for u, v in arcs))
        dec_path.write_text(json.dumps(dec))
        code, doc = run(capsys, "kernel", "trace", str(graph),
                        "--decomposition", str(dec_path))
        assert code == expected
    assert doc["error"].endswith("(out-degree other than 1), got 80")


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


def per_level_search(d, max_level, budget):
    """Reference for classify: one search per level until one fails."""
    levels, rest = {}, None
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
    seen = set()
    for seed in range(30):
        d, _ = ears.generate_random_le(
            base_length=3 + seed % 3, ear_count=3 + seed % 5,
            min_ear_length=2, max_ear_length=2 + seed % 4,
            cycle_ear_probability=0.2, seed=seed)
        path = tmp_path / f"le2-{seed}.json"
        path.write_text(json.dumps({"n": d.n, "arcs": sorted(d.arcs)}))
        expected = per_level_search(d, 5, cli.DEFAULT_BUDGET)
        code, doc = run(capsys, "classify", str(path), "--max-level", "5")
        assert code == 0
        assert doc["payload"]["levels"] == expected, seed
        seen.add(tuple(expected.values()))
    assert len(seen) > 1


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


def _doc(*keys):
    return json.dumps({key: KERNEL_DOC[key] for key in keys})


def tournament(n):
    """The fair-coin tournament on 0..n-1 that random.Random(0) draws, as
    an edge list."""
    rng = random.Random(0)
    return "".join(f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n"
                   for u in range(n) for v in range(u + 1, n))


def longest_path_counted(payload, size):
    # 85,002,437 longest paths: the envelope holds their count alone
    assert payload["value"] == 14 and "all_longest" not in payload["details"]
    assert size < 1024


def longest_path_as_the_reference(payload, size):
    value, paths, _ = longest_paths_by_dfs(parse_digraph(tournament(11)))
    assert (payload["value"], payload["witness"], payload["details"]) \
        == (value, list(paths[0]), {"maximum_count": len(paths)})


@pytest.mark.parametrize("argv, files, status, code, expect", [
    (["decompose", "{g}"], {"g": '{"n": 3, "arcs": [[0, 1]'},
     "invalid_input", 2, "bad JSON"),
    (["decompose", "{g}"], {"g": " \n\n"}, "invalid_input", 2, "empty input"),
    (["kernel", "extend", "{g}", "--decomposition", "{d}", "--set", "{s}"],
     {"g": C4, "d": '{"base": [0, 1, 2, 3]}', "s": "[0, 2]"},
     "invalid_input", 2, "no ears"),
    (["kernel", "extend", "{g}", "--decomposition", "{d}", "--set", "{s}"],
     {"g": C4 + "0 4\n4 5\n5 2\n", "d": '{"base": [0, 1, 2, 3], '
      '"ears": [[0, 4, 5, 2]]}', "s": "[0, 2]"}, "ok", 0, "both_in_odd"),
    (["kernel", "restrict", "{g}", "--decomposition", "{d}", "--set", "{s}"],
     {"g": C4 + "0 4\n4 5\n5 3\n", "d": '{"base": [0, 1, 2, 3], '
      '"ears": [[0, 4, 5, 3]]}', "s": "[1, 3, 4]"}, "ok", 0, "x0_out_xr_in_odd"),
    # --set is checked and read before the input
    (["kernel", "extend", "{g}"], {"g": '{"n": 3'}, "invalid_input", 2,
     "kernel extend needs --set"),
    (["kernel", "restrict", "{g}", "--set", "{s}"], {"g": '{"n": 3', "s": "[1.5]"},
     "invalid_input", 2, "vertex set must be a JSON list of integers"),
    # an edge list named as the input and --decomposition, as one file or
    # on stdin, carries no decomposition; stdin serves --set alone
    (["seymour", "{g}", "--decomposition", "{g}"], {"g": C4}, "invalid_input",
     2, "an edge list carries no decomposition"),
    (["seymour", "-", "--decomposition", "-"], {"stdin": C4}, "invalid_input",
     2, "an edge list carries no decomposition"),
    (["kernel", "extend", "-", "--set", "-"], {"stdin": "[0]"},
     "invalid_input", 2, "stdin is named by both the input and --set"),
    (["kernel", "restrict", "{g}", "--decomposition", "-", "--set", "-"],
     {"g": C4, "stdin": "[0]"}, "invalid_input", 2,
     "stdin is named by both --decomposition and --set"),
    # one file spelled two ways is one source, read once
    (["seymour", "g", "--decomposition", "./g"], {"g": C4}, "invalid_input",
     2, "an edge list carries no decomposition"),
    # bytes that are not UTF-8, from a file or from a strict stdin
    (["decompose", "{g}"], {"g": b"0 1\n1 \xff\n"}, "invalid_input", 2,
     "cannot read {g}: not UTF-8 at byte 6"),
    (["decompose", "-"], {"stdin": b"0 1\n1 \xff\n"}, "invalid_input", 2,
     "cannot read -: not UTF-8 at byte 6"),
    # a stdin decoded with surrogateescape, as Python's under the C locale
    (["decompose", "-"], {"c-stdin": b"0 1\n1 \xff\n"}, "invalid_input", 2,
     "cannot read -: not UTF-8 at byte 6"),
    # an edge list named by --decomposition alone carries no decomposition
    (["seymour", "-", "--decomposition", "{g}"], {"g": C4, "stdin": C4},
     "invalid_input", 2, "an edge list carries no decomposition"),
    (["seymour", "{g}", "--decomposition", "{d}"], {"g": C4, "d": C4},
     "invalid_input", 2, "an edge list carries no decomposition"),
    # stdin serves one of the input, --decomposition and --set, and files
    # serve the others
    (["kernel", "extend", "-", "--decomposition", "{d}", "--set", "{s}"],
     {"stdin": EAR_G, "d": json.dumps(EAR_D), "s": "[0, 2]"}, "ok", 0,
     "both_in_odd"),
    (["kernel", "extend", "{g}", "--decomposition", "-", "--set", "{s}"],
     {"g": EAR_G, "stdin": json.dumps(EAR_D), "s": "[0, 2]"}, "ok", 0,
     "both_in_odd"),
    (["kernel", "extend", "{g}", "--decomposition", "{d}", "--set", "-"],
     {"g": EAR_G, "d": json.dumps(EAR_D), "stdin": "[0, 2]"}, "ok", 0,
     "both_in_odd"),
    # stdin or one file serves two of them, or all three
    (["kernel", "extend", "-", "--decomposition", "-", "--set", "{s}"],
     {"stdin": _doc("digraph", "decomposition"), "s": "[0, 2]"}, "ok", 0,
     "both_in_odd"),
    (["kernel", "extend", "-", "--decomposition", "-", "--set", "-"],
     {"stdin": _doc("digraph", "decomposition", "members")}, "invalid_input",
     2, "stdin is named by both the input and --set"),
    (["kernel", "trace", "-", "--set", "-"], {"stdin": C4}, "invalid_input",
     2, "stdin is named by both the input and --set"),
    (["kernel", "extend", "g", "--decomposition", "./g", "--set", "{s}"],
     {"g": _doc("digraph", "decomposition"), "s": "[0, 2]"}, "ok", 0,
     "both_in_odd"),
    (["kernel", "extend", "g", "--decomposition", "{d}", "--set", "./g"],
     {"g": _doc("digraph", "members"), "d": json.dumps(EAR_D)}, "ok", 0,
     "both_in_odd"),
    (["kernel", "restrict", "{g}", "--decomposition", "d", "--set", "./d"],
     {"g": C4 + "0 4\n4 5\n5 3\n", "d": '{"decomposition": {"base": '
      '[0, 1, 2, 3], "ears": [[0, 4, 5, 3]]}, "members": [1, 3, 4]}'}, "ok",
     0, "x0_out_xr_in_odd"),
    (["kernel", "extend", "g", "--decomposition", "./g", "--set", "{g}"],
     {"g": _doc("digraph", "decomposition", "members")}, "ok", 0,
     "both_in_odd"),
    (["decompose", "{g}"], {"g": '{"arcs": ' + "[" * 200_000},
     "invalid_input", 2, "bad JSON: maximum recursion depth exceeded"),
    (["decompose", "-"], {"stdin": None}, "invalid_input", 2,
     "cannot read -: stdin is closed"),
    pytest.param(["decompose", "{g}"], {"g": '{"n": ' + "9" * 5000 + "}"},
                 "invalid_input", 2, "bad JSON: Exceeds the limit",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no integer digit limit: n hits the vertex cap")),
    # the paths are counted, not listed, and listed only under --all
    (["oracle", "longest-path", "-"], {"stdin": tournament(15)}, "ok", 0,
     longest_path_counted),
    (["oracle", "longest-path", "{g}"], {"g": tournament(11)}, "ok", 0,
     longest_path_as_the_reference),
], ids=["truncated-json", "blank-input", "kernel-without-ears",
        "extend-obstruction", "restrict-obstruction", "extend-without-set",
        "restrict-bad-set", "edge-list-as-decomposition",
        "stdin-edge-list-as-decomposition", "stdin-for-input-and-set",
        "stdin-for-decomposition-and-set", "edge-list-spelled-two-ways",
        "file-not-utf8", "stdin-not-utf8", "c-locale-stdin-not-utf8",
        "stdin-edge-list-as-decomposition-only",
        "edge-list-as-decomposition-only", "stdin-for-input",
        "stdin-for-decomposition", "stdin-for-set",
        "stdin-for-input-and-decomposition", "stdin-for-all-three",
        "stdin-for-input-and-set-in-trace", "file-for-input-and-decomposition",
        "file-for-input-and-set", "file-for-decomposition-and-set",
        "file-for-all-three", "json-nested-too-deep", "closed-stdin",
        "json-integer-too-long", "longest-path-tournament-15",
        "longest-path-tournament-11"])
def test_envelope_paths(capsys, monkeypatch, tmp_path, argv, files, status,
                        code, expect):
    monkeypatch.chdir(tmp_path)
    paths = {}
    for key, data in files.items():
        data = data.encode() if isinstance(data, str) else data
        if key in ("stdin", "c-stdin"):
            # strict as under PYTHONIOENCODING=utf-8, or as under the C locale;
            # None, as Python sets it when fd 0 is closed
            errors = "strict" if key == "stdin" else "surrogateescape"
            monkeypatch.setattr("sys.stdin", None if data is None
                                else byte_stdin(data, errors))
            continue
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_bytes(data)
    reads, read = [], cli._read_document
    monkeypatch.setattr(cli, "_read_document",
                        lambda source: reads.append(source) or read(source))
    got = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert (got, doc["status"]) == (code, status)
    # a source is read once, however often and however spelled it is named
    sources = [os.stat(s)[1:3] if os.path.isfile(s) else s for s in reads]
    assert len(sources) == len(set(sources)), reads
    if callable(expect):
        expect(doc["payload"], len(out))
    elif status == "ok":
        assert doc["payload"]["obstruction"] is True
        assert doc["payload"]["pattern"] == expect
    else:
        assert expect.format(**paths) in doc["error"]


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
# C4 plus the cycle 0 -> 4 -> ... -> 19999 -> 0, which {"base": [0, 1, 2, 3]} leaves out
AROUND = [0, *range(4, 20_000), 0]


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
    (["color", "{g}", "--decomposition", "{d}"],
     {"g": {"arcs": [[0, 1], [1, 2], [2, 3], [3, 0], *zip(AROUND, AROUND[1:])]},
      "d": {"base": [0, 1, 2, 3]}},
     "invalid decomposition: final: vertices uncovered: [4, 5, "),
], ids=["decomposition-base", "arc-entry", "ear-repeat", "n", "label-name",
        "label-key", "labels-past-n", "edge-list-line", "edge-list-loop",
        "kernel-set-off-stage", "uncovered-vertices"])
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
    assert error.endswith(f" is not a kernel of the {where} digraph")
    assert len(out) < 1024, error[:100]


def test_closed_pipe_is_silent():
    # about 332 KB of output, far more than a pipe buffers, so the write
    # that follows the reader's close fails with EPIPE
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "earlab.cli", "gen", "--le", "--ears", "2000",
         "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "statu'
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


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
                                                     tmp_path, le3_instance,
                                                     c5_file):
    # json.dumps(indent=2) writes containers through a Python generator; a
    # payload container that fell back to it would slow every envelope
    inst, _ = le3_instance
    graph, dec, members = (tmp_path / name
                           for name in ("g.txt", "d.json", "s.json"))
    graph.write_text(C4 + "1 4\n4 3\n")
    dec.write_text('{"base": [0, 1, 2, 3], "ears": [[1, 4, 3]]}')
    members.write_text("[1, 3]")
    kernel = [str(graph), "--decomposition", str(dec), "--set", str(members)]
    dumps = json.dumps

    def scalars_only(value, *args, **kwargs):
        assert not isinstance(value, (list, tuple, dict)), value
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", scalars_only)
    for argv in (["decompose", c5_file], ["classify", inst],
                 ["seymour", inst, "--decomposition", inst],
                 ["transversal", inst], ["quasi-kernel", inst],
                 ["kernel", "extend", *kernel], ["kernel", "restrict", *kernel],
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
        argv += [draw(st.sampled_from(["kernel", "quasi-kernel", "chromatic",
                                       "oriented", "longest-path"])), "{g}",
                 "--kmax", str(draw(st.sampled_from([-1, 0, 3, 4, 8])))]
    elif argv[0] not in ("verify-T", "census"):
        argv += ["--budget", str(draw(st.integers(min_value=1, max_value=40)))]
        if argv[0] == "classify" and draw(st.booleans()):
            argv += ["--max-level", str(draw(st.sampled_from(
                [-1, 0, 3, cli.MAX_LEVEL_CAP + 1])))]
        if argv[0] == "decompose" and draw(st.booleans()):
            argv += ["--min-ear-length", str(draw(SMALL_INTS))]
        if argv[0] in TAKES_DECOMPOSITION and draw(st.booleans()):
            argv += ["--decomposition", "{d}"]
        if argv[:2] in (["kernel", "extend"], ["kernel", "restrict"]) \
                and draw(st.integers(min_value=0, max_value=3)):
            argv += ["--set", "{s}"]
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
    doc = json.loads(out.getvalue())
    assert doc["status"] == STATUS_OF_CODE[code], (argv, doc)
    if argv.count("-") > 1 and "--set" in argv \
            and argv[argv.index("--set") + 1] == "-":
        assert "stdin is named by both" in doc["error"], (argv, doc)
    assert set(doc) == ({"status", "payload", "timing_ms"}
                        | ({"error"} if code else set())), (argv, doc)
