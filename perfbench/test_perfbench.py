"""Self-tests of the benchmark: checkers, outcome mapping, tracing, smoke runs.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checkers
import run
import workloads
from checkers import (BUDGET_STOP, CAP_REFUSAL, ERROR, OK, PROVABLY_NONE,
                      CheckError)

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def earlab():
    return run.import_earlab()


@pytest.fixture(scope="module")
def instance(earlab, tmp_path_factory):
    """An LE_3 instance with its decomposition, written as CLI input, small
    enough (n = 11) for every oracle."""
    b = workloads.Builder(str(tmp_path_factory.mktemp("inputs")))
    return b.ear_instance(earlab, "le3", base_length=3, ear_count=4,
                          min_ear_length=3, max_ear_length=3, seed=4)


def cli(earlab, *argv):
    _, code, text = run.call(earlab.cli.main, argv)
    return code, text


def ok_payload(earlab, *argv):
    code, text = cli(earlab, *argv)
    outcome, env = checkers.classify_envelope(code, text)
    assert outcome == OK, text
    return env["payload"]


def write(tmp_path, name, n, arcs):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "arcs": [list(a) for a in arcs]}))
    return str(path)


# --- outcome classifier, pinned against the real CLI -------------------------

def test_outcome_ok_and_error_exit_codes(earlab, tmp_path):
    triangle = write(tmp_path, "c3.json", 3, [(0, 1), (1, 2), (2, 0)])
    assert checkers.classify_envelope(*cli(earlab, "oracle", "kernel", triangle))[0] == OK
    missing = str(tmp_path / "missing.json")
    assert checkers.classify_envelope(*cli(earlab, "seymour", missing))[0] == ERROR


def test_budget_stop_and_cap_refusal_share_exit_3(earlab, instance, tmp_path):
    code, text = cli(earlab, "decompose", instance.path, "--min-ear-length", "2",
                     "--budget", "5")
    assert code == 3 and checkers.classify_envelope(code, text)[0] == BUDGET_STOP
    cycle13 = write(tmp_path, "c13.json", 13, [(i, (i + 1) % 13) for i in range(13)])
    code, text = cli(earlab, "oracle", "chromatic", cycle13)
    assert code == 3 and checkers.classify_envelope(code, text)[0] == CAP_REFUSAL


def test_provably_none(earlab, tmp_path):
    # a triangle plus a length-2 ear: every decomposition has a short ear
    path = write(tmp_path, "le2.json", 4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)])
    for argv in (("decompose", path, "--min-ear-length", "3"), ("quasi-kernel", path)):
        code, text = cli(earlab, *argv)
        assert code == 1 and checkers.classify_envelope(code, text)[0] == PROVABLY_NONE


def test_malformed_envelopes_are_errors():
    good = {"status": "ok", "payload": {}, "timing_ms": 1}
    assert checkers.classify_envelope(0, json.dumps(good))[0] == OK
    assert checkers.classify_envelope(None, json.dumps(good))[0] == ERROR
    assert checkers.classify_envelope(1, json.dumps(good))[0] == ERROR
    assert checkers.classify_envelope(0, "Traceback (most recent call last):")[0] == ERROR
    assert checkers.classify_envelope(0, json.dumps(good) + "{}")[0] == ERROR
    odd = {"status": "cap_exceeded", "payload": None, "timing_ms": 1, "error": "boom"}
    assert checkers.classify_envelope(3, json.dumps(odd))[0] == ERROR
    failed = dict(odd, status="property_failed", error="verification failed")
    assert checkers.classify_envelope(1, json.dumps(failed))[0] == ERROR


# --- checkers accept real certificates and reject corrupted ones -------------

def test_coloring_checker_rejects_a_recoloured_vertex(earlab, instance):
    payload = ok_payload(earlab, "color", instance.path, "--decomposition",
                         instance.dec_path)
    checkers.PAYLOAD_CHECKS["color"](payload, instance)
    u, v = instance.arcs[0]
    payload["coloring"]["assignment"][str(v)] = payload["coloring"]["assignment"][str(u)]
    with pytest.raises(CheckError, match="monochromatic"):
        checkers.PAYLOAD_CHECKS["color"](payload, instance)


def test_quasi_kernel_checker_rejects_a_dropped_member(earlab, instance):
    payload = ok_payload(earlab, "quasi-kernel", instance.path, "--decomposition",
                         instance.dec_path)
    checkers.PAYLOAD_CHECKS["quasi-kernel"](payload, instance)
    cycle6 = [(i, (i + 1) % 6) for i in range(6)]
    checkers.check_quasi_kernel(range(6), cycle6, [0, 3], small=True)
    with pytest.raises(CheckError, match="more than 2 steps"):
        checkers.check_quasi_kernel(range(6), cycle6, [0], small=True)


def test_homomorphism_checker_rejects_a_wrong_image_arc(earlab, instance):
    payload = ok_payload(earlab, "oriented", instance.path, "--decomposition",
                         instance.dec_path)
    checkers.PAYLOAD_CHECKS["oriented"](payload, instance)
    images = payload["mapping"]["assignment"]
    u, v = instance.arcs[0]
    target = checkers.tournament_out(payload["mapping"]["target"])
    images[str(v)] = next(w for w in range(6) if w not in target[images[str(u)]])
    with pytest.raises(CheckError, match="non-arc"):
        checkers.PAYLOAD_CHECKS["oriented"](payload, instance)


def test_decomposition_checker_rejects_a_reused_ear_interior(instance):
    doc = json.loads(json.dumps(instance.decomposition))
    checkers.check_decomposition(instance.n, instance.arcs, doc, min_len=3)
    first, second = doc["ears"][0], doc["ears"][1]
    second[1] = first[1]
    with pytest.raises(CheckError, match="reused|not in the digraph"):
        checkers.check_decomposition(instance.n, instance.arcs, doc)
    short = {"base": [0, 1, 2], "ears": [[0, 3, 1]]}
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]
    checkers.check_decomposition(4, arcs, short, min_len=2)
    with pytest.raises(CheckError, match="below 3"):
        checkers.check_decomposition(4, arcs, short, min_len=3)


def test_seymour_checker_rejects_a_wrong_vertex(earlab, instance):
    payload = ok_payload(earlab, "seymour", instance.path, "--decomposition",
                         instance.dec_path)
    checkers.PAYLOAD_CHECKS["seymour"](payload, instance)
    payload["vertex"] = (payload["vertex"] + 1) % instance.n
    with pytest.raises(CheckError):
        checkers.PAYLOAD_CHECKS["seymour"](payload, instance)


def test_oracle_checkers_reject_corrupted_witnesses(earlab, instance):
    for kind in workloads.ORACLE_KINDS:
        payload = ok_payload(earlab, "oracle", kind, instance.path)
        checkers.PAYLOAD_CHECKS[f"oracle-{kind}"](payload, instance)
    payload = ok_payload(earlab, "oracle", "longest-path", instance.path)
    payload["value"] += 1
    with pytest.raises(CheckError):
        checkers.PAYLOAD_CHECKS["oracle-longest-path"](payload, instance)
    payload = ok_payload(earlab, "oracle", "quasi-kernel", instance.path)
    payload["witness"] = payload["witness"][1:]
    with pytest.raises(CheckError):
        checkers.PAYLOAD_CHECKS["oracle-quasi-kernel"](payload, instance)


def test_census_identity_uses_the_benchmarks_own_automorphism_count(earlab):
    pinned = earlab.oriented.tournament_T().code_string()
    assert checkers.automorphism_count(pinned) == 3
    assert checkers.walk_property(pinned)
    census = {"iso_class_count": 1, "witness": pinned, "labeled_count": 240,
              "witness_isomorphic_to_reference": True}
    checkers.check_census(census)
    with pytest.raises(CheckError, match="not 720"):
        checkers.check_census(dict(census, labeled_count=239))


# --- reference speed ---------------------------------------------------------

def test_call_factors_follow_the_chunks_around_each_call():
    fast = calibrate.REF_MS / 1000
    chunks = [fast] * 10 + [2 * fast] * 11
    factors = calibrate.call_factors(chunks)
    assert len(factors) == 20
    assert factors[0] == 1.0 and factors[-1] == 0.5
    # A call whose window straddles the change gets a factor in between.
    assert 0.5 <= factors[9] <= 1.0


# --- runs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    result, tally = run.run(workload, seed=3, seconds=0, trace=False, smoke=True)
    assert result["failed"] == 0, tally.failures
    assert result["correct"] is True
    decided = result["metrics"]["decided_ratio"]["value"]
    if workload == "exact-search":
        assert 0 < decided < 1
    else:
        assert decided == 1


def test_traced_run_repeats_untraced_bytes_and_reports_every_layer():
    result, tally = run.run("certify-ladder", seed=3, seconds=0, trace=True, smoke=True)
    assert result["failed"] == 0, tally.failures
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["ears.validate_decomposition.calls"]["value"] > 0
    assert metrics["ears.generate_random_le.calls"]["value"] == 2
    assert metrics["ears.find_le_decomposition.calls"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
