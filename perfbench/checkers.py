"""Independent certificate checkers and the envelope outcome classifier.

Stdlib only.  Nothing here imports earlab: every certificate the CLI prints
is re-checked from the benchmark's own copy of the input, in O(n + m) per
certificate (the census checks work on the fixed 6-vertex tournament).
A failed check raises CheckError naming what is wrong.
"""

from __future__ import annotations

import json
import re
from itertools import permutations

OK = "ok"
PROVABLY_NONE = "provably-none"
BUDGET_STOP = "budget-stop"
CAP_REFUSAL = "cap-refusal"
ERROR = "error"

EXIT_CODES = {"ok": 0, "property_failed": 1, "invalid_input": 2,
              "cap_exceeded": 3}

# BudgetExceededError subclasses the oracle caps' CapExceededError, so both
# arrive as status cap_exceeded with exit code 3; only the text tells them
# apart.
_BUDGET_TEXT = "search budget exhausted"
_CAP_TEXT = re.compile(r"capped at \d+")
_NONE_TEXTS = ("provably none", "no ear decomposition with every ear length")

_TIMING = re.compile(r'"timing_ms": -?\d+')


class CheckError(Exception):
    """A CLI result failed the benchmark's own check."""


def normalized(text: str) -> str:
    """Captured stdout without its timing field, for byte comparison."""
    return _TIMING.sub('"timing_ms": 0', text)


def classify_envelope(code, text: str):
    """(outcome, envelope) for one captured CLI call.

    code is main()'s return value, or None when the call raised.  Anything
    that is not exactly one well-formed envelope whose status matches its
    exit code is an error, as is a failure status outside the three
    recognised ones.
    """
    if code is None:
        return ERROR, None
    try:
        env = json.loads(text)
    except ValueError:
        return ERROR, None
    if not isinstance(env, dict):
        return ERROR, None
    status = env.get("status")
    keys = {"status", "payload", "timing_ms"} | ({"error"} if status != "ok" else set())
    if set(env) != keys or EXIT_CODES.get(status) != code:
        return ERROR, env
    if not isinstance(env["timing_ms"], int):
        return ERROR, env
    if status == "ok":
        return (OK, env) if isinstance(env["payload"], dict) else (ERROR, env)
    message = env["error"] if isinstance(env["error"], str) else ""
    if status == "cap_exceeded":
        if _BUDGET_TEXT in message:
            return BUDGET_STOP, env
        if _CAP_TEXT.search(message):
            return CAP_REFUSAL, env
        return ERROR, env
    if status == "property_failed" and any(t in message for t in _NONE_TEXTS):
        return PROVABLY_NONE, env
    return ERROR, env


# --- graph helpers ---------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def out_lists(vertices, arcs) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in arcs:
        out[u].append(v)
    return out


def _int_keys(assignment) -> dict[int, int]:
    _require(isinstance(assignment, dict), "assignment is not an object")
    return {int(k): v for k, v in assignment.items()}


def _vertex_set(members, vertices) -> set[int]:
    _require(isinstance(members, list), "member list missing")
    s = set(members)
    _require(len(s) == len(members), "member list repeats a vertex")
    _require(s <= set(vertices), "member outside the vertex set")
    return s


def check_independent(s: set[int], arcs) -> None:
    for u, v in arcs:
        _require(not (u in s and v in s), f"arc ({u},{v}) joins two members")


def check_kernel(vertices, arcs, members) -> None:
    """Independent and absorbing: every non-member has an out-arc into it."""
    s = _vertex_set(members, vertices)
    check_independent(s, arcs)
    absorbed = {u for u, v in arcs if v in s}
    missed = [v for v in vertices if v not in s and v not in absorbed]
    _require(not missed, f"vertex {missed[:1]} not absorbed by the kernel")


def check_quasi_kernel(vertices, arcs, members, small: bool) -> None:
    """Independent, reaches every non-member within two steps, and, when
    small is asked for, at most half the vertices."""
    s = _vertex_set(members, vertices)
    check_independent(s, arcs)
    one = {u for u, v in arcs if v in s}
    two = {u for u, v in arcs if v in one}
    missed = [v for v in vertices if v not in s and v not in one and v not in two]
    _require(not missed, f"vertex {missed[:1]} is more than 2 steps from Q")
    if small:
        _require(2 * len(s) <= len(vertices),
                 f"|Q| = {len(s)} exceeds half of n = {len(vertices)}")


def check_proper_coloring(vertices, arcs, assignment, max_colors: int) -> int:
    colors = _int_keys(assignment)
    _require(set(colors) == set(vertices), "coloring does not cover the vertices")
    used = set(colors.values())
    _require(all(isinstance(c, int) and 1 <= c <= max_colors for c in used),
             f"color outside 1..{max_colors}")
    for u, v in arcs:
        _require(colors[u] != colors[v], f"arc ({u},{v}) is monochromatic")
    return len(used)


def check_acyclic_coloring(vertices, arcs, assignment, max_colors: int) -> None:
    """Each color class induces an acyclic digraph (Kahn's algorithm)."""
    colors = _int_keys(assignment)
    _require(set(colors) == set(vertices), "coloring does not cover the vertices")
    _require(all(1 <= c <= max_colors for c in colors.values()),
             f"color outside 1..{max_colors}")
    inner = [(u, v) for u, v in arcs if colors[u] == colors[v]]
    indeg = {v: 0 for v in vertices}
    out = out_lists(vertices, inner)
    for _, v in inner:
        indeg[v] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in out[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    _require(seen == len(indeg), "a color class contains a directed cycle")


def tournament_out(code: str) -> list[set[int]]:
    """Out-neighbour sets of the tournament with this upper-triangle code."""
    _require(isinstance(code, str) and set(code) <= {"0", "1"},
             f"bad tournament code {code!r}")
    k = 1
    while k * (k - 1) // 2 < len(code):
        k += 1
    _require(k * (k - 1) // 2 == len(code), f"bad tournament code length {len(code)}")
    out = [set() for _ in range(k)]
    bits = iter(code)
    for i in range(k):
        for j in range(i + 1, k):
            if next(bits) == "1":
                out[i].add(j)
            else:
                out[j].add(i)
    return out


def check_homomorphism(vertices, arcs, assignment, code: str) -> int:
    """Arc-preserving map into the tournament; returns the tournament order."""
    target = tournament_out(code)
    images = _int_keys(assignment)
    _require(set(images) == set(vertices), "mapping does not cover the vertices")
    _require(all(isinstance(c, int) and 0 <= c < len(target) for c in images.values()),
             "image outside the tournament")
    for u, v in arcs:
        _require(images[v] in target[images[u]],
                 f"arc ({u},{v}) maps to non-arc ({images[u]},{images[v]})")
    return len(target)


def check_path(arcs, path) -> int:
    _require(isinstance(path, list) and path, "empty path")
    _require(len(set(path)) == len(path), "path repeats a vertex")
    arcset = set(arcs)
    for a in zip(path, path[1:]):
        _require(a in arcset, f"path step {a} is not an arc")
    return len(path) - 1


def check_decomposition(n: int, arcs, doc, min_len: int = 1,
                        path_ears_only: bool = False) -> list[list[int]]:
    """Base cycle, endpoints in the stage, interior and arcs new, full cover,
    minimum ear length.  Strongness of each stage follows from these rules,
    so it is not tested separately.  Returns the ears."""
    _require(isinstance(doc, dict) and isinstance(doc.get("base"), list)
             and isinstance(doc.get("ears"), list), "malformed decomposition")
    arcset = set(arcs)
    base = doc["base"]
    _require(len(base) >= 2, "base cycle shorter than 2")
    _require(len(set(base)) == len(base), "base cycle repeats a vertex")
    covered_v = set(base)
    covered_a = set()
    for a in zip(base, base[1:] + base[:1]):
        _require(a in arcset, f"base arc {a} not in the digraph")
        covered_a.add(a)
    for idx, ear in enumerate(doc["ears"]):
        where = f"ear {idx}"
        _require(isinstance(ear, list) and len(ear) >= 2, f"{where}: too short")
        x0, xr = ear[0], ear[-1]
        _require(x0 in covered_v and xr in covered_v,
                 f"{where}: endpoint outside the stage")
        _require(len(ear) - 1 >= min_len,
                 f"{where}: length {len(ear) - 1} below {min_len}")
        if x0 == xr:
            _require(not path_ears_only, f"{where}: cycle ear in path-ears mode")
            _require(len(ear) >= 3, f"{where}: loop ear")
        interior = ear[1:-1]
        for v in interior:
            _require(v not in covered_v, f"{where}: interior vertex {v} reused")
            covered_v.add(v)
        for a in zip(ear, ear[1:]):
            _require(a in arcset, f"{where}: arc {a} not in the digraph")
            _require(a not in covered_a, f"{where}: arc {a} already covered")
            covered_a.add(a)
    _require(covered_v == set(range(n)), "vertices left uncovered")
    _require(covered_a == arcset, "arcs left uncovered")
    return doc["ears"]


def stages(doc) -> list[tuple[set[int], list[tuple[int, int]]]]:
    """Vertex and arc sets of every stage of a checked decomposition."""
    base = doc["base"]
    verts = set(base)
    arcs = list(zip(base, base[1:] + base[:1]))
    out = [(set(verts), list(arcs))]
    for ear in doc["ears"]:
        verts.update(ear)
        arcs.extend(zip(ear, ear[1:]))
        out.append((set(verts), list(arcs)))
    return out


# --- the pinned order-6 tournament ----------------------------------------

def walk_property(code: str) -> bool:
    """Every ordered pair of distinct vertices joined by walks of lengths 3,
    4 and 5."""
    out = tournament_out(code)
    k = len(out)
    reach = [{v} for v in range(k)]
    for length in range(1, 6):
        reach = [set().union(*(out[w] for w in reach[v])) for v in range(k)]
        if length >= 3 and any(reach[i] | {i} != set(range(k)) for i in range(k)):
            return False
    return True


def _relabeled(code: str, perm) -> str:
    out = tournament_out(code)
    k = len(out)
    return "".join("1" if perm[j] in out[perm[i]] else "0"
                   for i in range(k) for j in range(i + 1, k))


def automorphism_count(code: str) -> int:
    k = len(tournament_out(code))
    return sum(1 for p in permutations(range(k)) if _relabeled(code, p) == code)


def isomorphic(a: str, b: str) -> bool:
    k = len(tournament_out(a))
    return len(a) == len(b) and any(_relabeled(a, p) == b for p in permutations(range(k)))


def check_census(payload) -> None:
    """One class, walk property on the witness, and the orbit-stabiliser
    identity labeled_count * |Aut(T)| = 6! with |Aut(T)| counted here."""
    _require(payload.get("iso_class_count") == 1, "census found more than one class")
    witness = payload.get("witness")
    _require(walk_property(witness), "census witness lacks the walk property")
    count = payload.get("labeled_count")
    _require(isinstance(count, int) and count * automorphism_count(witness) == 720,
             f"labeled_count {count} times |Aut(T)| is not 720")
    _require(payload.get("witness_isomorphic_to_reference") is True,
             "census witness not isomorphic to the reference")


# --- per-command payload checks ---------------------------------------------
# Each takes the payload and the benchmark's own record of the input (n,
# arcs, and the decomposition handed to the CLI, if any).

def _check_decompose(payload, inst, min_len=1):
    ears = check_decomposition(inst.n, inst.arcs, payload.get("decomposition"), min_len)
    _require(payload.get("ear_count") == len(ears) == len(inst.arcs) - inst.n,
             "ear count does not match m - n")
    lengths = [len(e) - 1 for e in ears]
    _require(payload.get("min_ear_length") == (min(lengths) if lengths else None),
             "reported min_ear_length is wrong")


def _check_seymour(payload, inst):
    v = payload.get("vertex")
    _require(v in range(inst.n), "Seymour vertex outside the digraph")
    out = out_lists(range(inst.n), inst.arcs)
    first = set(out[v])
    second = set()
    for w in first:
        second.update(out[w])
    second -= first | {v}
    _require(payload.get("first_out") == sorted(first), "first_out is wrong")
    _require(payload.get("second_out") == sorted(second), "second_out is wrong")
    _require(len(second) >= len(first), f"|N++({v})| < |N+({v})|")


def _check_quasi_kernel(payload, inst):
    _require(payload.get("role") == "quasi_kernel", "wrong role")
    check_quasi_kernel(range(inst.n), inst.arcs, payload.get("members"), small=True)


def _check_transversal(payload, inst):
    _require(payload.get("role") == "transversal", "wrong role")
    members = _vertex_set(payload.get("members"), range(inst.n))
    _require(members, "empty transversal")
    check_independent(members, inst.arcs)


def _check_color(payload, inst, exact=False):
    coloring = payload.get("coloring") or {}
    used = check_proper_coloring(range(inst.n), inst.arcs, coloring.get("assignment"), 3)
    _require(payload.get("colors_used") == used, "colors_used is wrong")
    bounds = payload.get("dichromatic") or {}
    _require(bounds.get("lower") == 2 and bounds.get("upper") == 3,
             "dichromatic bounds are not [2, 3]")
    value = bounds.get("exact")
    if exact or value is not None:
        _require(value in (2, 3), f"exact dichromatic number {value!r} outside [2, 3]")


def _check_oriented(payload, inst):
    mapping = payload.get("mapping") or {}
    k = check_homomorphism(range(inst.n), inst.arcs, mapping.get("assignment"),
                           mapping.get("target"))
    _require(k == payload.get("target_order") == 6, "target is not of order 6")
    _require(payload.get("colors_used") == len(set(mapping["assignment"].values())),
             "colors_used is wrong")


def _check_classify(payload, inst):
    """LE_2-built inputs: strong, and never False at level 1 or 2."""
    _require(payload.get("strong") is True, "strong input reported not strong")
    levels = payload.get("levels") or {}
    _require(sorted(levels) == ["1", "2", "3"], "levels 1..3 not all reported")
    for i in ("1", "2"):
        _require(levels[i] is True or levels[i] == "unknown",
                 f"LE_2-built input reported {levels[i]!r} at level {i}")
    certified = [int(i) for i, v in levels.items() if v is True]
    _require(payload.get("max_certified") == (max(certified) if certified else None),
             "max_certified disagrees with the levels")


def _check_trace(payload, inst):
    entries = payload.get("stages")
    _require(isinstance(entries, list) and len(entries) == len(inst.arcs) - inst.n + 1,
             "stage count is not m - n + 1")
    flags = []
    for j, entry in enumerate(entries):
        _require(entry.get("stage") == j, "stages out of order")
        has = entry.get("has_kernel")
        _require((entry.get("kernel") is not None) == (has is True),
                 f"stage {j}: kernel presence disagrees with has_kernel")
        flags.append(has)
    _require(payload.get("flips") == [j for j in range(len(flags) - 1)
                                      if flags[j] != flags[j + 1]], "flips are wrong")
    if inst.decomposition is not None:
        for (verts, arcs), entry in zip(stages(inst.decomposition), entries):
            if entry["kernel"] is not None:
                check_kernel(verts, arcs, entry["kernel"].get("members"))
        parity = "even" if len(inst.decomposition["base"]) % 2 == 0 else "odd"
        _require(payload.get("base_parity") == parity, "base parity is wrong")
    elif entries[-1]["kernel"] is not None:
        check_kernel(range(inst.n), inst.arcs, entries[-1]["kernel"].get("members"))


def _check_oracle_kernel(payload, inst):
    value, witness = payload.get("value"), payload.get("witness")
    _require(isinstance(value, bool) and (witness is not None) == value,
             "kernel verdict disagrees with its witness")
    if value:
        check_kernel(range(inst.n), inst.arcs, witness)


def _check_oracle_quasi_kernel(payload, inst):
    witness = payload.get("witness")
    check_quasi_kernel(range(inst.n), inst.arcs, witness, small=False)
    _require(payload.get("value") == len(witness), "value is not the witness size")


def _check_oracle_chromatic(payload, inst):
    chi = payload.get("value")
    used = check_proper_coloring(range(inst.n), inst.arcs, payload.get("witness"), chi)
    _require(used == chi, "witness does not use exactly chi colors")
    details = payload.get("details") or {}
    dichi = details.get("dichromatic")
    _require(isinstance(dichi, int) and 1 <= dichi <= chi,
             "dichromatic number outside [1, chi]")
    check_acyclic_coloring(range(inst.n), inst.arcs, details.get("dichromatic_witness"), dichi)


def _check_oracle_oriented(payload, inst):
    value, witness = payload.get("value"), payload.get("witness")
    if value is None:
        _require(witness is None and payload["details"].get("exceeds") == 7,
                 "no-answer oracle result malformed")
        return
    k = check_homomorphism(range(inst.n), inst.arcs, witness.get("assignment"),
                           witness.get("tournament"))
    _require(k == value, "witness tournament order is not the value")


def _check_oracle_longest_path(payload, inst):
    length = check_path(inst.arcs, payload.get("witness"))
    _require(payload.get("value") == length, "value is not the witness length")


def _check_verify_t(payload, inst):
    code = payload.get("code")
    _require(walk_property(code), "pinned tournament lacks the walk property")
    _require(payload.get("out_degrees") == [len(s) for s in tournament_out(code)],
             "out_degrees are wrong")
    _require(payload.get("reference_walks_valid") is True
             and payload.get("walk_property") is True
             and payload.get("iso_class_count") == 1, "verify-T flags not all true")
    census = payload.get("census") or {}
    check_census(census)
    _require(isomorphic(census["witness"], code),
             "census witness not isomorphic to the pinned tournament")


PAYLOAD_CHECKS = {
    "decompose": _check_decompose,
    "decompose-le2": lambda p, i: _check_decompose(p, i, min_len=2),
    "seymour": _check_seymour,
    "quasi-kernel": _check_quasi_kernel,
    "transversal": _check_transversal,
    "color": _check_color,
    "color-exact": lambda p, i: _check_color(p, i, exact=True),
    "oriented": _check_oriented,
    "classify": _check_classify,
    "kernel-trace": _check_trace,
    "oracle-kernel": _check_oracle_kernel,
    "oracle-quasi-kernel": _check_oracle_quasi_kernel,
    "oracle-chromatic": _check_oracle_chromatic,
    "oracle-oriented": _check_oracle_oriented,
    "oracle-longest-path": _check_oracle_longest_path,
    "verify-T": _check_verify_t,
    "census": lambda p, i: check_census(p),
}
