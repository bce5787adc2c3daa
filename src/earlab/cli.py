"""Command-line entry point.

Every command prints a single JSON envelope {status, payload, timing_ms} on
stdout and exits 0/1/2/3 for ok / property failed / invalid input / cap
exceeded.  "-" reads stdin, and inputs wrapped in an envelope (or in a
gen payload) are unwrapped, so commands pipe into each other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .coloring import dichromatic_bounds
from .constructions import (CertifiedSet, longest_path_transversal,
                            small_quasi_kernel, seymour_vertex)
from .digraph import Digraph, digraph_from_json, is_strong, parse_digraph, serialize_digraph
from .ears import (EarDecomposition, find_ear_decomposition,
                   find_le_decomposition, generate_random_le,
                   require_decomposition)
from .errors import (BudgetExceededError, CapExceededError, EarlabError,
                     InvalidInputError, PropertyFailedError)
from .kernels import extend_kernel, restrict_kernel, trace_kernels
from .oracles import (chromatic_oracles, kernel_oracle, longest_path_oracle,
                      oriented_chromatic_oracle, quasi_kernel_oracle)
from .oriented import (build_G, tournament_T, uniqueness_census,
                       validate_reference_walks, verify_walk_property)
from .oriented import oriented_coloring_le3

DEFAULT_BUDGET = 200_000
MAX_LEVEL_CAP = 100  # highest classify level: one search per level
_ESCAPE = json.encoder.encode_basestring_ascii


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {source}: {exc.strerror}") from exc


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc


def _unwrap(doc, key: str):
    """An envelope's payload, then its field key, when present."""
    if isinstance(doc, dict) and "payload" in doc:
        doc = doc["payload"]
    if isinstance(doc, dict) and key in doc:
        doc = doc[key]
    return doc


def _read_document(source: str) -> str | dict:
    """The stripped text of source, decoded when it is a JSON object."""
    text = _read_text(source).strip()
    if not text:
        raise InvalidInputError("empty input")
    return _parse(text) if text.startswith("{") else text


def _digraph_of(document: str | dict) -> Digraph:
    if isinstance(document, str):
        return parse_digraph(document)
    return digraph_from_json(_unwrap(document, "digraph"))


def load_digraph(source: str) -> Digraph:
    return _digraph_of(_read_document(source))


def load_decomposition(source: str) -> EarDecomposition:
    return EarDecomposition.from_json(
        _unwrap(_parse(_read_text(source)), "decomposition"))


def load_vertex_set(source: str) -> tuple[int, ...]:
    doc = _unwrap(_parse(_read_text(source)), "members")
    if not isinstance(doc, list) or not all(type(v) is int for v in doc):
        raise InvalidInputError("vertex set must be a JSON list of integers")
    return tuple(doc)


def _search(d: Digraph, min_len: int, budget: int,
            path_ears_only: bool = False) -> EarDecomposition:
    found = find_le_decomposition(d, i=min_len, budget=budget,
                                  allow_cycle_ears=not path_ears_only)
    if found is None:
        raise PropertyFailedError(
            f"provably none: no decomposition with every ear length >= {min_len}")
    return found


def _load_input(args) -> tuple[Digraph, str | dict | None]:
    """The input digraph and, when --decomposition names the same source
    (a gen document, or stdin), that source's document: it is read and
    decoded once."""
    if args.decomposition != args.input:
        return load_digraph(args.input), None
    document = _read_document(args.input)
    return _digraph_of(document), document


def _decomposition_for(d: Digraph, document: str | dict | None, args,
                       min_len: int, path_ears_only: bool = False
                       ) -> EarDecomposition:
    """The decomposition --decomposition names, taken from the input's
    document when that is its source, or else one searched for."""
    if isinstance(document, dict):
        return EarDecomposition.from_json(_unwrap(document, "decomposition"))
    if args.decomposition:
        return load_decomposition(args.decomposition)
    return _search(d, min_len, args.budget, path_ears_only)


def cmd_decompose(args) -> dict:
    d = load_digraph(args.input)
    if args.min_ear_length:
        e = _search(d, args.min_ear_length, args.budget)
    else:
        e = find_ear_decomposition(d)
    return {"decomposition": e.to_json(), "ear_count": len(e.ears),
            "min_ear_length": e.min_ear_length}


def cmd_classify(args) -> dict:
    if not 1 <= args.max_level <= MAX_LEVEL_CAP:
        refuse = InvalidInputError if args.max_level < 1 else CapExceededError
        raise refuse(f"--max-level must lie in 1..{MAX_LEVEL_CAP}, got {args.max_level}")
    d = load_digraph(args.input)
    strong = is_strong(d)
    levels: dict[str, object] = {}
    max_certified = None
    # a digraph on fewer than 2 vertices has no cycle, so no level holds;
    # once a level is decided "none" (or d is not strong) every higher level
    # is provably none too; after a budget stop every higher one is unknown
    rest = None if strong and d.n >= 2 else False
    for i in range(1, args.max_level + 1):
        if rest is not None:
            levels[str(i)] = rest
            continue
        try:
            # every strong digraph on >= 2 vertices has an ear decomposition
            found = (find_ear_decomposition(d) if i == 1 else
                     find_le_decomposition(d, i=i, budget=args.budget))
        except BudgetExceededError:
            levels[str(i)] = rest = "unknown"
            continue
        levels[str(i)] = found is not None
        if found is not None:
            max_certified = i
        else:
            rest = False
    return {"strong": strong, "levels": levels, "max_certified": max_certified}


def cmd_seymour(args) -> dict:
    d, document = _load_input(args)
    e = _decomposition_for(d, document, args, 2)
    v, report = seymour_vertex(d, e)
    return {"vertex": v, "first_out": sorted(report.first_out),
            "second_out": sorted(report.second_out),
            "out_degree": report.out_degree,
            "second_out_degree": report.second_out_degree}


def cmd_transversal(args) -> dict:
    d, document = _load_input(args)
    e = _decomposition_for(d, document, args, 2)
    return longest_path_transversal(d, e).to_json()


def cmd_quasi_kernel(args) -> dict:
    d, document = _load_input(args)
    e = _decomposition_for(d, document, args, 3)
    return small_quasi_kernel(d, e).to_json()


def _last_stage_parts(d: Digraph, document: str | dict | None, args):
    e = _decomposition_for(d, document, args, 2, path_ears_only=True)
    # a searched decomposition is validated in path-ears mode by the search
    if args.decomposition:
        require_decomposition(d, e, 2, "kernel propagation", path_ears_only=True)
    if not e.ears:
        raise InvalidInputError("decomposition has no ears to propagate across")
    return e.stage(len(e.ears) - 1), e.ears[-1]


def cmd_kernel(args) -> dict:
    d, document = _load_input(args)
    if args.action == "trace":
        e = _decomposition_for(d, document, args, 2, path_ears_only=True)
        return trace_kernels(d, e, direction=args.direction).to_json()
    if not args.set:
        raise InvalidInputError(f"kernel {args.action} needs --set")
    members = load_vertex_set(args.set)
    stage, ear = _last_stage_parts(d, document, args)
    op = extend_kernel if args.action == "extend" else restrict_kernel
    result = op(stage, ear, members)
    if isinstance(result, CertifiedSet):
        return result.to_json()
    return {"obstruction": True, **result.to_json()}


def cmd_color(args) -> dict:
    d, document = _load_input(args)
    e = _decomposition_for(d, document, args, 2)
    bounds = dichromatic_bounds(d, e, force_exact=args.exact)
    mapping = bounds.coloring
    return {"coloring": mapping.to_json(), "colors_used": mapping.colors_used(),
            "dichromatic": bounds.to_json()}


def cmd_oriented(args) -> dict:
    d, document = _load_input(args)
    e = _decomposition_for(d, document, args, 3)
    mapping = oriented_coloring_le3(d, e)
    return {"mapping": mapping.to_json(),
            "colors_used": mapping.colors_used(),
            "target_order": 6}


def cmd_verify_t(args) -> dict:
    t = tournament_T()
    walks_ok = validate_reference_walks()
    property_ok = verify_walk_property(t)
    census = uniqueness_census()
    payload = {"code": t.code_string(), "out_degrees": list(t.out_degrees()),
               "reference_walks_valid": walks_ok, "walk_property": property_ok,
               "iso_class_count": census.iso_class_count,
               "census": census.to_json()}
    if not (walks_ok and property_ok and census.iso_class_count == 1
            and census.witness_isomorphic_to_reference):
        raise PropertyFailedError(f"verification failed: {json.dumps(payload)}")
    return payload


def cmd_census(args) -> dict:
    return uniqueness_census().to_json()


def cmd_gen(args) -> dict:
    if args.gi is not None:
        return serialize_digraph(build_G(args.gi))
    d, e = generate_random_le(
        base_length=args.base, ear_count=args.ears,
        min_ear_length=args.min_ear_length,
        max_ear_length=args.max_ear_length,
        cycle_ear_probability=args.cycle_ear_prob, seed=args.seed)
    return {"digraph": serialize_digraph(d), "decomposition": e.to_json()}


def cmd_oracle(args) -> dict:
    d = load_digraph(args.input)
    if args.kind == "kernel":
        report = kernel_oracle(d, enumerate_all=args.all)
    elif args.kind == "quasi-kernel":
        report = quasi_kernel_oracle(d, enumerate_all=args.all)
    elif args.kind == "chromatic":
        report = chromatic_oracles(d)
    elif args.kind == "oriented":
        report = oriented_chromatic_oracle(d, k_max=args.kmax)
    else:
        report = longest_path_oracle(d)
    return {"quantity": report.quantity, "value": report.value,
            "witness": report.witness,
            "search_space_size": report.search_space_size,
            "details": report.details}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    if isinstance(key, str):
        return _ESCAPE(key)
    if isinstance(key, float):
        return _ESCAPE(_json_float(key))
    if key is True or key is False or key is None:
        return _ESCAPE(_json_text(key))
    if isinstance(key, int):
        return _ESCAPE(int.__repr__(key))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_items(values, newline: str):
    """The JSON text of each value; all ints take one C pass."""
    if set(map(type, values)) == {int}:
        return map(int.__repr__, values)
    return [_json_text(v, newline) for v in values]


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for a value nested at the
    indent that follows newline.

    The stdlib writes indented JSON through a Python generator per
    container, so every int of a payload costs a frame; this joins whole
    lists of ints, and dicts from ints to ints, at C speed.  Floats, bools, None and dict keys
    follow json's rules; there is no circular-reference check.
    """
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _json_items(value, inner)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) == {int} == set(map(type, value.values())):
            items = map('"%d": %d'.__mod__, value.items())
        else:
            items = map("{}: {}".format, map(_json_key, value),
                        _json_items(value.values(), inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    "is not JSON serializable")


def _budget(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earlab",
        description="Construct and verify certificates on strong digraphs "
                    "with long-ear decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", help="edge list or JSON digraph; '-' for stdin")
        return p

    def with_budget(p):
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                       help="remainders the exact LE_i search may try (>= 1)")
        return p

    def with_decomposition(p):
        p.add_argument("--decomposition",
                       help="decomposition JSON file; searched for if absent")
        return with_budget(p)

    p = with_budget(with_input(sub.add_parser(
        "decompose", help="find an ear decomposition")))
    p.add_argument("--min-ear-length", type=int, default=None)
    p.set_defaults(handler=cmd_decompose)

    p = with_budget(with_input(sub.add_parser(
        "classify", help="which minimum ear lengths hold")))
    p.add_argument("--max-level", type=int, default=3)
    p.set_defaults(handler=cmd_classify)

    p = with_decomposition(with_input(sub.add_parser(
        "seymour", help="vertex with second neighborhood at least first")))
    p.set_defaults(handler=cmd_seymour)

    p = with_decomposition(with_input(sub.add_parser(
        "transversal", help="independent set meeting every longest path")))
    p.set_defaults(handler=cmd_transversal)

    p = with_decomposition(with_input(sub.add_parser(
        "quasi-kernel", help="small quasi-kernel construction")))
    p.set_defaults(handler=cmd_quasi_kernel)

    p = sub.add_parser("kernel", help="kernel propagation across the last ear")
    p.add_argument("action", choices=["extend", "restrict", "trace"])
    with_decomposition(with_input(p))
    p.add_argument("--set", help="vertex set JSON (kernel to propagate)")
    p.add_argument("--direction", choices=["forward", "backward"],
                   default="forward")
    p.set_defaults(handler=cmd_kernel)

    p = with_decomposition(with_input(sub.add_parser(
        "color", help="proper 3-coloring and dichromatic bounds")))
    p.add_argument("--exact", action="store_true",
                   help="force the exact dichromatic oracle")
    p.set_defaults(handler=cmd_color)

    p = with_decomposition(with_input(sub.add_parser(
        "oriented", help="homomorphism into the order-6 tournament")))
    p.set_defaults(handler=cmd_oriented)

    p = sub.add_parser("verify-T", help="walk property, fixtures, and census")
    p.set_defaults(handler=cmd_verify_t)

    p = sub.add_parser("census", help="order-6 walk-property census")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("gen", help="generate instances")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--le", action="store_true",
                       help="random digraph with an ear decomposition")
    group.add_argument("--gi", type=int, default=None,
                       help="quadratic-blowup family member")
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--ears", type=int, default=3)
    p.add_argument("--min-ear-length", type=int, default=2)
    p.add_argument("--max-ear-length", type=int, default=None)
    p.add_argument("--cycle-ear-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive reference checks")
    p.add_argument("kind", choices=["kernel", "quasi-kernel", "chromatic",
                                    "oriented", "longest-path"])
    with_input(p)
    p.add_argument("--kmax", type=int, default=7,
                   help="oriented: largest tournament order tried (1-7)")
    p.add_argument("--all", action="store_true",
                   help="kernel and quasi-kernel: enumerate every one, not "
                        "just the witness (longest-path always enumerates)")
    p.set_defaults(handler=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    status, payload, error, code = "ok", None, None, 0
    try:
        payload = args.handler(args)
    except EarlabError as exc:
        status, error, code = exc.status, str(exc), exc.exit_code
    envelope = {"status": status, "payload": payload,
                "timing_ms": int((time.perf_counter() - started) * 1000)}
    if error is not None:
        envelope["error"] = error
    try:
        sys.stdout.write(_json_text(envelope) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`); the rest of the output goes
        # to the null device, so the flush at interpreter exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
