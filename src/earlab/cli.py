"""Command-line entry point.

Every command prints a single JSON envelope {status, payload, timing_ms} on
stdout and exits 0/1/2/3 for ok / property failed / invalid input / cap
exceeded.  A plain argv is scanned against the parser's own actions, and
argparse parses every other argv (see _scan_args).  Usage errors are
argparse's, not envelopes: an unknown command, an option value of the wrong
type or --budget below 1 print usage text on stderr and exit 2.  "-" reads
stdin, and inputs wrapped in an envelope (or in a gen payload) are
unwrapped, so commands pipe into each other.  Files and stdin are strict
UTF-8, a decomposition is JSON from any source, a source named twice is
read once, and --set never shares stdin.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from .coloring import dichromatic_bounds
from .constructions import (CertifiedSet, longest_path_transversal,
                            small_quasi_kernel, seymour_vertex)
from .digraph import Digraph, digraph_from_json, parse_digraph, serialize_digraph
from .ears import (DEFAULT_BUDGET, EarDecomposition, find_ear_decomposition,
                   find_le_decomposition, generate_random_le)
from .errors import (BudgetExceededError, CapExceededError, EarlabError,
                     InvalidInputError, PropertyFailedError, VerificationError)
from .kernels import extend_kernel, restrict_kernel, trace_kernels
from .oracles import (CHROMATIC_CAP, LONGEST_LIST_CAP, ORIENTED_KMAX_CAP,
                      chromatic_oracles, kernel_oracle, longest_path_oracle,
                      oriented_chromatic_oracle, quasi_kernel_oracle)
from .oriented import (build_G, oriented_coloring_le3, tournament_T,
                       uniqueness_census, validate_reference_walks, verify_walk_property)

MAX_LEVEL_CAP = 100  # highest classify level: at most one search per level
_ESCAPE = json.encoder.encode_basestring_ascii


def _parse(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, digit limit, depth
        raise InvalidInputError(f"bad JSON: {exc}") from exc


def _unwrap(doc, key: str):
    """An envelope's payload, then its field key, when present."""
    if isinstance(doc, dict) and "payload" in doc:
        doc = doc["payload"]
    if isinstance(doc, dict) and key in doc:
        doc = doc[key]
    return doc


def _read_document(source: str) -> str | dict:
    """The stripped text of source as strict UTF-8, parsed if a JSON object."""
    try:
        if source == "-":
            if sys.stdin is None:  # as Python leaves it when fd 0 is closed
                raise InvalidInputError("cannot read -: stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8").strip()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {source}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"cannot read {source}: not UTF-8 at byte {exc.start}") from exc
    if not text:
        raise InvalidInputError("empty input")
    return _parse(text) if text.startswith("{") else text


def _reader(args):
    """A reader of the input, --decomposition and --set, by the module's rule."""
    named = {"the input": args.input, "--decomposition": args.decomposition,
             "--set": getattr(args, "set", None)}
    stdin = [option for option, source in named.items() if source == "-"]
    if len(stdin) > 1 and stdin[-1] == "--set":
        raise InvalidInputError(f"stdin is named by both {stdin[0]} and --set")
    files = dict.fromkeys(n for n in named.values() if n not in (None, "-"))
    seen = {}  # (st_ino, st_dev) of a file to the first name of it
    for name in files if len(files) > 1 else ():
        with contextlib.suppress(OSError):  # such a name fails its own read
            files[name] = seen.setdefault(os.stat(name)[1:3], name)
    read = functools.cache(_read_document)
    return lambda source: read(files.get(source) or source)


def load_digraph(source: str, read=_read_document) -> Digraph:
    document = read(source)
    return (parse_digraph(document) if isinstance(document, str)
            else digraph_from_json(_unwrap(document, "digraph")))


def load_decomposition(document: str | dict) -> EarDecomposition:
    if not isinstance(document, dict):
        raise InvalidInputError("an edge list carries no decomposition")
    return EarDecomposition.from_json(_unwrap(document, "decomposition"))


def load_vertex_set(document: str | dict) -> tuple[int, ...]:
    doc = _unwrap(_parse(document) if isinstance(document, str) else document,
                  "members")
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


def _input_and_decomposition(args, min_len: int, path_ears_only: bool = False,
                             read=None) -> tuple[Digraph, EarDecomposition]:
    """The input digraph and the decomposition given, or one searched for."""
    read = read or _reader(args)
    d = load_digraph(args.input, read)
    if args.decomposition:
        return d, load_decomposition(read(args.decomposition))
    return d, _search(d, min_len, args.budget, path_ears_only)


def cmd_decompose(args) -> dict:
    d = load_digraph(args.input)
    e = (find_ear_decomposition(d) if args.min_ear_length is None
         else _search(d, args.min_ear_length, args.budget))
    return {"decomposition": e.to_json(), "ear_count": len(e.ears),
            "min_ear_length": e.min_ear_length}


def cmd_classify(args) -> dict:
    if not 1 <= args.max_level <= MAX_LEVEL_CAP:
        refuse = InvalidInputError if args.max_level < 1 else CapExceededError
        raise refuse(f"--max-level must lie in 1..{MAX_LEVEL_CAP}, got {args.max_level}")
    d = load_digraph(args.input)
    levels: dict[str, object] = {}
    # fewer than 2 vertices have no cycle, so no level holds; above a level
    # decided "none" (or a non-strong d) all are none, above a budget stop unknown
    strong, rest, certified = True, False, 0  # every level up to certified holds
    if d.n >= 2:
        try:  # level 1, whose sweeps prove strongness
            found = find_ear_decomposition(d)
        except VerificationError:  # a built decomposition failed its check
            raise
        except PropertyFailedError:
            strong = False
        else:  # up to its shortest ear, every level for a bare cycle
            rest, certified = None, found.min_ear_length or args.max_level
    for i in range(1, args.max_level + 1):
        if rest is None and i > certified:
            try:
                found = find_le_decomposition(d, i=i, budget=args.budget)
            except BudgetExceededError:
                rest = "unknown"
            else:
                if found is None:
                    rest = False
                else:  # up to its shortest ear, every level for a bare cycle
                    certified = found.min_ear_length or args.max_level
        levels[str(i)] = True if i <= certified else rest
    max_certified = min(certified, args.max_level) or None
    return {"strong": strong, "levels": levels, "max_certified": max_certified}


def cmd_seymour(args) -> dict:
    d, e = _input_and_decomposition(args, 2)
    v, report = seymour_vertex(d, e)
    return {"vertex": v, "first_out": sorted(report.first_out),
            "second_out": sorted(report.second_out),
            "out_degree": report.out_degree,
            "second_out_degree": report.second_out_degree}


def cmd_transversal(args) -> dict:
    d, e = _input_and_decomposition(args, 2)
    return longest_path_transversal(d, e).to_json()


def cmd_quasi_kernel(args) -> dict:
    d, e = _input_and_decomposition(args, 3)
    return small_quasi_kernel(d, e).to_json()


def cmd_kernel(args) -> dict:
    if args.action != "trace" and not args.set:
        raise InvalidInputError(f"kernel {args.action} needs --set")
    read = _reader(args)
    # each flag is refused, before the input is read, where the action does
    # not read it
    if args.action == "trace" and args.set is not None:
        raise InvalidInputError("kernel trace takes no --set")
    if args.action != "trace" and args.direction is not None:
        raise InvalidInputError(f"kernel {args.action} takes no --direction")
    if args.action != "trace":
        members = load_vertex_set(read(args.set))
    d, e = _input_and_decomposition(args, 2, path_ears_only=True, read=read)
    if args.action == "trace":
        return trace_kernels(d, e, direction=args.direction or "forward")
    op = extend_kernel if args.action == "extend" else restrict_kernel
    result = op(d, e, members)
    if isinstance(result, CertifiedSet):
        return result.to_json()
    return {"obstruction": True, **result.to_json()}


def cmd_color(args) -> dict:
    d, e = _input_and_decomposition(args, 2)
    bounds = dichromatic_bounds(d, e, force_exact=args.exact)
    mapping = bounds.coloring
    return {"coloring": mapping.to_json(), "colors_used": mapping.colors_used(),
            "dichromatic": bounds.to_json()}


def cmd_oriented(args) -> dict:
    d, e = _input_and_decomposition(args, 3)
    mapping = oriented_coloring_le3(d, e)
    return {"mapping": mapping.to_json(), "colors_used": mapping.colors_used(),
            "target_order": 6}


def cmd_verify_t(args) -> dict:
    t = tournament_T()
    walks_ok = validate_reference_walks()
    property_ok = verify_walk_property(t)
    census = uniqueness_census()
    payload = {"code": t.code_string(), "out_degrees": list(t.out_degrees()),
               "reference_walks_valid": walks_ok, "walk_property": property_ok,
               "iso_class_count": census["iso_class_count"], "census": census}
    if not (walks_ok and property_ok and census["iso_class_count"] == 1
            and census["witness_isomorphic_to_reference"]):
        raise PropertyFailedError(f"verification failed: {json.dumps(payload)}")
    return payload


def cmd_census(args) -> dict:
    return uniqueness_census()


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
    # each flag is refused, before the input is read, where no oracle reads it
    if args.all and args.kind in ("chromatic", "oriented"):
        raise InvalidInputError(f"oracle {args.kind} takes no --all")
    if args.kmax is not None and args.kind != "oriented":
        raise InvalidInputError(f"oracle {args.kind} takes no --kmax")
    d = load_digraph(args.input)
    if args.kind == "kernel":
        report = kernel_oracle(d, enumerate_all=args.all)
    elif args.kind == "quasi-kernel":
        report = quasi_kernel_oracle(d, enumerate_all=args.all)
    elif args.kind == "chromatic":
        report = chromatic_oracles(d)
    elif args.kind == "oriented":
        report = oriented_chromatic_oracle(
            d, k_max=ORIENTED_KMAX_CAP if args.kmax is None else args.kmax)
    else:
        report = longest_path_oracle(d, enumerate_all=args.all)
    return {"quantity": report.quantity, "value": report.value,
            "witness": report.witness,
            "search_space_size": report.search_space_size,
            "details": report.details}


def _json_items(values, newline: str):
    """The JSON text of each value; all ints take one C pass."""
    if set(map(type, values)) == {int}:
        return map(int.__repr__, values)
    return [_json_text(v, newline) for v in values]


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for a value nested at the
    indent that follows newline.

    The stdlib writes indented JSON through a Python generator per
    container, so every int of a payload costs a frame.  This writes the
    shapes payloads hold itself: str, int, bool, None, lists and tuples
    (whole lists of ints at C speed), empty containers, dicts keyed by str
    and dicts from ints to ints.  json.dumps writes every other value and
    raises its own TypeError; there is no circular-reference check.
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
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _json_items(value, inner)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = set(map(type, value))
        if keys == {str}:
            items = map("{}: {}".format, map(_ESCAPE, value),
                        _json_items(value.values(), inner))
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        if keys == {int} == set(map(type, value.values())):
            items = map('"%d": %d'.__mod__, value.items())
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    # json escapes newlines inside strings, so each one it writes is structure
    return json.dumps(value, indent=2).replace("\n", newline)


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
    p.add_argument("--set", help="extend and restrict only: vertex set JSON "
                                 "(the kernel to propagate)")
    p.add_argument("--direction", choices=["forward", "backward"],
                   help="trace only (default forward)")
    p.set_defaults(handler=cmd_kernel)

    p = with_decomposition(with_input(sub.add_parser(
        "color", help="proper 3-coloring and dichromatic bounds")))
    p.add_argument("--exact", action="store_true", help=(
        f"exit 3 past {CHROMATIC_CAP} vertices, not exact: null; the exact "
        f"dichromatic number is computed up to {CHROMATIC_CAP} either way"))
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
    p.add_argument("--kmax", type=int, default=None,
                   help="oriented only: largest tournament order tried "
                        f"(1-{ORIENTED_KMAX_CAP}, default {ORIENTED_KMAX_CAP})")
    p.add_argument("--all", action="store_true",
                   help="kernel, quasi-kernel and longest-path only: list "
                        "every one, not just the witness and the count "
                        f"(longest-path refuses more than {LONGEST_LIST_CAP} "
                        "paths)")
    p.set_defaults(handler=cmd_oracle)

    return parser


@functools.cache
def _grammars(parser: argparse.ArgumentParser) -> dict:
    """Per command: its positionals, its options by exact string and its
    defaults.  Only one-value store and store_true actions are modelled,
    positionals required, options not, no str default (argparse types it)
    and no group, so gen and any other command are left out."""
    commands, = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    grammars = {}
    for name, sub in commands.choices.items():
        actions = [a for a in sub._actions
                   if not isinstance(a, argparse._HelpAction)]
        if sub._mutually_exclusive_groups or not all(
                type(a) in (argparse._StoreAction, argparse._StoreTrueAction)
                and a.nargs in (None, 0) and not isinstance(a.default, str)
                and a.required != bool(a.option_strings) for a in actions):
            continue
        grammars[name] = ([a for a in actions if not a.option_strings],
                          {s: a for a in actions for s in a.option_strings},
                          {commands.dest: name, **sub._defaults,
                           **{a.dest: a.default for a in actions}})
    return grammars


def _scan_args(argv):
    """The Namespace parse_args(argv) returns, for a plain argv: a command,
    then its positionals and the exact strings of its options, each value
    of its action's type and choices, and no token but "-" starting with
    "-".  None for any other argv, which argparse parses and reports."""
    grammars = _grammars(_build_parser())
    if not argv or argv[0] not in grammars:
        return None
    positionals, options, defaults = grammars[argv[0]]
    values, taken, tokens = dict(defaults), 0, iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:  # the next positional takes the token
            if taken == len(positionals):
                return None
            action, value, taken = positionals[taken], token, taken + 1
        elif action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        else:
            value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None  # no value, or one argparse may read as an option
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values) if taken == len(positionals) else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan_args(argv) or _build_parser().parse_args(argv)
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
