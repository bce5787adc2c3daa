"""Exhaustive reference checks for small digraphs.

Every oracle searches exhaustively rather than constructs: the kernel,
quasi-kernel and chromatic oracles enumerate, the oriented oracle rules
out whole tournament orders by one colouring search each and tries the
classes of the first order that fits in turn, and the longest-path
oracle counts paths by a subset DP instead of listing them.  Each reports
what it searched (chromatic_oracles excepted: it reports 0), and refuses
inputs past its size cap so a silently-slow call cannot pass for a
verified answer.  Witnesses are deterministic: the lexicographically
smallest certificate under sorted-tuple order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Digraph, _require_asymmetrical
from .errors import CapExceededError, InvalidInputError, VerificationError
from .tournaments import (_CLASS_COUNTS, HomomorphismSearch, compose_rows,
                          tournament_reps)

KERNEL_CAP = 20
QUASI_KERNEL_CAP = 16
CHROMATIC_CAP = 12
ORIENTED_CAP = 14
ORIENTED_KMAX_CAP = 7
LONGEST_PATH_CAP = 15
# Longest paths listed at most: a 15-vertex path takes 220 bytes of the
# `oracle longest-path --all` envelope, so 19.8 MB at this count.
LONGEST_LIST_CAP = 90_000


@dataclass
class OracleReport:
    quantity: str
    value: object
    witness: object = None
    search_space_size: int = 0
    details: dict = field(default_factory=dict)


def _check_cap(d: Digraph, cap: int, what: str) -> None:
    if d.n > cap:
        raise CapExceededError(f"{what} oracle capped at {cap} vertices, got {d.n}")


def _index_maps(d: Digraph, verts: list[int]):
    """d's out-rows and symmetric rows as bitmasks, verts[i] at bit i."""
    pos = {v: i for i, v in enumerate(verts)}
    out = [0] * len(verts)
    sym = [0] * len(verts)
    for u, v in d.arcs:
        out[pos[u]] |= 1 << pos[v]
        sym[pos[u]] |= 1 << pos[v]
        sym[pos[v]] |= 1 << pos[u]
    return verts, out, sym


def _absorbing_sets(verts: list[int], sym: list[int],
                    rows: list[int]) -> tuple[list[tuple[int, ...]], int]:
    """Independent sets S that rows[i] meets for every vertex i outside S,
    as member tuples in lexicographic order, and the number of independent
    sets examined.

    The independent sets are enumerated include-first.  Next to the
    vertices it blocks, each branch carries met, the vertices whose row
    meets the set so far (hits[j] holds those whose row contains j), so a
    set is absorbing iff it and met cover every vertex.
    """
    n = len(verts)
    full = (1 << n) - 1
    hits = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    found: list[tuple[int, ...]] = []
    examined = 0
    stack = [(0, 0, 0, 0)]
    while stack:
        idx, mask, blocked, met = stack.pop()
        if idx == n:
            examined += 1
            if mask | met == full:
                found.append(tuple(v for i, v in enumerate(verts) if mask >> i & 1))
            continue
        stack.append((idx + 1, mask, blocked, met))
        if not blocked >> idx & 1:
            stack.append((idx + 1, mask | 1 << idx, blocked | sym[idx],
                          met | hits[idx]))
    found.sort()
    return found, examined


def kernel_oracle(d: Digraph, enumerate_all: bool = False) -> OracleReport:
    """Exhaustive kernel search: independent sets absorbing by one arc."""
    _check_cap(d, KERNEL_CAP, "kernel")
    verts, out, sym = _index_maps(d, sorted(d.vertices))
    kernels, examined = _absorbing_sets(verts, sym, out)
    details = {"kernel_count": len(kernels)}
    if enumerate_all:
        details["all_kernels"] = kernels
    return OracleReport(
        quantity="has_kernel",
        value=bool(kernels),
        witness=kernels[0] if kernels else None,
        search_space_size=examined,
        details=details,
    )


def quasi_kernel_oracle(d: Digraph, enumerate_all: bool = False) -> OracleReport:
    """Exhaustive quasi-kernel search: independent sets absorbing within
    two arcs; value is the minimum size.  Every digraph has a quasi-kernel
    (Chvatal and Lovasz, 1974), so one is always found."""
    _check_cap(d, QUASI_KERNEL_CAP, "quasi-kernel")
    verts, out, sym = _index_maps(d, sorted(d.vertices))
    reach2 = [a | b for a, b in zip(out, compose_rows(out, out))]
    found, examined = _absorbing_sets(verts, sym, reach2)
    details = {"quasi_kernel_count": len(found)}
    if enumerate_all:
        details["all_quasi_kernels"] = found
    best = min(found, key=len)  # shortest, then lexicographic
    return OracleReport(
        quantity="quasi_kernel_min_size",
        value=len(best),
        witness=best,
        search_space_size=examined,
        details=details,
    )


def _fewest_classes(n: int, fits) -> tuple[int, list[int]]:
    """Fewest classes a partition of vertices 0..n-1 needs, by ascending-k
    backtracking, and the class of each vertex; fits(v, members) decides
    whether v may join the class whose members (a bitmask) are given."""
    for k in range(1, n + 1):
        colors = [-1] * n
        classes = [0] * k

        def assign(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if fits(v, classes[c]):
                    colors[v] = c
                    classes[c] |= 1 << v
                    if assign(v + 1, max(used, c + 1)):
                        return True
                    classes[c] ^= 1 << v
            return False

        if assign(0, 0):
            return k, colors
    return n, list(range(n))


def _class_acyclic(mask: int, out: list[int]) -> bool:
    """The vertices of mask induce no directed cycle: peeling the members
    with no out-neighbour left in the set empties it."""
    while mask:
        sinks = 0
        rest = mask
        while rest:
            low = rest & -rest
            if not out[low.bit_length() - 1] & mask:
                sinks |= low
            rest ^= low
        if not sinks:
            return False
        mask ^= sinks
    return True


def _dichromatic(d: Digraph):
    """Exact dichromatic number of d by ascending-k backtracking, each
    vertex's class (from 0) in a partition into that many acyclic
    classes, and d's index in sorted order: its vertices and symmetric
    rows, which the chromatic search reuses."""
    _check_cap(d, CHROMATIC_CAP, "chromatic")
    verts, out, sym = _index_maps(d, sorted(d.vertices))
    k, classes = _fewest_classes(
        len(verts), lambda v, members: _class_acyclic(members | 1 << v, out))
    return k, classes, verts, sym


def chromatic_oracles(d: Digraph) -> OracleReport:
    """Exact chromatic number of the underlying graph plus exact dichromatic
    number, both by ascending-k backtracking.

    Unlike the other oracles it does not count its search: search_space_size
    is always 0.
    """
    dichi, dcol, verts, sym = _dichromatic(d)
    n = len(verts)
    chi, ccol = _fewest_classes(n, lambda v, members: not sym[v] & members)
    return OracleReport(
        quantity="chromatic_numbers",
        value=chi,
        witness={verts[i]: ccol[i] + 1 for i in range(n)},
        search_space_size=0,
        details={
            "chromatic": chi,
            "dichromatic": dichi,
            "dichromatic_witness": {verts[i]: dcol[i] + 1 for i in range(n)},
        },
    )


def oriented_chromatic_oracle(d: Digraph, k_max: int = ORIENTED_KMAX_CAP) -> OracleReport:
    """Smallest tournament order admitting a homomorphism from d.

    Each order k from 1 up is first decided by one search for an oriented
    k-colouring (`HomomorphismSearch.fits_order`).  Only at the first order
    it accepts are the isomorphism class representatives tried one by one,
    in ascending order, for the witness, so the value is exact whenever one
    is found within k_max.  search_space_size counts the classes tried or
    ruled out: every class of each lower order plus the witness's position
    among its own, or every class up to k_max when none fits.  A ruled-out
    order adds its known class count (_CLASS_COUNTS): its classes are
    counted, not enumerated.  An accepted order that no class admits raises
    VerificationError.
    """
    _check_cap(d, ORIENTED_CAP, "oriented chromatic")
    if k_max > ORIENTED_KMAX_CAP:
        raise CapExceededError(
            f"oriented chromatic oracle capped at target order {ORIENTED_KMAX_CAP}")
    if k_max < 1:
        raise InvalidInputError(f"target order must be >= 1, got {k_max}")
    _require_asymmetrical(d, "oriented coloring")
    search = HomomorphismSearch(d)
    tried = 0
    for k in range(1, k_max + 1):
        if not search.fits_order(k):
            tried += _CLASS_COUNTS[k - 1]
            continue
        for t in tournament_reps(k):
            tried += 1
            phi = search.into(t)
            if phi is not None:
                return OracleReport(
                    quantity="oriented_chromatic_number",
                    value=k,
                    witness={"assignment": phi, "tournament": t.code_string()},
                    search_space_size=tried,
                    details={"target_order": k},
                )
        raise VerificationError(
            f"an oriented {k}-colouring exists but no order-{k} tournament admits it")
    return OracleReport(
        quantity="oriented_chromatic_number",
        value=None,
        witness=None,
        search_space_size=tried,
        details={"exceeds": k_max},
    )


def _longest_path_layers(out: list[int]) -> list[dict]:
    """The DP's layers, up to the last non-empty one (the invariant is in
    longest_path_oracle's docstring)."""
    layers = [{(1 << v, v): 1 for v in range(len(out))}]
    for _ in range(1, len(out)):  # a simple path has at most n - 1 arcs
        layer: dict[tuple[int, int], int] = {}
        for (mask, v), count in layers[-1].items():
            free = out[v] & ~mask  # the out-neighbours off the path
            while free:
                bit = free & -free
                free ^= bit
                key = (mask | bit, bit.bit_length() - 1)
                layer[key] = layer.get(key, 0) + count
        if not layer:
            break
        layers.append(layer)
    return layers


def _ahead(out: list[int], layers: list[dict]) -> tuple[list[int], list[dict]]:
    """The first vertices of the longest paths, and per layer k below the
    last, ahead[k][mask]: the vertices w (a bitmask) for which
    (mask | 1 << w, w) is a kept state of layers[k + 1].

    A kept state is one that some longest path passes through: every state
    of the last layer, and a state (mask, v) of an earlier layer iff
    out[v] & ahead[k][mask] is not empty, that is, an arc leads from it to
    a kept state.  Each layer is passed once, one dict lookup a state."""
    ahead = []
    kept = list(layers[-1])
    for layer in reversed(layers[:-1]):
        nxt: dict[int, int] = {}
        for mask, w in kept:
            prev = mask ^ 1 << w
            nxt[prev] = nxt.get(prev, 0) | 1 << w
        ahead.append(nxt)
        kept = [(mask, v) for mask, v in layer if out[v] & nxt.get(mask, 0)]
    ahead.reverse()
    return sorted(v for _, v in kept), ahead


def _longest_paths(out: list[int], starts: list[int], ahead: list[dict]):
    """Every longest path, in lexicographic order, through kept states
    only.  Each kept state below the last layer has a kept successor, so
    no branch is dead and the first path is the greedy walk: the smallest
    start, then each time the smallest out-neighbour whose state is kept."""
    stack = [((v,), 1 << v) for v in reversed(starts)]
    while stack:
        path, mask = stack.pop()
        if len(path) > len(ahead):
            yield path
            continue
        nxt = out[path[-1]] & ahead[len(path) - 1][mask]
        while nxt:  # largest first, so the smallest is popped first
            w = nxt.bit_length() - 1
            nxt ^= 1 << w
            stack.append((path + (w,), mask | 1 << w))


def longest_path_oracle(d: Digraph, enumerate_all: bool = False) -> OracleReport:
    """Longest directed paths by a forward subset DP over the reachable
    states (Bellman 1962; Held and Karp 1962), counted, not listed.

    Length counts arcs; an isolated vertex is a path of length 0.  A state
    is a vertex set (a bitmask, the i-th smallest vertex at bit i) and the
    vertex where a path ends.  Invariant: layers[k] maps each state that a
    simple path with exactly k arcs reaches to the number of such paths
    with exactly that set that end there, and holds no other state.
    layers[k + 1] extends every path of layers[k] by each arc to a vertex
    outside its set, so it counts each path with k + 1 arcs once.  The
    value is the index of the last non-empty layer and maximum_count the
    sum of its counts; search_space_size counts the states reached.

    The witness is the lexicographically smallest longest path, walked
    greedily through the states that can still reach the last layer.
    With enumerate_all, details["all_longest"] lists every longest path
    in lexicographic order; a count past LONGEST_LIST_CAP is refused
    before any path is listed.
    """
    _check_cap(d, LONGEST_PATH_CAP, "longest path")
    verts, out, _ = _index_maps(d, sorted(d.vertices))
    layers = _longest_path_layers(out)
    count = sum(layers[-1].values())
    if enumerate_all and count > LONGEST_LIST_CAP:
        raise CapExceededError(f"longest path oracle lists at most "
                               f"{LONGEST_LIST_CAP} paths, found {count}")
    paths = (tuple(verts[i] for i in p)
             for p in _longest_paths(out, *_ahead(out, layers)))
    witness = next(paths, None)
    details = {"maximum_count": count}
    if enumerate_all:
        details["all_longest"] = [witness, *paths] if witness else []
    return OracleReport(
        quantity="longest_path_length",
        value=len(layers) - 1,
        witness=witness,
        search_space_size=sum(map(len, layers)),
        details=details,
    )
