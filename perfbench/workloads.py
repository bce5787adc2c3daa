"""Seeded inputs and op lists for the three benchmark workloads.

A workload writes its inputs into a directory and returns them with the
fixed list of CLI calls (ops) one pass makes over them, plus one warm-up
call per command form.  Everything is drawn from random.Random seeded by
the workload name and the run's seed, so a seed always yields the same
files and the same op order.  The CLI only ever sees the written files.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, replace

from checkers import BUDGET_STOP, OK

ORACLE_KINDS = ("kernel", "quasi-kernel", "chromatic", "oriented", "longest-path")


@dataclass
class Instance:
    """The benchmark's own record of one input file."""

    key: str
    n: int
    arcs: list[tuple[int, int]]
    path: str
    decomposition: dict | None = None
    dec_path: str | None = None


@dataclass(frozen=True)
class Op:
    id: int
    form: str               # which payload check applies
    command: str            # CLI command name
    argv: tuple[str, ...]
    instance: str | None    # input key; None for input-less commands
    rung: str | None        # certify-ladder rung label
    allowed: frozenset      # outcomes that are not errors


@dataclass
class Plan:
    instances: dict[str, Instance]
    ops: list[Op]
    warmups: list[Op]


class Builder:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.instances: dict[str, Instance] = {}
        self.ops: list[Op] = []

    def digraph(self, key: str, n: int, arcs, decomposition=None,
                edge_list: bool = False) -> Instance:
        arcs = sorted((int(u), int(v)) for u, v in arcs)
        if edge_list:
            path = os.path.join(self.workdir, key + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{u} {v}\n" for u, v in arcs))
        else:
            path = os.path.join(self.workdir, key + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "arcs": [list(a) for a in arcs]}, fh)
        inst = Instance(key, n, arcs, path)
        if decomposition is not None:
            inst.decomposition = decomposition
            inst.dec_path = os.path.join(self.workdir, key + ".dec.json")
            with open(inst.dec_path, "w", encoding="utf-8") as fh:
                json.dump(decomposition, fh)
        self.instances[key] = inst
        return inst

    def ear_instance(self, earlab, key: str, **params) -> Instance:
        d, e = earlab.ears.generate_random_le(**params)
        deco = {"base": list(e.base.vertices[:-1]),
                "ears": [list(ear.vertices) for ear in e.ears]}
        return self.digraph(key, d.n, d.arcs, deco)

    def op(self, form: str, argv, inst: Instance | None = None,
           rung: str | None = None, allowed=frozenset({OK})) -> None:
        self.ops.append(Op(-1, form, argv[0], tuple(argv),
                           inst.key if inst else None, rung, allowed))

    def plan(self, rng: random.Random, warmup_inputs=None) -> Plan:
        """Shuffle the ops so heavy and light calls interleave; warm up each
        form once on its first input (a small one) unless told otherwise."""
        warmups: dict[str, Op] = {}
        for op in self.ops:
            warmups.setdefault(op.form, op)
        for form, op in (warmup_inputs or {}).items():
            warmups[form] = op
        order = list(self.ops)
        rng.shuffle(order)
        ops = [replace(op, id=i) for i, op in enumerate(order)]
        return Plan(self.instances, ops, list(warmups.values()))


def _with_decomposition(command: str, inst: Instance, *extra: str) -> list[str]:
    return [command, inst.path, *extra, "--decomposition", inst.dec_path]


# --- certify-ladder ----------------------------------------------------------

# (profile, min ear length, max ear length, cycle-ear probability,
#  ((ears, instances), ...)).  The long profile reaches about the same n as
# the short one with about 6-7x fewer ears, which separates cost that grows
# with the ear count from cost that grows with n + m.  The 100-ear short
# rung has 8 instances so that the 90th percentile falls inside its 40 ops
# rather than on the edge between two rungs.
CERTIFY_PROFILES = (
    ("short", 3, 6, 0.15, ((25, 16), (50, 4), (100, 8), (200, 1), (400, 1))),
    ("long", 15, 30, 0.0, ((4, 16), (8, 4), (15, 2), (30, 1), (60, 1))),
)
CERTIFY_FORMS = ("decompose", "seymour", "quasi-kernel", "color", "oriented")


def certify_ladder(earlab, seed: int, workdir: str, smoke: bool = False) -> Plan:
    rng = random.Random(f"certify-ladder:{seed}")
    b = Builder(workdir)
    for profile, lo, hi, cycle_p, rungs in CERTIFY_PROFILES:
        for ears, count in rungs[:1] if smoke else rungs:
            for i in range(1 if smoke else count):
                inst = b.ear_instance(
                    earlab, f"{profile}-{ears}-{i}", base_length=5,
                    ear_count=ears, min_ear_length=lo, max_ear_length=hi,
                    cycle_ear_probability=cycle_p, seed=rng.randrange(2 ** 32))
                rung = f"rung-{profile}-{ears}"
                b.op("decompose", ["decompose", inst.path], inst, rung)
                for form in CERTIFY_FORMS[1:]:
                    b.op(form, _with_decomposition(form, inst), inst, rung)
    return b.plan(rng)


# --- exact-search --------------------------------------------------------------

# (ears, instances, also run kernel trace).  Up to 10 ears the default budget
# decides; from 12 ears on most searches stop on the budget, so the ratio of
# decided ops stays near its expected value on every seed.  The 48 ops on
# 14 and 16 ears (about 0.2-0.4 s each, most of them budget stops) are the
# top sixth of the list, so the 90th percentile falls in the middle of
# that plateau, not at its edge, and the peak memory is the largest of many
# searches.  The 6-ear ops are three quarters of the list, so the median
# falls well inside them rather than in their sparse upper tail.
EXACT_RUNGS = ((6, 80, True), (8, 6, False), (10, 3, False),
               (12, 3, False), (14, 12, False), (16, 12, False))
KERNEL_ORACLE_CAP = 20


def exact_search(earlab, seed: int, workdir: str, smoke: bool = False) -> Plan:
    rng = random.Random(f"exact-search:{seed}")
    b = Builder(workdir)
    searching = frozenset({OK, BUDGET_STOP})
    rungs = ((6, 1, True), (14, 1, False)) if smoke else EXACT_RUNGS
    for ears, count, with_trace in rungs:
        for i in range(count):
            while True:
                params = dict(base_length=4, ear_count=ears, min_ear_length=2,
                              max_ear_length=4, seed=rng.randrange(2 ** 32))
                d, _ = earlab.ears.generate_random_le(**params)
                if not with_trace or d.n <= KERNEL_ORACLE_CAP:
                    break
            inst = b.digraph(f"le2-{ears}-{i}", d.n, d.arcs)
            b.op("classify", ["classify", inst.path, "--max-level", "3"], inst)
            b.op("decompose-le2", ["decompose", inst.path, "--min-ear-length", "2"],
                 inst, allowed=searching)
            if with_trace:
                b.op("kernel-trace", ["kernel", "trace", inst.path], inst,
                     allowed=searching)
    return b.plan(rng)


# --- exhaustive-check ----------------------------------------------------------

# (n, arc probability) of the benchmark's own random strong oriented graphs.
# Density decides what the oracles cost: sparse graphs map into small
# tournaments quickly, dense ones exhaust all 532 tournaments up to order 7.
RANDOM_SHAPES = ((8, 0.3), (10, 0.2), (12, 0.1), (10, 0.6))
RANDOM_ROUNDS = 6
EAR_INSTANCES = 48


def random_strong_oriented(n: int, p: float, rng: random.Random):
    """Hamiltonian cycle on a random order (so strong) plus each remaining
    pair with probability p, in a random direction (so no digons)."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in arcs and (v, u) not in arcs and rng.random() < p:
                arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def rotational_tournament(k: int):
    """Strong tournament on k vertices (k even): i -> i+1 .. i+k/2-1, and
    i -> i+k/2 for i < k/2.  Its oriented chromatic number is k."""
    arcs = {(i, (i + d) % k) for i in range(k) for d in range(1, k // 2)}
    arcs |= {(i, i + k // 2) for i in range(k // 2)}
    return arcs


def gen_payload(earlab, argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = earlab.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"earlab {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())["payload"]


def exhaustive_check(earlab, seed: int, workdir: str, smoke: bool = False) -> Plan:
    rng = random.Random(f"exhaustive-check:{seed}")
    b = Builder(workdir)
    b.op("census", ["census"])
    b.op("verify-T", ["verify-T"])
    oracle_inputs = []
    for i in range(1 if smoke else EAR_INSTANCES):
        inst = b.ear_instance(
            earlab, f"ears-{i}", base_length=rng.choice((3, 4)),
            ear_count=rng.randint(2, 4), min_ear_length=2, max_ear_length=3,
            seed=rng.randrange(2 ** 32))
        oracle_inputs.append(inst)
        b.op("transversal", _with_decomposition("transversal", inst), inst)
        b.op("kernel-trace", ["kernel", "trace", inst.path, "--decomposition",
                              inst.dec_path], inst)
        b.op("color-exact", _with_decomposition("color", inst, "--exact"), inst)
    shapes = RANDOM_SHAPES[:1] if smoke else RANDOM_SHAPES * RANDOM_ROUNDS
    for i, (n, p) in enumerate(shapes):
        oracle_inputs.append(b.digraph(f"random-{n}-{i}", n,
                                       random_strong_oriented(n, p, rng),
                                       edge_list=True))
    g2 = gen_payload(earlab, ["gen", "--gi", "2"])
    oracle_inputs.append(b.digraph("gi-2", g2["n"], g2["arcs"]))
    for inst in oracle_inputs:
        for kind in ORACLE_KINDS:
            b.op(f"oracle-{kind}", ["oracle", kind, inst.path], inst)
    # The oriented oracle caches every tournament class up to order 7 on
    # first use; warming it on an input that needs all of them keeps that
    # one-off cost out of the timed ops.
    hard = b.digraph("warmup-tournament-8", 8, rotational_tournament(8))
    warm = Op(-1, "oracle-oriented", "oracle", ("oracle", "oriented", hard.path),
              hard.key, None, frozenset({OK}))
    return b.plan(rng, {"oracle-oriented": warm})


WORKLOADS = {
    "certify-ladder": certify_ladder,
    "exact-search": exact_search,
    "exhaustive-check": exhaustive_check,
}
