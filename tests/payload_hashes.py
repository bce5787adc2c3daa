"""Print one hash of the benchmark's op payloads per workload, or per op.

    python tests/payload_hashes.py
    python tests/payload_hashes.py --ops

Run from the root of an earlab checkout.  For each workload of
perfbench/run.py at seed 11, the seeded op list is built and run once
in-process, as a benchmark pass runs it, and one line is printed: the
workload, its op count and the first 16 hex digits of a SHA-256 over each
op's stdout (timing field zeroed by checkers.normalized) followed by its
exit code as str(code), in op order.  Two checkouts whose lines match
print the same bytes on every op.  With --ops, one line per op instead:
the workload, the op id, its argv with each input path cut to its file
name, and the first 16 hex digits of a SHA-256 over that op's bytes
alone; diffing two checkouts' listings names the ops whose output
changed.  Nothing in the checkout is written: the inputs go to a
temporary directory that is removed afterwards, and no bytecode is cached.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout's bytecode caches as they are
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checkers  # noqa: E402  (perfbench/checkers.py)
import run  # noqa: E402  (perfbench/run.py)

SEED = 11


def op_outputs(workload: str, workdir: str):
    """Each op of the workload with the bytes it is hashed by: its
    normalized stdout, then its exit code as str(code)."""
    _, ctx = run.setup(workload, SEED, workdir)
    for op in ctx.plan.ops:
        _, code, text = run.call(ctx.earlab.cli.main, op.argv)
        yield op, (checkers.normalized(text) + str(code)).encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", action="store_true",
                        help="print one line per op instead of per workload")
    args = parser.parse_args(argv)
    for workload in run.workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            digest, count = hashlib.sha256(), 0
            for op, output in op_outputs(workload, workdir):
                digest.update(output)
                count += 1
                if args.ops:
                    short = " ".join(os.path.basename(a) if a.startswith(workdir)
                                     else a for a in op.argv)
                    print(workload, op.id, short,
                          hashlib.sha256(output).hexdigest()[:16])
        if not args.ops:
            print(workload, count, digest.hexdigest()[:16])
    return 0


if __name__ == "__main__":
    sys.exit(main())
