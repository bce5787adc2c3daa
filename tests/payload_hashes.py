"""Print one hash of the benchmark's op payloads per workload.

    python tests/payload_hashes.py

Run from the root of an earlab checkout.  For each workload of
perfbench/run.py at seed 11, the seeded op list is built and run once
in-process, as a benchmark pass runs it, and one line is printed: the
workload, its op count and the first 16 hex digits of a SHA-256 over each
op's stdout (timing field zeroed by checkers.normalized) followed by its
exit code as str(code), in op order.  Two checkouts whose lines match
print the same bytes on every op.  Nothing in the checkout is written: the
inputs go to a temporary directory that is removed afterwards, and no
bytecode is cached.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout's bytecode caches as they are
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checkers  # noqa: E402  (perfbench/checkers.py)
import run  # noqa: E402  (perfbench/run.py)

SEED = 11


def workload_hash(workload: str, workdir: str) -> tuple[int, str]:
    _, ctx = run.setup(workload, SEED, workdir)
    digest = hashlib.sha256()
    for op in ctx.plan.ops:
        _, code, text = run.call(ctx.earlab.cli.main, op.argv)
        digest.update(checkers.normalized(text).encode())
        digest.update(str(code).encode())
    return len(ctx.plan.ops), digest.hexdigest()[:16]


def main() -> int:
    for workload in run.workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            count, digest = workload_hash(workload, workdir)
        print(workload, count, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
