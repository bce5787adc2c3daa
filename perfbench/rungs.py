#!/usr/bin/env python3
"""Per-rung layer times from a certify-ladder spans file.

    python3 perfbench/rungs.py .perfbench/spans-certify-ladder-seed1.jsonl.gz

Prints, for each short-ear rung, the mean traced milliseconds per call of
the five functions the seed probe table in ROADMAP.md lists (validate,
oriented, quasi-kernel, color, find_ear).
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys

COLUMNS = (("validate", "ears.validate_decomposition"),
           ("oriented", "oriented.oriented_coloring_le3"),
           ("quasi-kernel", "constructions.small_quasi_kernel"),
           ("color", "coloring.proper_3_coloring"),
           ("find_ear", "ears.find_ear_decomposition"))


def main(path: str) -> None:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    rung_of = {int(k): v["rung"] for k, v in header["ops"].items()}
    times: dict[tuple[str, str], list[float]] = {}
    for name, start, end, _, op in spans:
        rung = rung_of.get(op)
        if rung and rung.startswith("rung-short-"):
            times.setdefault((rung, name), []).append((end - start) * 1000)
    rungs = sorted({r for r, _ in times}, key=lambda r: int(r.rsplit("-", 1)[1]))
    print("| rung | " + " | ".join(c for c, _ in COLUMNS) + " |")
    print("|---|" + "---:|" * len(COLUMNS))
    for rung in rungs:
        cells = [f"{statistics.mean(times[(rung, n)]):.0f}" if (rung, n) in times else "-"
                 for _, n in COLUMNS]
        print(f"| {rung} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main(sys.argv[1])
