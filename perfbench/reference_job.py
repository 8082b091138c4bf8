"""A fixed job that runs no oplab code, the benchmark's control measurement.

Usage: python perfbench/reference_job.py OUT_DIR

It starts Python, imports numpy and the stdlib modules the CLI uses, and
does a fixed mix of the work the CLI jobs do: Fraction arithmetic, dict and
string work, a Hermitian eigendecomposition, a large cumulative sum and a
CSV write.  Its wall time in the same run tracks the machine's speed, so the
jobs' latencies divided by it cancel the drift of a shared machine.
"""

import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np


def main(out_dir: Path) -> None:
    total = Fraction(0)
    for k in range(1, 20_000):
        total = (total + Fraction(k % 97 + 1, k % 89 + 2) * Fraction(3, k % 7 + 5)) % 1000
    table = {str(k): k * k for k in range(100_000)}
    m = np.cos(np.arange(256 * 256, dtype=float)).reshape(256, 256)
    eigenvalues, _ = np.linalg.eigh((m + m.T) + 1j * (m - m.T))
    counts = np.cumsum(np.arange(4_000_000, dtype=np.int64) % 3 == 0)
    with open(out_dir / "reference.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for k in range(20_000):
            writer.writerow([k, repr(float(eigenvalues[k % 256])), int(counts[k * 100])])
        fh.write(f"# total={total}\n# keys={len(table)}\n")
    json.dumps([float(x) for x in eigenvalues])


if __name__ == "__main__":
    main(Path(sys.argv[1]))
