"""One sha256 over the exact kernel's answers on the benchmark's own inputs.

Usage (from the repository root):

    python3 tools/kernel_digest.py

Runs the seed-1 op lists of the ``corpus`` and ``ladder`` workloads, read
from ``taubench/workloads.py``, once in this process and records every input
that reaches ``mgt.linalg.green_numden`` (vertex count and edge list), in
call order. Then it factorizes each recorded input again and prints the
sha256 over the (N, d) pairs it gets, one ``repr`` per pair in that order.
Two versions of the kernel that print the same digest give bit-identical
Green integers on every factorization those workloads make. The digest also
covers the list of calls itself, so it moves when the workloads factorize more
or fewer graphs, even with ``mgt.linalg`` untouched. The input count
and the seconds of the second round of factorizations go to stderr.
Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "taubench")]

import workloads  # noqa: E402  (taubench/workloads.py)

SEED = 1
WORKLOADS = ("corpus", "ladder")


def recorded_inputs() -> list[tuple[int, tuple]]:
    """Every (vcount, edges) that the two op lists pass to ``green_numden``."""
    from mgt import circuit, linalg

    inputs = []
    factorize = linalg.green_numden

    def recording(vcount, edges):
        inputs.append((vcount, tuple(edges)))
        return factorize(vcount, edges)

    circuit.green_numden = linalg.green_numden = recording
    try:
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name]
            spec = wl["build"](SEED)
            prepared = wl["prepare"](spec, ROOT, False)
            for op in spec["ops"]:
                for segment in wl["segments"](op, prepared):
                    segment()
    finally:
        circuit.green_numden = linalg.green_numden = factorize
    return inputs


def main() -> int:
    from mgt.linalg import green_numden

    inputs = recorded_inputs()
    digest = hashlib.sha256()
    start = time.perf_counter()
    answers = [green_numden(vcount, edges) for vcount, edges in inputs]
    seconds = time.perf_counter() - start
    for answer in answers:
        digest.update(repr(answer).encode())
    print(f"{len(inputs)} inputs, {seconds:.3f} s to factorize them again", file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
