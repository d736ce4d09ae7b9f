"""One workload pass in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json

The plan names the equiarbor source directory, whether to trace, and the
argv of each call.  The working directory holds the input files.  Calls run
one at a time through ``equiarbor.cli.run_command``; the result records each
call's exit code, escaped exception, stdout and wall time, the pass's wall
time, the process's peak resident memory, and the times of a fixed reference
computation.  The reference runs before and after the pass and between
calls at most every ``REFERENCE_INTERVAL_S``, so its samples follow the
machine's speed through the pass; the pass's wall time excludes them.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from fractions import Fraction

REFERENCE_INTERVAL_S = 0.2
REFERENCE_SAMPLES_AROUND = 10    # before and after the pass


def fraction_reference(n: int = 16) -> None:
    """Gaussian elimination over Fraction on a constant n x n matrix:
    allocation-heavy big-integer work, like the CLI's linear algebra."""
    a = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 13 + 1) + (n if i == j else 0)
          for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = a[col]
        inv = 1 / pivot_row[col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            row = a[r]
            for c in range(col, n):
                row[c] -= f * pivot_row[c]


def integer_reference(n: int = 14) -> None:
    """A Gray-code walk over the bipartitions of a fixed n-vertex graph
    keeping the crossing count: small-integer work, like the cut sweep."""
    nbr = [[(v + d) % n for d in (1, 3, n - 3, n - 1)] for v in range(n)]
    in_b, crossing, best = [False] * n, 0, n
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()
        to_b = sum(1 for u in nbr[v] if in_b[u])
        crossing += (-1 if in_b[v] else 1) * (4 - 2 * to_b)
        in_b[v] = not in_b[v]
        best = min(best, crossing)


def reference_seconds() -> float:
    """Wall time of both reference computations: neither touches
    equiarbor, so their time gauges how fast the machine runs right now."""
    t0 = time.perf_counter()
    fraction_reference()
    integer_reference()
    return time.perf_counter() - t0


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from equiarbor import cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    reference = [reference_seconds() for _ in range(REFERENCE_SAMPLES_AROUND)]
    calls = []
    in_pass_reference = 0.0
    start = last_sample = time.perf_counter()
    for argv in plan["calls"]:
        if time.perf_counter() - last_sample >= REFERENCE_INTERVAL_S:
            reference.append(reference_seconds())
            in_pass_reference += reference[-1]
            last_sample = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        exception = None
        t0 = time.perf_counter()
        try:
            code = cli.run_command(argv, out, err)
        except Exception as exc:  # an escaped exception is a failed call
            code, exception = None, type(exc).__name__
        calls.append({"exit": code, "exception": exception,
                      "seconds": time.perf_counter() - t0, "stdout": out.getvalue(),
                      "reference_index": len(reference)})
    wall = time.perf_counter() - start - in_pass_reference
    reference += [reference_seconds() for _ in range(REFERENCE_SAMPLES_AROUND)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"wall_s": wall, "peak_rss_mb": peak_kib / 1024, "calls": calls,
              "reference_s": reference}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["traced"] = tracer.names
        result["span_count"] = len(tracer.spans)
        tracer.write_spans(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
