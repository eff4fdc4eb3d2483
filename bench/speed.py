"""Host-speed reference: fixed pure-Python work timed around set-ups and ops.

On a shared host the same code runs up to 30% faster or slower from one
second, or one minute, to the next.  The run times this reference work just
before and after each set-up, in the set-up's own process, and between ops:
once per ``INTERVAL_S`` of op time and a few times in a row after a long op.
``local_factors`` scales each op's time to a host on which the reference
takes ``NOMINAL_S``, using the samples taken near that op.  The work is of
the kinds seprkit does (a permutation-term search over a small sign grid,
exact Fraction elimination) and uses none of seprkit, so a change to the
library leaves it alone.
"""
from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# the reference's median time on the 2-core x86-64 VM the bounds were set on
NOMINAL_S = 1.6e-3
INTERVAL_S = 0.05       # op time between reference samples
MAX_BURST = 5           # reference samples taken back to back after a long op
WINDOW_S = 0.25         # reference samples this close to an op set its factor
MIN_SAMPLES = 3

_GRID = tuple(tuple(((i * 7 + j * 3) % 5) - 2 for j in range(6)) for i in range(6))
_MAT = tuple(tuple(Fraction((i * 5 + j * 11) % 13 - 6, 1 + (i + 2 * j) % 5) for j in range(6))
             for i in range(6))


def _term_signs(grid) -> tuple[int, int]:
    k = len(grid)
    cand = [tuple((j, v) for j, v in enumerate(row) if v) for row in grid]
    seen = set()
    count = 0
    stack = [(0, 0, 1)]
    while stack:
        depth, used, sgn = stack.pop()
        if depth == k:
            count += 1
            seen.add(sgn > 0)
            continue
        for j, v in cand[depth]:
            bit = 1 << j
            if used & bit:
                continue
            inv = (used >> (j + 1)).bit_count()
            stack.append((depth + 1, used | bit, sgn * (1 if v > 0 else -1) * (-1 if inv & 1 else 1)))
    return count, len(seen)


# the oracle in workloads.py has its own elimination: the reference work must
# stay the same when an oracle changes, or every scaled time moves with it
def _fraction_det(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def time_reference() -> float:
    """Seconds the reference work takes now."""
    t0 = perf_counter()
    _term_signs(_GRID)
    _fraction_det(_MAT)
    _fraction_det(_MAT)
    return perf_counter() - t0


def local_factors(op_spans, ref_at, refs) -> list[float]:
    """Per op, NOMINAL_S over the median reference time near it.

    Near means taken within WINDOW_S of the op's start or end; when fewer
    than MIN_SAMPLES are that near, the MIN_SAMPLES closest to its middle.
    """
    if not refs:
        return [1.0] * len(op_spans)
    out = []
    for t0, t1 in op_spans:
        lo = bisect.bisect_left(ref_at, t0 - WINDOW_S)
        hi = bisect.bisect_right(ref_at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(ref_at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(refs) - MIN_SAMPLES))
            hi = min(len(refs), lo + MIN_SAMPLES)
        out.append(NOMINAL_S / statistics.median(refs[lo:hi]))
    return out
