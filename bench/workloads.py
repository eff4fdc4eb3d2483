"""Seeded inputs, operations, answer keys and oracles for the three workloads.

Every input is built from ``--seed`` alone; the library only receives the
finished patterns and matrices.  Each workload is a fixed op list: one op is
one closed-loop call (or call pair) into the public ``seprkit`` API.  The
library functions are looked up on their modules at call time, so the span
recorder in ``spans.py`` sees every call the ops make.

Oracles run outside the timed region.  They check an output with exact
arithmetic written here (``exact_det``, ``realizes``) or by another route
through the library (the sequence of a witness, a row-scaled matrix, the
perfect-matching test), never by reading the output back.
"""
from __future__ import annotations

import heapq
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from seprkit import analysis, enumeration, pattern, realize
from seprkit.signs import AmbSign, Sign

SEPRSET_BUDGET = 1000
# the grid `sepr_set_estimate` sweeps when no grid is given
DEFAULT_GRID_SIZE = len(realize.MagnitudeGrid.default().values)
# principal subpatterns up to this order enter the ambiguity share; larger
# ones would make the report cost more than the run on term-free order 10
AMBIGUITY_REPORT_MAX_ORDER = 6

_SIGNS = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
_PM = (Sign.PLUS, Sign.MINUS)
_MASK64 = (1 << 64) - 1


@dataclass
class Op:
    """One closed-loop operation: ``run(inp)`` calls the library."""

    kind: str
    order: int
    run: Callable[[Any], Any]
    inp: Any
    key: Callable[[Any, Any], Any]      # (inp, output) -> JSON-able answer
    check: Callable[[Any, Any], list]   # (inp, output) -> list of problems


@dataclass
class Inputs:
    ops: list[Op]
    generate_s: float = 0.0         # time spent inside enumerate_patterns
    patterns_yielded: int = 0


# ---------------------------------------------------------------------------
# exact oracles, independent of the library's kernels

def _sign(x) -> int:
    return (x > 0) - (x < 0)


def exact_det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row pivoting."""
    m = [[Fraction(x) for x in r] for r in rows]
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
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def realizes(B, P) -> bool:
    """Entry signs of the rational matrix B equal the pattern P."""
    return len(B.rows) == P.n and all(
        _sign(x) == int(s) for brow, prow in zip(B.rows, P.rows) for x, s in zip(brow, prow)
    )


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# input builders

def _random_pattern(rng: random.Random, n: int, alphabet=_SIGNS):
    """Each entry drawn uniformly from the alphabet."""
    return pattern.SignPattern(tuple(tuple(rng.choice(alphabet) for _ in range(n))
                                     for _ in range(n)))


def _fixed_density_pattern(rng: random.Random, n: int, density: float):
    """round(density * n^2) nonzero entries at random places with random signs.

    Op cost grows with the nonzero count, so fixing it (rather than drawing
    each entry) keeps the cost of a few expensive ops from swinging with the
    seed.
    """
    nonzero = set(rng.sample(range(n * n), round(density * n * n)))
    return pattern.SignPattern(tuple(
        tuple(rng.choice(_PM) if i * n + j in nonzero else Sign.ZERO for j in range(n))
        for i in range(n)))


def _family_sample(inputs: Inputs, seed: int, order: int, constraints: set, k: int) -> list:
    """k members of an enumerate_patterns family, chosen by a seeded hash of
    their entries, so the sample does not depend on enumeration order."""
    fam = enumeration.PatternFamily(order, frozenset(constraints))
    stream = iter(enumeration.enumerate_patterns(fam))
    salt = _splitmix64(seed * 0x100000001B3 + order)
    best: list = []          # max-heap of (-key, serial, P) holding the k smallest keys
    serial = 0
    gen_s = 0.0
    while True:
        t = time.perf_counter()
        P = next(stream, None)
        gen_s += time.perf_counter() - t
        if P is None:
            break
        serial += 1
        key = _splitmix64((hash(P.rows) ^ salt) & _MASK64)
        if len(best) < k:
            heapq.heappush(best, (-key, serial, P))
        elif key < -best[0][0]:
            heapq.heapreplace(best, (-key, serial, P))
    inputs.generate_s += gen_s
    inputs.patterns_yielded += serial
    if len(best) < k:
        raise ValueError(f"family {sorted(constraints)} of order {order} has fewer than {k} members")
    return [P for _, _, P in sorted(best, key=lambda t: -t[0])]


def _nnz(P) -> int:
    return len(P.nonzero_positions())


# ---------------------------------------------------------------------------
# classify: unique_verdict + predicted_sepr on small patterns

def _classify_run(P):
    return analysis.unique_verdict(P), analysis.predicted_sepr(P)


def _classify_key(P, out):
    v, pred = out
    w = None
    if v.witnesses is not None:
        w = [str(v.witnesses[1]), str(v.witnesses[3])]
    return [P.to_text(), v.status.value, str(v.sequence) if v.sequence else None, w,
            [pred.rule, str(pred.sequence)] if pred else None]


def _classify_check(P, out) -> list:
    v, pred = out
    bad = []
    status = v.status
    if status is analysis.UniqueStatus.UNIQUE_BY_FIXED_TERMS:
        ref = realize.sepr_of_matrix(realize.ones_realization(P))
        if v.sequence != ref:
            bad.append(f"unique sequence {v.sequence} != sepr of all-unit realization {ref}")
    elif status is analysis.UniqueStatus.NOT_UNIQUE:
        b1, s1, b2, s2 = v.witnesses
        if s1 == s2:
            bad.append("non-unique verdict with equal sequences")
        for b, s in ((b1, s1), (b2, s2)):
            if not realizes(b, P):
                bad.append("witness does not realize the pattern")
            elif realize.sepr_of_matrix(b) != s:
                bad.append(f"witness sequence is not {s}")
    elif P.n <= 4:
        bad.append(f"{status.value} at order {P.n}")
    if pred is not None and (not v.unique or v.sequence != pred.sequence):
        bad.append(f"prediction {pred.sequence} ({pred.rule}) disagrees with verdict {status.value}")
    return bad


# Patterns `verify-paper` sends through its uniqueness check, per family
# (`enumeration.verify_unique_iff_determined` at orders 2, 3 and 4): orders 2
# and 3 exhaustively, the order-4 zero-diagonal full-off-diagonal and
# symmetric families whole, and 2000 uniform order-4 samples.  It also checks
# the 3216 order-4 semi-stable patterns by fixed terms alone; their count
# weights the order-5 semi-stable family, which is decided the same way.
VERIFY_PAPER_COUNTS = {"random2": 81, "random3": 19683, "zero-diag-full4": 4096,
                       "symmetric4": 59049, "semistable5": 3216, "random4": 2000}
# under 1000 ops, so the tail is p90 (98 ops above it); at p99 it would rest
# on the few heaviest witness searches and swing with the seed
CLASSIFY_OPS = 990


def classify_plan() -> dict[str, int]:
    """Ops per kind: verify-paper's counts scaled down to CLASSIFY_OPS."""
    total = sum(VERIFY_PAPER_COUNTS.values())
    return {k: max(1, round(c * CLASSIFY_OPS / total)) for k, c in VERIFY_PAPER_COUNTS.items()}


def build_classify(seed: int) -> Inputs:
    inputs = Inputs([])
    rng = random.Random(f"classify:{seed}")
    count = classify_plan()
    plan = [("random2", [_random_pattern(rng, 2) for _ in range(count["random2"])]),
            ("random3", [_random_pattern(rng, 3) for _ in range(count["random3"])]),
            ("random4", [_random_pattern(rng, 4) for _ in range(count["random4"])]),
            ("symmetric4", _family_sample(inputs, seed, 4, {"symmetric"},
                                          count["symmetric4"])),
            ("zero-diag-full4", _family_sample(
                inputs, seed, 4, {"zero-diagonal", "full-off-diagonal"},
                count["zero-diag-full4"])),
            ("semistable5", _family_sample(inputs, seed, 5, {"semi-stable"},
                                           count["semistable5"]))]
    for kind, pats in plan:
        inputs.ops += [Op(kind, P.n, _classify_run, P, _classify_key, _classify_check)
                       for P in pats]
    rng.shuffle(inputs.ops)
    return inputs


# ---------------------------------------------------------------------------
# seprset: sepr_set_estimate at one budget

def _seprset_run(P):
    return analysis.sepr_set_estimate(P, budget=SEPRSET_BUDGET)


def _seprset_key(P, est):
    return [P.to_text(), sorted(str(s) for s in est.lower),
            [sorted(x.token for x in u) for u in est.upper_per_position], est.tight]


def _seprset_check(P, est) -> list:
    bad = []
    if not est.lower:
        bad.append("empty lower bound")
    for seq, B in est.lower.items():
        if not realizes(B, P):
            bad.append(f"witness for {seq} does not realize the pattern")
        elif realize.sepr_of_matrix(B) != seq:
            bad.append(f"witness for {seq} has another sequence")
        if any(t not in u for t, u in zip(seq.terms, est.upper_per_position)):
            bad.append(f"{seq} escapes the per-position upper sets")
    return bad


def build_seprset(seed: int) -> Inputs:
    inputs = Inputs([])
    rng = random.Random(f"seprset:{seed}")
    # the whole family (64 members), then those whose grid space fits the budget
    fits = [P for P in _family_sample(inputs, seed, 3, {"symmetric", "nonnegative"}, 64)
            if _nnz(P) > 0 and DEFAULT_GRID_SIZE ** _nnz(P) <= SEPRSET_BUDGET]
    plan = [("symmetric-nonneg3", [rng.choice(fits) for _ in range(13)])]

    def sampled(n, count):
        # two thirds nonzero, as for uniform entries; the grid space exceeds the budget
        return [_fixed_density_pattern(rng, n, 2 / 3) for _ in range(count)]

    # the median op falls among the order-4 ops, the p90 op among the order-5 ones
    plan += [("random4", sampled(4, 120)), ("random5", sampled(5, 16)),
             ("random6", sampled(6, 1))]
    for kind, pats in plan:
        inputs.ops += [Op(kind, P.n, _seprset_run, P, _seprset_key, _seprset_check)
                       for P in pats]
    rng.shuffle(inputs.ops)
    return inputs


# ---------------------------------------------------------------------------
# large-order: one large kernel call per op

def _det_run(P):
    return pattern.signed_det(P)


def _det_key(P, d):
    return [P.to_text(), d.value.value]


def _make_det_check(rng: random.Random, term_free: bool):
    def check(P, d) -> list:
        bad = []
        if term_free and d.value is not AmbSign.ZERO:
            bad.append(f"term-free pattern gave {d.value.value}")
        if d.has_term != pattern.has_perfect_matching(pattern.bigraph(P)):
            bad.append("has_term disagrees with the perfect-matching test")
        if d.value is not AmbSign.AMBIGUOUS:
            # a grid realization with seeded magnitudes; a definite sign holds for all
            grid = realize.MagnitudeGrid.default().values
            rows = [[int(s) * rng.choice(grid) for s in row] for row in P.rows]
            want = {AmbSign.PLUS: 1, AmbSign.MINUS: -1, AmbSign.ZERO: 0}[d.value]
            if _sign(exact_det(rows)) != want:
                bad.append(f"signed det {d.value.value} but a realization has another sign")
        return bad
    return check


def _sepr_run(B):
    return realize.sepr_of_matrix(B)


def _sepr_key(B, s):
    return [B.to_text(), str(s)]


def _make_sepr_check(rng: random.Random):
    def check(B, s) -> list:
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in B.rows]
        scaled = realize.RationalMatrix(tuple(
            tuple(x * f for x in row) for row, f in zip(B.rows, factors)))
        s2 = realize.sepr_of_matrix(scaled)
        return [] if s2 == s else [f"row scaling moved {s} to {s2}"]
    return check


def _allnz_run(P):
    return realize.allnonzero_realization(P)


def _allnz_key(P, B):
    return [P.to_text(), "realization"]


def _allnz_check(P, B) -> list:
    bad = []
    if not realizes(B, P):
        bad.append("result does not realize the pattern")
    elif pattern.signed_det(P).value is AmbSign.AMBIGUOUS and exact_det(B.rows) == 0:
        bad.append("ambiguous full determinant is zero in the result")
    return bad


def build_large_order(seed: int) -> Inputs:
    inputs = Inputs([])
    rng = random.Random(f"large-order:{seed}")
    orng = random.Random(f"large-order-oracle:{seed}")

    def term_free(n):
        z = rng.randrange(n)
        return pattern.SignPattern(tuple(
            tuple(Sign.ZERO if j == z else rng.choice(_PM) for j in range(n)) for _ in range(n)))

    def int_matrix(n):
        return realize.RationalMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])

    def rational_matrix(n):
        return realize.RationalMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)])

    ops = inputs.ops
    for n, count in ((8, 2), (9, 6), (10, 1)):
        ops += [Op("signed_det/term-free", n, _det_run, term_free(n), _det_key,
                   _make_det_check(orng, True)) for _ in range(count)]
    for n in (8, 9, 10):
        ops += [Op("signed_det/dense", n, _det_run, _random_pattern(rng, n, _PM), _det_key,
                   _make_det_check(orng, False)) for _ in range(5)]
        ops += [Op("signed_det/sparse", n, _det_run, _fixed_density_pattern(rng, n, 0.3),
                   _det_key, _make_det_check(orng, False)) for _ in range(6)]
    # the median op falls among the order-8 sepr_of_matrix calls, the p90 op
    # among the term-free order-9 signed_det, order-12 sepr and order-5 allnonzero calls
    for n, count in ((8, 16), (9, 8), (10, 1), (11, 1), (12, 1)):
        ops += [Op("sepr_of_matrix/integer", n, _sepr_run, int_matrix(n), _sepr_key,
                   _make_sepr_check(orng)) for _ in range(count)]
        ops += [Op("sepr_of_matrix/rational", n, _sepr_run, rational_matrix(n), _sepr_key,
                   _make_sepr_check(orng)) for _ in range(count)]
    for n, count in ((5, 4), (6, 1)):
        ops += [Op("allnonzero/dense", n, _allnz_run, _random_pattern(rng, n, _PM), _allnz_key,
                   _allnz_check) for _ in range(count)]
    rng.shuffle(ops)
    return inputs


BUILDERS = {"classify": build_classify, "seprset": build_seprset,
            "large-order": build_large_order}


# ---------------------------------------------------------------------------
# input-property report

def _ambiguous_principal_share(pats) -> tuple[int, int]:
    amb = total = 0
    for P in pats:
        for k in range(2, min(P.n, AMBIGUITY_REPORT_MAX_ORDER) + 1):
            for mask in pattern.subsets_of_size(P.n, k):
                total += 1
                if pattern.signed_det_masked(P, mask).value is AmbSign.AMBIGUOUS:
                    amb += 1
    return amb, total


def fixed_share(workload: str, outputs: list) -> float:
    """Share of classify verdicts decided by fixed terms (0 on other workloads)."""
    verdicts = [o[0] for o in outputs if isinstance(o, tuple)] if workload == "classify" else []
    return sum(1 for v in verdicts if v.unique) / len(verdicts) if verdicts else 0.0


def property_report(workload: str, ops: list[Op], outputs: list) -> list[str]:
    """Input properties the workload's timings depend on, as printable lines."""
    lines = []
    hist = Counter(op.order for op in ops)
    lines.append("order histogram: " + ", ".join(f"n={k}: {hist[k]}" for k in sorted(hist)))
    kinds = Counter(op.kind for op in ops)
    lines.append("op kinds: " + ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items())))
    pats = [op.inp for op in ops if isinstance(op.inp, pattern.SignPattern)]
    amb, total = _ambiguous_principal_share(pats)
    lines.append(f"ambiguous principal subpatterns (orders 2..{AMBIGUITY_REPORT_MAX_ORDER}): "
                 f"{amb}/{total} = {amb / max(total, 1):.3f}")
    if workload == "classify":
        st = Counter(out[0].status.value for out in outputs if isinstance(out, tuple))
        n = max(sum(st.values()), 1)
        fixed = st.get(analysis.UniqueStatus.UNIQUE_BY_FIXED_TERMS.value, 0)
        lines.append(f"verdicts decided by fixed terms: {fixed}/{n} = {fixed / n:.3f}; "
                     f"by the witness search: {n - fixed}/{n} = {(n - fixed) / n:.3f}")
        lines.append("verdict statuses: " + ", ".join(f"{k}: {v}" for k, v in sorted(st.items())))
        pred = sum(1 for out in outputs if isinstance(out, tuple) and out[1] is not None)
        lines.append(f"predicted_sepr rule fired: {pred}/{n} = {pred / n:.3f}")
    if workload == "seprset":
        exhaustive = sum(1 for P in pats if DEFAULT_GRID_SIZE ** _nnz(P) <= SEPRSET_BUDGET)
        n = max(len(pats), 1)
        lines.append(f"sweeps exhaustive: {exhaustive}/{n} = {exhaustive / n:.3f}; "
                     f"sampled: {n - exhaustive}/{n} = {(n - exhaustive) / n:.3f}")
    if workload == "large-order":
        vals = Counter(out.value.value for op, out in zip(ops, outputs)
                       if op.kind.startswith("signed_det") and hasattr(out, "value"))
        lines.append("signed_det values: " + ", ".join(f"{k}: {v}" for k, v in sorted(vals.items())))
    return lines
