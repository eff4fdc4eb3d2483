"""Pattern-family enumeration and the small-order verification harness.

The harness re-derives, by exhaustive enumeration and exact search, the
small-order classification results the analysis layer relies on: the
order-3 symmetric nonnegative sequence catalog, the equivalence between
all-terms-fixed and sepr-set uniqueness over every pattern of orders 2..4
(one per orbit of the sign-pattern invariances, orbit_representatives),
the symmetric nonnegative unique-sequence classification, and the
semi-stable suite.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import comb, prod
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .analysis import (
    TheoremContradiction,
    UniqueStatus,
    add_cycle_witness,
    check_semistable_laws,
    classify_symmetric_nonneg_unique,
    fixed_sequence,
    predicted_sepr,
    semistability_recognizable,
    unique_verdict,
)
from .digraph import (
    is_irreducible,
    is_sign_semi_stable,
    is_sign_stable_irreducible,
    matching_number,
    path_pattern,
    simplify,
    star_pattern,
)
from .pattern import SignPattern
from .realize import (
    MagnitudeGrid,
    RationalMatrix,
    _sym_sweep,
    ones_realization,
    sepr_of_matrix,
    sweep_sepr_table,
)
from .signs import SeprSequence, SeprSymbol, Sign

if TYPE_CHECKING:  # numpy loads when the orbit filter first runs
    import numpy as np

VALID_CONSTRAINTS = frozenset(
    ["symmetric", "nonnegative", "zero-diagonal", "full-off-diagonal",
     "semi-stable", "irreducible"]
)


class EnumerationBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class PatternFamily:
    order: int
    constraints: frozenset[str] = frozenset()

    def __post_init__(self):
        bad = self.constraints - VALID_CONSTRAINTS
        if bad:
            raise ValueError(f"unknown constraints: {sorted(bad)}")
        if self.order < 1:
            raise ValueError("order must be positive")


# ---------------------------------------------------------------------------
# enumeration

def _row_alphabets(fam: PatternFamily) -> list[list[tuple[Sign, ...]]]:
    """The alphabet of each free entry, row by row: columns i.. of row i in
    symmetric families (the rest is copied from the rows above), every
    column otherwise.  A zero diagonal is pinned by the alphabet (0,)."""
    n, c = fam.order, fam.constraints
    signs = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
    diag = signs[:1] if "zero-diagonal" in c else signs
    off = signs[1:] if "full-off-diagonal" in c else signs
    if "nonnegative" in c:
        diag, off = diag[:2], off[:-1]
    first = "symmetric" in c  # row i starts at column i * first
    return [[diag if j == i else off for j in range(i * first, n)] for i in range(n)]


def _stacked_rows(tails: list[list[tuple[Sign, ...]]], symmetric: bool) -> Iterator[SignPattern]:
    """Patterns whose row i is a head plus one of tails[i], the last row
    changing fastest; the head is column i of the rows above when
    symmetric, empty otherwise."""
    def grow(rows):
        i = len(rows)
        head = tuple(r[i] for r in rows) if symmetric else ()
        if i == len(tails) - 1:
            for tail in tails[i]:
                yield SignPattern._trusted(rows + (head + tail,))
        else:
            for tail in tails[i]:
                yield from grow(rows + (head + tail,))

    return grow(())


def _forest_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Forest edge sets on n vertices, in increasing order of their masks
    over `combinations(range(n), 2)`: pairs are decided from the last to the
    first, without before with, and a pair is added only when it joins two
    components (comp[v] is the bitmask of v's), so only forests are visited."""
    pairs = list(combinations(range(n), 2))
    stack = [(len(pairs), (), tuple(1 << v for v in range(n)))]
    while stack:
        t, edges, comp = stack.pop()
        if not t:
            yield edges
            continue
        t -= 1
        a, b = pairs[t]
        if not comp[a] >> b & 1:
            joined = comp[a] | comp[b]
            stack.append((t, (pairs[t],) + edges,
                          tuple(joined if joined >> v & 1 else m for v, m in enumerate(comp))))
        stack.append((t, edges, comp))


def simplified_semistable_patterns(n: int) -> Iterator[SignPattern]:
    """All simplified sign semi-stable patterns of order n.

    Their digraphs are strong diforests with negative loops: doubly
    directed forest edges carrying opposite signs plus any subset of
    negative loops.  Every semi-stable pattern shares its sepr-set with
    exactly one of these (arcs off the cycles never matter).  Each signed
    forest gives every row twice, without and with its loop; the loop
    masks count up with vertex 0's bit lowest.
    """
    for edges in _forest_edge_sets(n):
        for signs in product(((Sign.PLUS, Sign.MINUS), (Sign.MINUS, Sign.PLUS)), repeat=len(edges)):
            rows = [[Sign.ZERO] * n for _ in range(n)]
            for (a, b), (s, t) in zip(edges, signs):
                rows[a][b], rows[b][a] = s, t
            choices = []
            for v in reversed(range(n)):  # product varies its last factor fastest
                plain = tuple(rows[v])
                rows[v][v] = Sign.MINUS
                choices.append((plain, tuple(rows[v])))
            for picked in product(*choices):
                yield SignPattern._trusted(picked[::-1])


def _satisfies(P: SignPattern, constraints: frozenset[str]) -> bool:
    """P meets the alphabet constraints (semi-stable and irreducible are ignored)."""
    n = P.n
    if "symmetric" in constraints and not P.is_symmetric():
        return False
    if "nonnegative" in constraints and not P.is_nonnegative():
        return False
    if "zero-diagonal" in constraints and not P.has_zero_diagonal():
        return False
    if "full-off-diagonal" in constraints and any(
        P.rows[i][j] is Sign.ZERO for i in range(n) for j in range(n) if i != j
    ):
        return False
    return True


def _within_budget(stream: Iterator[SignPattern], budget: int) -> Iterator[SignPattern]:
    yield from islice(stream, budget)
    if next(stream, None) is not None:
        raise EnumerationBudgetExceeded(f"family has more than {budget} members")


def enumerate_patterns(fam: PatternFamily, budget: int = 10**7) -> Iterator[SignPattern]:
    """Deterministic, duplicate-free stream of the family's patterns.

    Alphabet-product families run in lexicographic entry order (row-major,
    sign order 0, +, -).  The semi-stable constraint enumerates the
    simplified representatives (see simplified_semistable_patterns); the
    irreducible constraint is a post-filter.  `budget` bounds every family
    before its filters: an alphabet product larger than `budget` is refused
    up front, and the semi-stable stream raises EnumerationBudgetExceeded
    where it would yield member budget + 1.
    """
    c = fam.constraints
    if "semi-stable" in c:
        stream: Iterable[SignPattern] = _within_budget(
            simplified_semistable_patterns(fam.order), budget)
        if c - {"semi-stable", "irreducible"}:
            stream = (P for P in stream if _satisfies(P, c))
    else:
        alphabets = _row_alphabets(fam)
        size = prod(len(a) for row in alphabets for a in row)
        if size > budget:
            raise EnumerationBudgetExceeded(f"family has {size} members, budget {budget}")
        stream = _stacked_rows([list(product(*row)) for row in alphabets], "symmetric" in c)
    if "irreducible" in c:
        stream = (P for P in stream if is_irreducible(P))
    return stream


def _pattern_from_index(n: int, idx: int) -> SignPattern:
    """The pattern coded row-major in base 3: entry (0, 0) is the lowest
    digit, and digits 0, 1, 2 are 0, +, -."""
    signs = [(Sign.ZERO, Sign.PLUS, Sign.MINUS)[idx // 3**t % 3] for t in range(n * n)]
    return SignPattern._trusted(tuple(tuple(signs[i * n:i * n + n]) for i in range(n)))


def _orbit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Image of a pattern code under each g: low[g, code % 3**h] +
    high[g, code // 3**h], h = n*n // 2 (codes as in _pattern_from_index).

    g = (signature d with d_0 = 1, transpose t, sign e, permutation p)
    moves the digit at (i, j) to (p_i, p_j), or (p_j, p_i) when t is set,
    and swaps + and - when e d_i d_j = -1.  The permutation varies fastest
    and the first g is negation: in this order the filter drops codes
    soonest.
    """
    import numpy as np
    cells, h = n * n, n * n // 2
    values = []  # [g][position][digit] -> that digit's share of the image
    for d, t, e in product(product((1, -1), repeat=n - 1), (False, True), (-1, 1)):
        d = (1,) + d
        for p in permutations(range(n)):
            values.append([[(x if e * d[i] * d[j] > 0 else -x) % 3
                            * 3 ** (p[j] * n + p[i] if t else p[i] * n + p[j]) for x in range(3)]
                           for i in range(n) for j in range(n)])
    values = np.array(values, dtype=np.int32)
    halves = []
    for lo, hi in ((0, h), (h, cells)):
        table = np.zeros((len(values), 3 ** (hi - lo)), dtype=np.int32)
        for w, pos in enumerate(range(lo, hi)):  # digit `pos` is the most significant so far
            done = table[:, :3**w]
            for x in (2, 1):  # blocks 2 and 1 from block 0, then block 0 in place
                np.add(done, values[:, pos, x, None], out=table[:, x * 3**w:(x + 1) * 3**w])
            done += values[:, pos, 0, None]
        halves.append(table)
    return halves[0], halves[1]


def orbit_representatives(n: int) -> Iterator[tuple[SignPattern, int]]:
    """(pattern, orbit size), one per orbit of the n x n patterns under
    permutation similarity, transpose, negation and signature similarity
    D P D, a group of order n! * 2 * 2 * 2**(n - 1).

    Fixed terms and witness pairs carry across an orbit: D P D and P^T keep
    every principal minor, -P multiplies order-k minors by (-1)**k, and g
    maps a witness pair (B1, B2) of P to (g B1, g B2) of g P.  Orbits: 16,
    322 and 61,268 at orders 2, 3 and 4.  The representative is the least
    code in its orbit, found by filtering chunks of 3**12 codes against
    every image; the orbit size is the group order over the number of g
    fixing the code.  Past order 4 (3**25 codes) the filter is refused.
    """
    if not 1 <= n <= 4:
        raise EnumerationBudgetExceeded(f"orbit filter covers orders 1..4, not {n}")
    import numpy as np
    low, high = _orbit_tables(n)
    group, split, space = len(low), 3 ** (n * n // 2), 3 ** (n * n)
    step = min(space, 3**12)
    for start in range(0, space, step):
        code = np.arange(start, min(start + step, space), dtype=np.int32)
        lo, hi = code % split, code // split
        for lo_g, hi_g in zip(low, high):
            keep = lo_g[lo] + hi_g[hi] >= code
            code, lo, hi = code[keep], lo[keep], hi[keep]
        fixers = sum(lo_g[lo] + hi_g[hi] == code for lo_g, hi_g in zip(low, high))
        for c, f in zip(code.tolist(), fixers.tolist()):
            yield _pattern_from_index(n, c), group // f


# ---------------------------------------------------------------------------
# verification reports

@dataclass
class VerificationReport:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    counts: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    runtime_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "detail": self.detail,
            "counts": dict(sorted(self.counts.items())),
            "witness": self.witness,
            "runtime_s": round(self.runtime_s, 3),
        }

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _report(check_id: str, t0: float, failures: list[dict], counts: dict,
            detail_pass: str = "") -> VerificationReport:
    if failures:
        return VerificationReport(check_id, "fail", f"{len(failures)} failure(s)",
                                  counts, failures[0], time.time() - t0)
    return VerificationReport(check_id, "pass", detail_pass, counts, None, time.time() - t0)


# ---------------------------------------------------------------------------
# fast semi-stable sequences

def semistable_sequence(P: SignPattern) -> SeprSequence:
    """Sequence of a semi-stable pattern via composite-cycle cover counts.

    Every nonzero order-k minor term of a semi-stable pattern has sign
    (-1)^k, so each position only needs which index sets admit a cover by
    disjoint 2-cycles and loops.
    """
    n = P.n
    cycles = [1 << i for i in range(n) if P.rows[i][i] is not Sign.ZERO]
    for i in range(n):
        for j in range(i + 1, n):
            if P.rows[i][j] is not Sign.ZERO and P.rows[j][i] is not Sign.ZERO:
                cycles.append((1 << i) | (1 << j))
    ach = bytearray(1 << n)
    ach[0] = 1
    for mask in range(1 << n):
        if not ach[mask]:
            continue
        for cmask in cycles:
            if not mask & cmask:
                ach[mask | cmask] = 1
    covered = [0] * (n + 1)
    for mask in range(1 << n):
        if ach[mask]:
            covered[mask.bit_count()] += 1
    terms = []
    for k in range(1, n + 1):
        if covered[k] == 0:
            sym = SeprSymbol.N
        else:
            bit = 1 if k % 2 == 0 else 2  # nonzero minors have sign (-1)^k
            sym = SeprSymbol.from_sign_mask(bit if covered[k] == comb(n, k) else bit | 4)
        terms.append(sym)
    return SeprSequence(tuple(terms))


# ---------------------------------------------------------------------------
# check 1: order-3 symmetric nonnegative catalog

ORDER3_NONNEG_SEQUENCES = frozenset({
    "A+A*A-", "A+A+A+", "A+A+A-", "A+A+N", "A+A-A+", "A+A-A-", "A+A-N",
    "A+NN", "A+S*A-", "A+S+A-", "A+S+N", "A+S-A-", "A+S-N",
    "NA-A+", "NNN", "NS-N",
    "S+A*A-", "S+A-A+", "S+A-A-", "S+A-N", "S+NN", "S+S*A-",
    "S+S+N", "S+S-A-", "S+S-N",
})

ORDER3_NONNEG_EXCLUDED = frozenset({"A+NA-", "NA-A-", "NA-N"})

_F = Fraction
EMBEDDED_ORDER3_WITNESSES: dict[str, tuple[tuple[Fraction, ...], ...]] = {
    seq: tuple(tuple(_F(x) for x in row) for row in rows)
    for seq, rows in {
        "A+A+A+": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "A+NN": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        "NA-A+": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "A+S+N": [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
        "S+NN": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        "NNN": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "A+A*A-": [[1, 2, 0], [2, 1, 2], [0, 2, 1]],
        "A+A+A-": [[1, "9/10", 0], ["9/10", 1, "9/10"], [0, "9/10", 1]],
        "A+A+N": [[1, "3/5", 0], ["3/5", 1, "4/5"], [0, "4/5", 1]],
        "A+A-A-": [[1, 8, 2], [8, 1, 2], [2, 2, 1]],
        "A+S*A-": [[1, 1, 0], [1, 1, 2], [0, 2, 1]],
        "S+S*A-": [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
    }.items()
}


def verify_order3_nonneg_catalog() -> VerificationReport:
    """Reproduce the catalog of order-3 symmetric nonnegative sequences.

    Embedded witnesses are checked term-for-term; sequences whose
    witnesses live outside this project are re-found by a fresh grid
    search.  A sweep over the default symmetric grid must stay inside the
    catalog and never produce the three excluded sequences.
    """
    t0 = time.time()
    failures: list[dict] = []
    counts: dict = {}
    for seq_text, rows in EMBEDDED_ORDER3_WITNESSES.items():
        got = str(sepr_of_matrix(RationalMatrix(rows)))
        if got != seq_text:
            failures.append({"witness-for": seq_text, "computed": got})
    counts["embedded"] = len(EMBEDDED_ORDER3_WITNESSES)

    missing = set(ORDER3_NONNEG_SEQUENCES) - set(EMBEDDED_ORDER3_WITNESSES)
    searched: dict[str, RationalMatrix] = {}
    for values in (list(range(7)), list(range(16))):
        table = {str(s): B for s, B in _sym_sweep(3, values).items()}
        outside = set(table) - ORDER3_NONNEG_SEQUENCES
        if outside:
            failures.append({"sweep-values": values, "outside-catalog": sorted(outside)})
        for s in list(missing):
            if s in table:
                searched[s] = table[s]
                missing.discard(s)
        if not missing:
            break
    counts["freshly-searched"] = len(searched)
    if missing:
        failures.append({"witness-not-found": sorted(missing)})

    default_values = [0] + list(MagnitudeGrid.default().int_scaled())
    sweep = {str(s) for s in _sym_sweep(3, default_values)}
    counts["default-grid-sweep"] = len(default_values) ** 6
    counts["default-grid-distinct"] = len(sweep)
    outside = sweep - ORDER3_NONNEG_SEQUENCES
    if outside:
        failures.append({"default-sweep-outside-catalog": sorted(outside)})
    hit_excluded = sweep & ORDER3_NONNEG_EXCLUDED
    if hit_excluded:
        failures.append({"excluded-sequence-realized": sorted(hit_excluded)})
    return _report("order3-nonneg-catalog", t0, failures, counts,
                   "all 25 sequences witnessed; sweep inside catalog")


# ---------------------------------------------------------------------------
# check 2: uniqueness <=> all terms fixed (orders <= 4)

_CASES = {UniqueStatus.UNIQUE_BY_FIXED_TERMS: "fixed", UniqueStatus.NOT_UNIQUE: "witnessed"}
_WITNESS_BUDGET = 600  # realizations unique_verdict may try per pattern


def verify_unique_iff_determined(n: int, seed: int = 0) -> VerificationReport:
    """Uniqueness holds exactly when every position is fixed (orders 2..4).

    Every pattern is covered: each of orbit_representatives gets one
    unique_verdict, counted once per pattern of its orbit.  A fixed
    sequence must match the all-ones realization, and an unfixed pattern
    needs a witness pair.  At order 4 the zero-diagonal full-off-diagonal
    (never fixed) and symmetric families, unions of orbits, are tallied by
    membership, and the semi-stable patterns must match semistable_sequence.
    """
    t0 = time.time()
    if not 2 <= n <= 4:
        return VerificationReport(f"unique-iff-determined-n{n}", "skipped",
                                  "defined for orders 2..4", {}, None, time.time() - t0)
    failures: list[dict] = []
    families = {"": frozenset()}
    if n == 4:
        families["zero-diag-full-off-"] = frozenset({"zero-diagonal", "full-off-diagonal"})
        families["symmetric-"] = frozenset({"symmetric"})
    counts = {tag + key: 0 for tag in families for key in ("patterns", "fixed", "witnessed")}
    for P, size in orbit_representatives(n):
        v = unique_verdict(P, search_budget=_WITNESS_BUDGET, seed=seed)
        tags = [tag for tag, c in families.items() if _satisfies(P, c)]
        case = _CASES.get(v.status, "pending")
        for tag in tags:
            counts[tag + "patterns"] += size
            counts[tag + case] = counts.get(tag + case, 0) + size
        if case == "pending":
            failures.append({"no-witnesses": P.to_json()["rows"]})
        elif v.unique and "zero-diag-full-off-" in tags:
            failures.append({"tag": "zero-diag-full-off-", "unexpected-fixed": P.to_json()["rows"]})
        elif v.unique and sepr_of_matrix(ones_realization(P)) != v.sequence:
            failures.append({"fixed-mismatch": P.to_json()["rows"]})
    if counts["patterns"] != 3 ** (n * n):
        failures.append({"orbit-sizes-sum": counts["patterns"]})
    if n == 4:
        ss_count = 0
        for P in simplified_semistable_patterns(4):
            ss_count += 1
            seq = fixed_sequence(P)
            if seq is None:
                failures.append({"tag": "semi-stable", "not-fixed": P.to_json()["rows"]})
            elif seq != semistable_sequence(P):
                failures.append({"tag": "semi-stable", "sequence-mismatch": P.to_json()["rows"]})
        counts["semi-stable-patterns"] = ss_count
    return _report(f"unique-iff-determined-n{n}", t0, failures, counts,
                   "all-fixed matched uniqueness everywhere")


# ---------------------------------------------------------------------------
# check 3: symmetric nonnegative unique-sequence classification

SMALL_DIGRAPH_ANCHORS = frozenset({
    "NS-NA+",    # doubly directed 4-path
    "NS-S+A+",   # triangle with a pendant vertex
    "S+S*S-A+",
    "S+S*S-A-",
    "S+S-S-A+",  # 4-path with one end loop
    "S+S-NN",    # 4-star with center loop
})


def verify_symmetric_nonneg_unique(n_max: int = 4, seed: int = 0) -> VerificationReport:
    """Classification of symmetric nonnegative patterns with unique sepr.

    Every unique pattern must start with one of the ten initial pairs; the
    seven determined pairs must match their digraph shape and sequence
    (the classifier raises on mismatch).  At order 4 the observed
    sequences of the three open pairs must include the six known anchors.
    """
    t0 = time.time()
    if not 2 <= n_max <= 5:
        return VerificationReport("symmetric-nonneg-unique", "skipped",
                                  "defined for 2 <= n_max <= 5", {}, None, time.time() - t0)
    failures: list[dict] = []
    counts: dict = {}
    open_sequences: dict[int, set[str]] = {}
    for n in range(2, n_max + 1):
        fam = PatternFamily(n, frozenset({"symmetric", "nonnegative"}))
        total = unique = 0
        open_sequences[n] = set()
        for P in enumerate_patterns(fam):
            total += 1
            v = unique_verdict(P, search_budget=_WITNESS_BUDGET, seed=seed)
            if v.status is UniqueStatus.NOT_UNIQUE:
                continue
            if v.status is not UniqueStatus.UNIQUE_BY_FIXED_TERMS:
                failures.append({"n": n, "status": v.status.value,
                                 "pattern": P.to_json()["rows"]})
                continue
            unique += 1
            try:
                cls = classify_symmetric_nonneg_unique(P, verdict=v)
            except TheoremContradiction as e:
                failures.append({"n": n, "classification-error": str(e)})
                continue
            if cls.case == "open":
                open_sequences[n].add(str(cls.sequence))
        counts[f"n{n}-patterns"] = total
        counts[f"n{n}-unique"] = unique
        counts[f"n{n}-open-sequences"] = len(open_sequences[n])
    if n_max >= 4:
        missing = SMALL_DIGRAPH_ANCHORS - open_sequences[4]
        if missing:
            failures.append({"missing-order4-anchors": sorted(missing)})
    return _report("symmetric-nonneg-unique", t0, failures, counts,
                   "ten-pair classification verified")


# ---------------------------------------------------------------------------
# check 4: semi-stable suite

def _expected_star_sequence(k: int, center_loop: bool) -> str:
    if center_loop:
        return "S-A+" if k == 2 else "S-S+" + "N" * (k - 2)
    return "NA+" if k == 2 else "NS+" + "N" * (k - 2)


_SMALL_GROUPS: tuple[tuple[str, tuple, str], ...] = (
    # (label, tuple of (path length, loops) glued by direct sum, expected)
    ("2-path pair", ((2, "none"), (2, "none")), "NS+NA+"),
    ("4-path", ((4, "none"),), "NS+NA+"),
    ("looped 2-path pair", ((2, "one"), (2, "one")), "S-S+S-A+"),
    ("looped + plain 2-path", ((2, "one"), (2, "none")), "S-S+S-A+"),
    ("double-looped + looped 2-path", ((2, "both"), (2, "one")), "S-S+S-A+"),
    ("double-looped + plain 2-path", ((2, "both"), (2, "none")), "S-S+S-A+"),
    ("4-path, one end loop", ((4, "one"),), "S-S+S-A+"),
    ("double-looped 2-path pair", ((2, "both"), (2, "both")), "A-A+A-A+"),
    ("4-path, all loops", ((4, "all"),), "A-A+A-A+"),
    ("looped 2-path + loop vertex", ((2, "one"), (1, "one")), "S-S+A-"),
    ("plain 2-path + loop vertex", ((2, "none"), (1, "one")), "S-S+A-"),
    ("3-path, one end loop", ((3, "one"),), "S-S+A-"),
    ("double-looped 2-path + loop vertex", ((2, "both"), (1, "one")), "A-A+A-"),
    ("3-path, all loops", ((3, "all"),), "A-A+A-"),
)

_STABLE_PAIR = (
    "-+000\n-0+00\n0-0+0\n00-0+\n000-0",
    "0+000\n-0+00\n0--+0\n00-0+\n000-0",
)


def _broom_ditree(n: int, m: int) -> SignPattern:
    """Strong ditree (skew signs, no loops) on n vertices with matching number m."""
    if m == 0:
        return SignPattern.zero(n)
    rows = [[Sign.ZERO] * n for _ in range(n)]

    def edge(a, b):
        rows[a][b] = Sign.PLUS
        rows[b][a] = Sign.MINUS

    for i in range(2 * m - 1):
        edge(i, i + 1)
    for extra in range(2 * m, n):
        edge(0, extra)
    return SignPattern._trusted(tuple(tuple(r) for r in rows))


def _matching_sequence(n: int, m: int) -> tuple[SeprSymbol, ...]:
    """Sequence of an order-n zero-diagonal semi-stable pattern whose
    simplified digraph has matching number m."""
    terms = []
    for k in range(1, n + 1):
        if k == n:
            terms.append(SeprSymbol.AP if 2 * m == n else SeprSymbol.N)
        elif k % 2 == 0 and k <= 2 * m:
            terms.append(SeprSymbol.SP)
        else:
            terms.append(SeprSymbol.N)
    return tuple(terms)


def verify_semistable_suite(seed: int = 0) -> VerificationReport:
    """Structure of semi-stable sepr-sequences at orders <= 5.

    Enumerates the simplified semi-stable patterns, checks every sequence
    against the structural laws and the recognizability criterion, checks
    the star/path family sequences, the attainability of the N S+ N ...
    ladder, the stable/semi-stable pair that shares a sequence, and that
    closing a cycle preserves the sepr-set.
    """
    t0 = time.time()
    failures: list[dict] = []
    counts: dict = {}
    recognizable = 0
    total = 0
    sampled = 0
    for n in range(1, 6):
        for P in simplified_semistable_patterns(n):
            total += 1
            seq = semistable_sequence(P)
            laws = check_semistable_laws(seq)
            if not laws.ok:
                failures.append({"n": n, "laws": laws.violations,
                                 "pattern": P.to_json()["rows"]})
                continue
            recog = n <= 2 or all(t is SeprSymbol.N for t in seq.terms[2:])
            recognizable += recog
            deep = n <= 3 or total % 37 == 0
            if not deep:
                continue
            sampled += 1
            # every term is fixed by signed determinants, and the fast path
            # agrees with the generic one
            ref = fixed_sequence(P)
            if ref != seq:
                failures.append({"n": n, "fast-path-mismatch": P.to_json()["rows"]})
                continue
            if semistability_recognizable(P) != recog:
                failures.append({"n": n, "recognizability": P.to_json()["rows"]})
            pred = predicted_sepr(P)
            if pred is not None and pred.sequence != seq:
                failures.append({"n": n, "rule": pred.rule,
                                 "prediction-mismatch": P.to_json()["rows"]})
    counts["semistable-patterns"] = total
    counts["deep-checked"] = sampled
    counts["recognizable-from-sequence"] = recognizable

    for k in range(2, 6):
        for center_loop in (False, True):
            P = star_pattern(k, "center" if center_loop else "none")
            got = str(semistable_sequence(P))
            want = _expected_star_sequence(k, center_loop)
            if got != want:
                failures.append({"star": k, "loop": center_loop, "got": got, "want": want})

    for label, parts, want in _SMALL_GROUPS:
        P = None
        for size, loops in parts:
            piece = path_pattern(size, loops) if size > 1 else (
                SignPattern.from_rows([[-1]]) if loops == "one" else SignPattern.zero(1)
            )
            P = piece if P is None else P.direct_sum(piece)
        if not is_sign_semi_stable(P):
            failures.append({"group": label, "not-semi-stable": P.to_json()["rows"]})
            continue
        got = str(semistable_sequence(P))
        if got != want:
            failures.append({"group": label, "got": got, "want": want})

    # closing a cycle keeps the sepr-set
    for base in (path_pattern(4), path_pattern(3, "one")):
        w = add_cycle_witness(base)
        if is_sign_semi_stable(w):
            failures.append({"add-cycle": "result still semi-stable"})
        if fixed_sequence(w) != fixed_sequence(base):
            failures.append({"add-cycle": "sequence changed",
                             "base": base.to_json()["rows"]})
        a = set(map(str, sweep_sepr_table(base, budget=10**5, seed=seed)))
        b = set(map(str, sweep_sepr_table(w, budget=10**5, seed=seed)))
        if a != b:
            failures.append({"add-cycle": "grid sepr-sets differ",
                             "base": sorted(a), "witness": sorted(b)})
    if not semistability_recognizable(path_pattern(2)):
        failures.append({"recognizable": "2-path should be recognizable"})
    if semistability_recognizable(path_pattern(4)):
        failures.append({"recognizable": "4-path sequence is also a cycle's"})

    ladder = 0
    for n in range(1, 6):
        for m in range(0, n // 2 + 1):
            P = _broom_ditree(n, m)
            if not is_sign_semi_stable(P):
                failures.append({"ladder": (n, m), "not-semi-stable": True})
                continue
            if matching_number(simplify(P)) != m:
                failures.append({"ladder": (n, m), "matching-number": "off"})
                continue
            seq = semistable_sequence(P)
            if seq.terms != _matching_sequence(n, m):
                failures.append({"ladder": (n, m), "got": str(seq)})
            ladder += 1
    counts["ladder-sequences"] = ladder

    P5 = SignPattern.parse(_STABLE_PAIR[0])
    Q5 = SignPattern.parse(_STABLE_PAIR[1])
    s_p, s_q = fixed_sequence(P5), fixed_sequence(Q5)
    if str(s_p) != "S-S+S-S+A-" or s_p != s_q:
        failures.append({"shared-sequence-pair": [str(s_p), str(s_q)]})
    if not (is_sign_stable_irreducible(P5) and not is_sign_stable_irreducible(Q5)):
        failures.append({"stability-pair": "stability test failed to distinguish"})
    return _report("semistable-suite", t0, failures, counts,
                   "laws, families, ladder, and stability pair verified")


# ---------------------------------------------------------------------------
# quick anchor checks

def verify_symbol_algebra() -> VerificationReport:
    """Re-derive both 7x7 symbol tables from the sign-set semantics.

    Addition is set union of the present minor signs; multiplication is
    the set of pairwise sign products.  All 98 entries must agree with
    the stored tables, and the block composition of S+N with A+S+A- must
    come out S+S+S*S-N.
    """
    from .signs import ADD_TABLE, MUL_TABLE, combine, parse_sequence

    t0 = time.time()
    failures: list[dict] = []
    bit_signs = {1: 1, 2: -1, 4: 0}

    def mask_signs(mask: int) -> list[int]:
        return [s for b, s in bit_signs.items() if mask & b]

    def sign_bit(x: int) -> int:
        return 1 if x > 0 else (2 if x < 0 else 4)

    checked = 0
    for a in SeprSymbol:
        for b in SeprSymbol:
            add_mask = a.sign_mask | b.sign_mask
            mul_mask = 0
            for x in mask_signs(a.sign_mask):
                for y in mask_signs(b.sign_mask):
                    mul_mask |= sign_bit(x * y)
            if ADD_TABLE[a][b] is not SeprSymbol.from_sign_mask(add_mask):
                failures.append({"table": "+", "entry": (a.token, b.token)})
            if MUL_TABLE[a][b] is not SeprSymbol.from_sign_mask(mul_mask):
                failures.append({"table": "*", "entry": (a.token, b.token)})
            checked += 2
    got = str(combine(parse_sequence("S+N"), parse_sequence("A+S+A-")))
    if got != "S+S+S*S-N":
        failures.append({"combine-example": got})
    return _report("symbol-algebra", t0, failures, {"table-entries": checked},
                   "98 entries match the sign-set semantics")


_MATRIX_ANCHORS: tuple[tuple[str, tuple[tuple, ...]], ...] = (
    ("NS-A+", ((0, 1, 0), (1, 0, 1), (1, 0, 0))),
    ("A+A+A+", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ("A+NN", ((1, 1, 1), (1, 1, 1), (1, 1, 1))),
    ("NA-A+", ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
)


def verify_matrix_anchors() -> VerificationReport:
    """Exact sepr-sequences of the reference matrices (zero tolerance)."""
    t0 = time.time()
    failures: list[dict] = []
    checked = 0
    for want, rows in _MATRIX_ANCHORS:
        got = str(sepr_of_matrix(RationalMatrix.from_rows(rows)))
        checked += 1
        if got != want:
            failures.append({"matrix": rows, "want": want, "got": got})
    for want, rows in EMBEDDED_ORDER3_WITNESSES.items():
        got = str(sepr_of_matrix(RationalMatrix(rows)))
        checked += 1
        if got != want:
            failures.append({"witness": want, "got": got})
    return _report("matrix-anchors", t0, failures, {"matrices": checked})


_EXAMPLE_P3 = "++0\n--+\n0+0"
_EXAMPLE_Q3 = "-+-\n-++\n--0"
_EXAMPLE_P4 = "++00\n0-+0\n+0++\n00-0"
_EXAMPLE_P4_CUT = "++00\n0-+0\n+0+0\n00-0"


def verify_seprset_anchors(budget: int = 10**6, seed: int = 0) -> VerificationReport:
    """Grid sweeps recover the reference sepr-sets exactly."""
    from .analysis import sepr_set_estimate

    t0 = time.time()
    failures: list[dict] = []
    cases = (
        (_EXAMPLE_P3, {"S*S-A-", "S*S*A-"}, True),
        (_EXAMPLE_Q3, {"S*A*A-", "S*S*A-"}, True),
        (_EXAMPLE_P4_CUT, {"S*S*NN", "S*S*S+N", "S*S*S-N"}, False),
    )
    for text, want, exact in cases:
        est = sepr_set_estimate(SignPattern.parse(text), budget=budget, seed=seed)
        got = {str(s) for s in est.sequences}
        ok = got == want if exact else got >= want
        if not ok:
            failures.append({"pattern": text.split(), "want": sorted(want), "got": sorted(got)})
    v = unique_verdict(SignPattern.parse(_EXAMPLE_P4))
    if not (v.unique and str(v.sequence) == "S*S*S*A-"):
        failures.append({"pattern": _EXAMPLE_P4.split(), "verdict": v.status.value})
    return _report("seprset-anchors", t0, failures, {"cases": 4})


# ---------------------------------------------------------------------------
# aggregate runner

def run_all_verifications(seed: int = 0, budget: int = 10**6) -> list[VerificationReport]:
    reports = [
        verify_symbol_algebra(),
        verify_matrix_anchors(),
        verify_seprset_anchors(budget=budget, seed=seed),
        verify_order3_nonneg_catalog(),
        verify_unique_iff_determined(2, seed=seed),
        verify_unique_iff_determined(3, seed=seed),
        verify_unique_iff_determined(4, seed=seed),
        verify_symmetric_nonneg_unique(4, seed=seed),
        verify_semistable_suite(seed=seed),
    ]
    return reports
