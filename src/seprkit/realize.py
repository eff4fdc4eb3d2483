"""Exact rational realizations of sign patterns and their sepr-sequences.

Everything here is exact, and realization sweeps are reproducible from a
seed.  Matrices carry Fraction entries; the walks and sweeps run on integer
rows.  Each exact minor, determinant or inverse comes from one kernel, _det:
integer rows (positive row scaling clears the denominators), closed forms to
order 3 and fraction-free Bareiss elimination above.  Whole tables of minors
are built otherwise: by Laplace recursion in the batched sweep and the
all-nonzero walk (whose rows keep one denominator each), and, for the sepr
of one matrix, by one depth-first walk over index sets in which each set's
bordered minors follow from its parent's by one exact step of Sylvester's
identity (below a zero principal minor, from _det on the table of its
nearest nonzero ancestor).  Term signs come from the pattern module's one
recursion; the all-nonzero walk asks it only about zero minors that have
a term.  Alongside the plain grid sweep the module provides targeted
constructors (dominate a chosen term, hit an exact zero of an ambiguous
minor, make all ambiguous minors nonzero) that the analysis layer uses to
separate sepr-sequences.

The grid sweep evaluates all principal minors of a batch of realizations
at once, in int64, by one shared Laplace recursion over minors.  It runs
whenever n! * M**n <= 2**63 - 1, with M the largest grid magnitude scaled
to an integer; no intermediate value can then overflow (the default grid,
M = 36, admits n <= 8).  Other grids are swept one exact rational
realization at a time.  Batches are cut into slices whose live arrays stay
within _SWEEP_BYTES (1 MiB), unless one realization alone needs more.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, isqrt, lcm
from typing import Iterator, Optional, Sequence

import numpy as np

from .pattern import (
    OrderGuardError,
    SignPattern,
    _first_terms,
    _term_signs,
    mask_indices,
    signed_det_masked,
    subsets_of_size,
)
from .signs import AmbSign, SeprSequence, SeprSymbol, Sign, neg_superscripts

SEPR_ORDER_GUARD = 14
ALLNONZERO_ORDER_GUARD = 10
INVERSE_ORDER_GUARD = 6
_CHUNK = 1 << 14
_INT64_MAX = 2**63 - 1
_SWEEP_BYTES = 1 << 20


class RealizationError(RuntimeError):
    """A targeted construction failed where its proof says it cannot."""


# ---------------------------------------------------------------------------
# rational matrices

def _to_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int, or 'p/q' text")
    return Fraction(x)


def _fraction_text(x: Fraction) -> str:
    """str(x) at any size: Decimal prints ints past the int-to-str digit limit."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix with exact rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        return cls(tuple(tuple(_to_fraction(x) for x in row) for row in rows))

    @classmethod
    def parse(cls, text: str) -> "RationalMatrix":
        """Parse n lines of n rationals ('p/q' or integer) separated by spaces."""
        rows = []
        for li, ln in enumerate((l for l in text.splitlines() if l.strip()), start=1):
            try:
                rows.append(tuple(Fraction(tok) for tok in ln.split()))
            except (ValueError, ZeroDivisionError) as e:
                raise ValueError(f"bad rational on line {li}: {e}") from None
        return cls(tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def with_entry(self, i: int, j: int, val) -> "RationalMatrix":
        rows = [list(r) for r in self.rows]
        rows[i][j] = _to_fraction(val)
        return RationalMatrix(tuple(tuple(r) for r in rows))

    def to_text(self) -> str:
        return "\n".join(" ".join(_fraction_text(x) for x in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[_fraction_text(x) for x in row] for row in self.rows]}

    def __str__(self) -> str:
        return self.to_text()

    def sign_pattern(self) -> SignPattern:
        return SignPattern(tuple(tuple(Sign.of(x) for x in row) for row in self.rows))

    def is_realization_of(self, P: SignPattern) -> bool:
        return self.n == P.n and self.sign_pattern() == P

    def direct_sum(self, other: "RationalMatrix") -> "RationalMatrix":
        n, m = self.n, other.n
        z = Fraction(0)
        rows = [tuple(self.rows[i]) + (z,) * m for i in range(n)]
        rows += [(z,) * n + tuple(other.rows[i]) for i in range(m)]
        return RationalMatrix(tuple(rows))

    def minor(self, ridx: Sequence[int], cidx: Sequence[int]) -> Fraction:
        """Exact minor on rows `ridx` and columns `cidx`.

        Each chosen row, cut to the chosen columns, is scaled by the lcm of
        its denominators; the integer minor over the product of the
        multipliers is the rational one.
        """
        if len(ridx) != len(cidx):
            raise ValueError("a minor needs as many rows as columns")
        scale, rows = 1, []
        for i in ridx:
            mult, row = _int_row([self.rows[i][j] for j in cidx])
            scale *= mult
            rows.append(row)
        idx = range(len(rows))
        return Fraction(_det(rows, idx, idx), scale)

    def det(self) -> Fraction:
        return self.minor(range(self.n), range(self.n))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse as the adjugate over the determinant; raises on singular input."""
        n = self.n
        if n > INVERSE_ORDER_GUARD:
            raise OrderGuardError(f"inverse limited to order {INVERSE_ORDER_GUARD}")
        d = self.det()
        if d == 0:
            raise ValueError("matrix is singular")
        rest = [[k for k in range(n) if k != i] for i in range(n)]
        return RationalMatrix(tuple(
            tuple((-1) ** (i + j) * self.minor(rest[j], rest[i]) / d for j in range(n))
            for i in range(n)))


# ---------------------------------------------------------------------------
# exact determinants

def _int_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A row scaled by the lcm of its denominators: (multiplier, integer entries).

    Positive per-row scaling multiplies every minor by a positive factor, so
    all minor signs are preserved.
    """
    dens = [x.denominator for x in row]
    mult = lcm(*dens)
    if mult == 1:
        return 1, [x.numerator for x in row]
    return mult, [x.numerator * (mult // q) for x, q in zip(row, dens)]


def _int_rows(B: RationalMatrix) -> list[list[int]]:
    return [_int_row(row)[1] for row in B.rows]


def _det(rows: Sequence[Sequence[int]], ridx: Sequence[int], cidx: Sequence[int]) -> int:
    """Exact determinant of the integer rows `ridx` cut to the columns `cidx`.

    Closed forms to order 3; above that, fraction-free Bareiss elimination
    (every division is exact), swapping in a lower row on a zero pivot.
    """
    k = len(ridx)
    if k == 0:
        return 1
    if k == 1:
        return rows[ridx[0]][cidx[0]]
    if k == 2:
        r0, r1 = rows[ridx[0]], rows[ridx[1]]
        a, b = cidx
        return r0[a] * r1[b] - r0[b] * r1[a]
    if k == 3:
        r0, r1, r2 = rows[ridx[0]], rows[ridx[1]], rows[ridx[2]]
        a, b, c = cidx
        return (
            r0[a] * (r1[b] * r2[c] - r1[c] * r2[b])
            - r0[b] * (r1[a] * r2[c] - r1[c] * r2[a])
            + r0[c] * (r1[a] * r2[b] - r1[b] * r2[a])
        )
    m = [[rows[i][j] for j in cidx] for i in ridx]
    sign = 1
    prev = 1
    for p in range(k - 1):
        if m[p][p] == 0:
            piv = next((r for r in range(p + 1, k) if m[r][p] != 0), None)
            if piv is None:
                return 0
            m[p], m[piv] = m[piv], m[p]
            sign = -sign
        row_p = m[p]
        pivot = row_p[p]
        for i in range(p + 1, k):
            row_i = m[i]
            lip = row_i[p]
            for j in range(p + 1, k):
                row_i[j] = (row_i[j] * pivot - lip * row_p[j]) // prev
        prev = pivot
    return sign * m[k - 1][k - 1]


# ---------------------------------------------------------------------------
# sepr of a matrix

def sepr_sequence_of_minor_signs(sign_masks: Sequence[int]) -> SeprSequence:
    return SeprSequence(tuple(SeprSymbol.from_sign_mask(m) for m in sign_masks))


def sepr_of_matrix(B: RationalMatrix) -> SeprSequence:
    """Exact sepr-sequence of a rational matrix.

    The k-th symbol records which of +, -, 0 occur among the order-k
    principal minors.  All 2^n - 1 of them come from one depth-first walk
    over index sets S of the integer rows A (positive row scaling keeps
    every sign), indices added in ascending order: the principal-minor
    recursion of Griffin and Tsatsomeros, done fraction-free.  A node with
    det A[S] != 0 holds the table T[i][j] = det A[S+i, S+j] for i, j > max S.
    Its children's determinants are the diagonal of T, and child S+p builds
    its own table by one exact step of Sylvester's identity,
    (T[p][p] T[i][j] - T[i][p] T[p][j]) / det A[S].

    Below a zero minor det A[S+E] = 0 the walk keeps T and det A[S] and
    reads each descendant S+F from the general identity
    det T[F, F] = det A[S]^(|F|-1) det A[S+F].  It rebuilds a table at the
    first descendant whose determinant is nonzero and that has at least
    three indices after it; nearer the leaves the few remaining
    determinants are cheaper to read from T.  A subtree is skipped once
    every order it can still reach has shown +, - and 0.
    """
    n = B.n
    if n > SEPR_ORDER_GUARD:
        raise OrderGuardError(f"sepr computation limited to order {SEPR_ORDER_GUARD}")
    seen = [0] * (n + 2)  # per order: 1 a positive minor, 2 a negative one, 4 a zero one
    _principal_walk(seen, _int_rows(B), 1, 0)
    return sepr_sequence_of_minor_signs(seen[1:n + 1])


def _mark(seen: list[int], order: int, x: int, d: int, e: int) -> None:
    """Record the sign of the order-`order` minor x / d^e."""
    seen[order] |= 4 if x == 0 else (1 if (x > 0) != (d < 0 and e % 2 == 1) else 2)


def _principal_walk(seen: list[int], T: list[list[int]], d: int, k: int) -> None:
    """Walk the subtree of S: T is its table over the indices after max S,
    d = det A[S] != 0 and k = |S|."""
    m = len(T)
    s = seen[k + 1]
    for i in range(m):
        v = T[i][i]
        s |= 1 if v > 0 else (2 if v < 0 else 4)
    seen[k + 1] = s
    # child p reaches orders k + 2 .. k + m - p; o is the lowest unfinished one
    o = k + 2
    while o <= k + m and seen[o] == 7:
        o += 1
    for p in range(min(m - 1, k + m - o + 1)):
        v, rp = T[p][p], T[p]
        if p == m - 2:
            last = T[m - 1]
            _mark(seen, k + 2, v * last[m - 1] - last[p] * rp[m - 1], d, 1)
        elif v:
            _principal_walk(seen, [[(v * ri[j] - ri[p] * rp[j]) // d for j in range(p + 1, m)]
                                   for ri in T[p + 1:]], v, k + 1)
        else:
            _zero_walk(seen, T, d, k, [p])


def _zero_walk(seen: list[int], T: list[list[int]], d: int, k: int, E: list[int]) -> None:
    """Walk the subtree of S+E, where det A[S+E] = 0 and S, with k = |S|,
    has table T and d = det A[S] != 0."""
    m = len(T)
    kk = k + len(E) + 1  # the order of each child S+E+q
    o = kk + 1
    while o <= kk + m - 2 - E[-1] and seen[o] == 7:
        o += 1
    for q in range(E[-1] + 1, m):
        F = E + [q]
        deep = q < m - 3  # three or more indices after q: a new table pays
        v = 0  # unless computed, neither its sign nor a table is needed
        if deep or seen[kk] != 7:
            v = _det(T, F, F)
            _mark(seen, kk, v, d, len(E))
        if q == m - 1 or q > kk + m - 1 - o:
            continue
        if v and deep:
            dk = d ** len(F)
            rest = range(q + 1, m)
            _principal_walk(seen, [[_det(T, F + [i], F + [j]) // dk for j in rest] for i in rest],
                            v // (dk // d), kk)
        elif q == m - 2:
            F.append(m - 1)
            _mark(seen, kk + 1, _det(T, F, F), d, len(F) - 1)
        else:
            _zero_walk(seen, T, d, k, F)


# ---------------------------------------------------------------------------
# magnitude grids and realization streams

@dataclass(frozen=True)
class MagnitudeGrid:
    """Finite set of positive rational magnitudes for realization sweeps."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("grid must be nonempty")
        if any(v <= 0 for v in self.values):
            raise ValueError("grid magnitudes must be positive")

    @classmethod
    def of(cls, *vals) -> "MagnitudeGrid":
        return cls(tuple(_to_fraction(v) for v in vals))

    @classmethod
    def default(cls) -> "MagnitudeGrid":
        return cls.of("1/6", "1/3", "1/2", 1, 2, 3, 6)

    @classmethod
    def epsilon_preset(cls, n: int) -> "MagnitudeGrid":
        """Unit magnitude plus the per-order small value 1/n!."""
        return cls.of(1, Fraction(1, factorial(n)))

    @classmethod
    def parse(cls, text: str) -> "MagnitudeGrid":
        return cls.of(*[t for t in text.split(",") if t.strip()])

    def int_scaled(self) -> tuple[int, ...]:
        mult = lcm(*(v.denominator for v in self.values))
        return tuple(int(v * mult) for v in self.values)

    def canonical_digit(self) -> int:
        one = Fraction(1)
        return self.values.index(one) if one in self.values else 0


def _digit_batches(g: int, nnz: int, budget: int, seed: int,
                   canonical: int) -> Iterator[np.ndarray]:
    """Batches of magnitude-index rows; exhaustive when g**nnz <= budget.

    Oversized spaces get one canonical row (all `canonical`) followed by a
    counter-based (Philox) sample, so runs are reproducible from the seed.
    """
    space = g**nnz
    if space <= budget:
        for start in range(0, space, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, space), dtype=np.int64)
            digits = np.empty((len(idx), nnz), dtype=np.int64)
            rem = idx
            for t in range(nnz):
                digits[:, t] = rem % g
                rem = rem // g
            yield digits
        return
    yield np.full((1, nnz), canonical, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    remaining = budget - 1
    while remaining > 0:
        b = min(_CHUNK, remaining)
        yield rng.integers(0, g, size=(b, nnz), dtype=np.int64)
        remaining -= b


def _matrix_from_digits(P: SignPattern, grid: MagnitudeGrid,
                        positions: Sequence[tuple[int, int]], digits) -> RationalMatrix:
    signed = {Sign.PLUS: grid.values, Sign.MINUS: tuple(-x for x in grid.values)}
    rows = [[Fraction(0)] * P.n for _ in range(P.n)]
    for (i, j), d in zip(positions, digits.tolist()):
        rows[i][j] = signed[P.rows[i][j]][d]
    return RationalMatrix(tuple(tuple(r) for r in rows))


def grid_realizations(P: SignPattern, grid: Optional[MagnitudeGrid] = None,
                      budget: int = 10**6, seed: int = 0) -> Iterator[RationalMatrix]:
    """Deterministic stream of realizations with magnitudes from the grid.

    Exhaustive (in mixed-radix index order, first nonzero position varying
    fastest) when the grid space fits the budget; otherwise a seeded
    quasi-random subsample prefixed with the canonical all-unit matrix.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    grid = grid or MagnitudeGrid.default()
    positions = P.nonzero_positions()
    for batch in _digit_batches(len(grid.values), len(positions), budget, seed,
                                grid.canonical_digit()):
        for row in batch:
            yield _matrix_from_digits(P, grid, positions, row)


# ---------------------------------------------------------------------------
# batched exact sweep

# minor-sign bitmask (1 pos, 2 neg, 4 zero) -> SeprSymbol value
_SYMBOL_LUT = np.array([0] + [int(SeprSymbol.from_sign_mask(m)) for m in range(1, 8)],
                       dtype=np.int64)


def _sequence_from_code(code: int, n: int) -> SeprSequence:
    """Decode n base-7 symbol digits, the first position most significant."""
    return SeprSequence(tuple(SeprSymbol(code // 7**k % 7) for k in reversed(range(n))))


@lru_cache(maxsize=None)
def _minor_levels(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Laplace-expansion tables that yield every principal minor of order n.

    Level j holds the minors E[R, C] with |R| = |C| = j and C drawn from R
    plus the columns below r = min R.  Expanding along row r,
    E[R, C] = sum over t of (-1)^t E[r, C[t]] E[R - r, C - C[t]], and each
    sub-minor lies on level j - 1 (level 0 is the empty minor, 1).  Per
    level: entry[t, m] = r*n + C[t], plus n*n for a negated (odd t) term;
    sub[t, m], the sub-minor's row; and principal[m], whether R == C.
    """
    prev = {(0, 0): 0}
    levels = []
    for j in range(1, n + 1):
        index: dict[tuple[int, int], int] = {}
        entry, sub = [], []
        for R in combinations(range(n), j):
            r, rmask = R[0], sum(1 << i for i in R)
            for C in combinations(sorted(set(R) | set(range(r))), j):
                cmask = sum(1 << i for i in C)
                index[rmask, cmask] = len(index)
                entry.append([r * n + c + n * n * (t & 1) for t, c in enumerate(C)])
                sub.append([prev[rmask ^ (1 << r), cmask ^ (1 << c)] for c in C])
        levels.append((np.array(entry, dtype=np.int32).T, np.array(sub, dtype=np.int32).T,
                       np.array([rm == cm for rm, cm in index], dtype=bool)))
        prev = index
    return tuple(levels)


def _sweep_plan(P: SignPattern) -> list[tuple[int, list, np.ndarray]]:
    """Per level: minor count, per rank t the (minor rows, entry rows,
    sub-minor rows) of the terms whose entry is nonzero in P, and the
    principal rows.  Entry rows index the nonzero entries of P, in
    `nonzero_positions` order, stacked over their negations.
    """
    n = P.n
    positions = P.nonzero_positions()
    row = np.full(2 * n * n, -1, dtype=np.int64)
    for t, (i, j) in enumerate(positions):
        row[[i * n + j, n * n + i * n + j]] = t, len(positions) + t
    plan = []
    for entry, sub, principal in _minor_levels(n):
        ranks = []
        for e, s in zip(row[entry], sub):
            dest = np.flatnonzero(e >= 0)
            ranks.append((dest if len(dest) < len(e) else slice(None), e[dest], s[dest]))
        plan.append((len(principal), ranks, np.flatnonzero(principal)))
    return plan


def _slice_codes(plan: list[tuple[int, list, np.ndarray]], entries: np.ndarray) -> np.ndarray:
    """Base-7 sepr codes of a slice; `entries` is (nonzero entries, realizations)."""
    stack = np.concatenate([entries, -entries])
    prev = np.ones((1, entries.shape[1]), dtype=np.int64)
    code = np.zeros(entries.shape[1], dtype=np.int64)
    for size, ranks, principal in plan:
        cur = np.zeros((size, entries.shape[1]), dtype=np.int64)
        for dest, coef, sub in ranks:
            term = stack[coef]
            term *= prev[sub]
            cur[dest] += term
        prev = cur
        d = cur[principal]
        seen = (d > 0).any(0) + 2 * (d < 0).any(0) + 4 * (d == 0).any(0)
        code = code * 7 + _SYMBOL_LUT[seen]
    return code


def _first_witnesses(P: SignPattern, g: int, nd: int, budget: int, seed: int, canonical: int,
                     entries) -> dict[int, np.ndarray]:
    """First digit row of each base-7 sepr code over `_digit_batches(g, nd, budget, seed,
    canonical)`, in stream order; `entries` maps digit rows to P's nonzero entries."""
    plan = _sweep_plan(P)
    # int64 rows live at once: the entry stack, the previous level, and the
    # current level with one term and its gathered sub-minors
    sizes = [size for size, _, _ in plan]
    live = 2 * len(P.nonzero_positions()) + max(p + 3 * c for p, c in zip([1] + sizes, sizes))
    width = max(1, _SWEEP_BYTES // (8 * live))
    found: dict[int, np.ndarray] = {}
    for digits in _digit_batches(g, nd, budget, seed, canonical):
        for lo in range(0, len(digits), width):
            part = digits[lo:lo + width]
            codes = _slice_codes(plan, entries(part))
            for fi in np.sort(np.unique(codes, return_index=True)[1]).tolist():
                if int(codes[fi]) not in found:
                    found[int(codes[fi])] = part[fi].copy()
    return found


def sweep_sepr_table(P: SignPattern, grid: Optional[MagnitudeGrid] = None,
                     budget: int = 10**6, seed: int = 0) -> dict[SeprSequence, RationalMatrix]:
    """Distinct sepr-sequences over the grid realization stream, one witness each.

    Each sequence keeps its first realization in stream order.  The batched
    int64 sweep runs whenever it is exact; other grids fall back to exact
    rational sepr_of_matrix per realization.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if P.n > SEPR_ORDER_GUARD:
        raise OrderGuardError(f"sepr computation limited to order {SEPR_ORDER_GUARD}")
    grid = grid or MagnitudeGrid.default()
    # a j x j minor, and each partial sum or product E * M of its expansion,
    # is a sum of at most j! permutation terms of size at most M**j
    if factorial(P.n) * max(grid.int_scaled()) ** P.n <= _INT64_MAX:
        positions = P.nonzero_positions()
        signs = np.array([int(P.rows[i][j]) for i, j in positions], dtype=np.int64)
        vals = np.array(grid.int_scaled(), dtype=np.int64)
        found = _first_witnesses(P, len(vals), len(positions), budget, seed,
                                 grid.canonical_digit(), lambda part: signs[:, None] * vals[part.T])
        return {_sequence_from_code(c, P.n): _matrix_from_digits(P, grid, positions, d)
                for c, d in found.items()}
    out: dict[SeprSequence, RationalMatrix] = {}
    for B in grid_realizations(P, grid, budget, seed):
        out.setdefault(sepr_of_matrix(B), B)
    return out


# ---------------------------------------------------------------------------
# targeted realizations

def ones_realization(P: SignPattern) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(s) for s in row] for row in P.rows])


def dominated_realization(P: SignPattern, mask: int, target: Sign) -> Optional[RationalMatrix]:
    """Realization whose minor on `mask` provably has sign `target`.

    Picks the lexicographically first permutation term of that sign and
    multiplies its entries by w = 4, 16, 64, ... until the exactly-computed
    minor agrees; None when no such term exists.  Every other term of the
    order-k minor shares at most k - 2 entries with the chosen one, so once
    w^2 >= k! the chosen term outweighs the k! - 1 others and the sign holds.
    """
    if target is Sign.ZERO:
        raise ValueError("use zero_minor_realization for a zero target")
    idx = mask_indices(mask)
    picks = _first_terms(P.rows, idx, idx).get(target)
    if picks is None:
        return None
    w = 4
    while True:
        rows = [[int(s) for s in row] for row in P.rows]
        for i, p in zip(idx, picks):
            rows[i][idx[p]] *= w
        if Sign.of(_det(rows, idx, idx)) is target:
            return RationalMatrix.from_rows(rows)
        if w * w >= factorial(len(idx)):
            raise RealizationError("a dominating term did not fix the minor's sign")
        w *= 4


def zero_minor_realization(P: SignPattern, mask: int) -> Optional[RationalMatrix]:
    """Exact rational realization with det B[mask] = 0.

    For an ambiguous minor, walks one entry at a time from a negative
    witness to a positive one, both integral; the determinant is linear in
    each entry, so the crossing yields an exact rational zero with a valid
    entry sign.
    """
    d = signed_det_masked(P, mask)
    if d.value is AmbSign.ZERO:
        return ones_realization(P)
    if d.value is not AmbSign.AMBIGUOUS:
        return None
    Bm = dominated_realization(P, mask, Sign.MINUS)
    Bp = dominated_realization(P, mask, Sign.PLUS)
    if Bm is None or Bp is None:
        raise RealizationError("no dominated realization of an ambiguous minor")
    cur, new_rows = ([[int(x) for x in row] for row in B.rows] for B in (Bm, Bp))
    idx = mask_indices(mask)
    d_cur = _det(cur, idx, idx)
    for i in idx:
        for j in idx:
            new, old = new_rows[i][j], cur[i][j]
            if new == old:
                continue
            cur[i][j] = new
            d_new = _det(cur, idx, idx)
            if d_new == 0:
                return RationalMatrix.from_rows(cur)
            if (d_new > 0) != (d_cur > 0):
                # strictly between old and new, so the entry sign is valid
                cur[i][j] = old - Fraction(d_cur * (new - old), d_new - d_cur)
                return RationalMatrix.from_rows(cur)
            d_cur = d_new
    raise RealizationError("sign never flipped walking between dominated realizations")


def distinct_sepr_search(P: SignPattern, ambiguous_masks: Sequence[int], budget: int = 4000,
                         seed: int = 0, grid: Optional[MagnitudeGrid] = None,
                         ) -> Optional[tuple[RationalMatrix, SeprSequence, RationalMatrix, SeprSequence]]:
    """Look for two realizations of P with different sepr-sequences.

    `ambiguous_masks` are the principal masks whose minors have terms of
    both signs, by order then mask as `term_verdicts` lists them.
    Candidates: the all-unit realization, targeted realizations for the
    first 24 ambiguous minors (dominated +, dominated -, exact zero), the
    realization with all ambiguous minors nonzero, then grid samples up to
    the budget.
    """
    n = P.n

    def candidates() -> Iterator[RationalMatrix]:
        yield ones_realization(P)
        for mask in ambiguous_masks[:24]:
            for target in (Sign.PLUS, Sign.MINUS):
                B = dominated_realization(P, mask, target)
                if B is not None:
                    yield B
            z = zero_minor_realization(P, mask)
            if z is not None:
                yield z
        if n <= ALLNONZERO_ORDER_GUARD:
            yield allnonzero_realization(P)
        yield from grid_realizations(P, grid, budget, seed)

    seen: dict[SeprSequence, RationalMatrix] = {}
    for count, B in enumerate(candidates()):
        if count >= budget:
            break
        s = sepr_of_matrix(B)
        if seen and s not in seen:
            s0, B0 = next(iter(seen.items()))
            return B0, s0, B, s
        seen.setdefault(s, B)
    return None


# ---------------------------------------------------------------------------
# all ambiguous minors nonzero

def _minor_table(rows: Sequence[Sequence[int]]) -> dict[tuple[int, int], int]:
    """Every equal-size minor E[rm, cm] of integer `rows`, keyed by (row mask, col mask).

    One Laplace recursion along row r = min(rm): E[rm, cm] is the sum over
    the columns c_0 < c_1 < ... of cm of (-1)**t * rows[r][c_t] *
    E[rm - r, cm - c_t], zero entries skipped; E[0, 0] = 1 and an empty sum
    is 0.  Keys run in k, rm, cm order.
    """
    n = len(rows)
    by_size = [[(m, mask_indices(m)) for m in subsets_of_size(n, k)] for k in range(n + 1)]
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    for k in range(1, n + 1):
        for rm, ridx in by_size[k]:
            row, rest = rows[ridx[0]], rm ^ (1 << ridx[0])
            for cm, cidx in by_size[k]:
                acc = 0
                for t, c in enumerate(cidx):
                    if e := row[c]:
                        acc += (-e if t & 1 else e) * table[rest, cm ^ (1 << c)]
                table[rm, cm] = acc
    return table


def allnonzero_realization(P: SignPattern) -> RationalMatrix:
    """Realization in which every ambiguous equal-size minor is nonzero.

    Inductively over minor order: when an ambiguous minor vanishes, nudge
    one of its entries whose complementary minor is nonzero (so the entry
    sits on a nonzero term).  The step is half the exact bound
    min |d| / |cofactor| over all minors through that entry, which keeps
    every currently-nonzero minor's sign intact.  Every determinant is read
    from one table D over all equal-size (row mask, col mask) pairs, the
    integer minors of N, where row i of B is N[i] / L[i] with one positive
    denominator per row.  When a minor is reached, every smaller minor with
    a term is nonzero (one with terms of one sign always, an ambiguous one
    since its turn), so a zero minor has a term iff row u = min rm has an
    entry (u, v) with a nonzero cofactor; the first such entry is nudged.
    A zero minor with a term is ambiguous, which `_term_signs` confirms
    (one memo per call).  A nudge B[u][v] += step rescales row u, in N, L
    and D, by what L[u] lacks of the step's denominator; then each minor
    through (u, v) moves by step * L[u] times its signed cofactor, which
    lacks row u; none else moves.
    """
    n = P.n
    if n > ALLNONZERO_ORDER_GUARD:
        raise OrderGuardError(f"limited to order {ALLNONZERO_ORDER_GUARD}")
    N = [[int(s) for s in row] for row in P.rows]
    L = [1] * n
    D = _minor_table(N)
    memo: dict = {}
    # masks through index i, by size, each with the parity of i's position
    through = [[[(m, (m & ((1 << i) - 1)).bit_count() & 1)
                 for m in subsets_of_size(n, k) if m >> i & 1] for k in range(n + 1)]
               for i in range(n)]
    nonzero = [sum(1 << j for j, x in enumerate(row) if x) for row in N]  # columns, by row
    for rm, cm in D:
        if D[rm, cm] != 0:
            continue
        u = (rm & -rm).bit_length() - 1
        c = cm & nonzero[u]  # v: the first of these columns with a nonzero cofactor
        while c and D[rm ^ (1 << u), cm ^ (c & -c)] == 0:
            c &= c - 1
        if not c:
            continue
        v = (c & -c).bit_length() - 1
        if _term_signs(P.rows, memo, rm, cm) != 3:
            raise RealizationError("a zero minor with a term is not ambiguous")
        hits = []  # (minor through (u, v), its signed cofactor) where that is nonzero
        for rows_u, cols_v in zip(through[u], through[v]):
            for rm2, pu in rows_u:
                for cm2, pv in cols_v:
                    cof = D[rm2 ^ (1 << u), cm2 ^ (1 << v)]
                    if cof:
                        hits.append(((rm2, cm2), -cof if pu ^ pv else cof))
        # min |D| / |cof| as p / q, by cross-multiplying; over L[u] it bounds B
        p, q = 0, 0
        for key, cof in hits:
            if d := D[key]:
                a, b = abs(d), abs(cof)
                if not q or a * q < p * b:
                    p, q = a, b
        step = Fraction(p, 2 * q * L[u])
        if (f := lcm(L[u], step.denominator) // L[u]) > 1:
            N[u], L[u] = [x * f for x in N[u]], L[u] * f
            for key in D:
                if key[0] >> u & 1:
                    D[key] *= f
        delta = step.numerator * (L[u] // step.denominator)
        N[u][v] += delta
        for key, cof in hits:
            D[key] += delta * cof
    return RationalMatrix(tuple(tuple(Fraction(x, l) for x in row) for row, l in zip(N, L)))


# ---------------------------------------------------------------------------
# diagonal scaling and the inverse relation

def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    if x <= 0:
        return None
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a == x.numerator and b * b == x.denominator:
        return Fraction(a, b)
    return None


def scale_diagonal_to_one(B: RationalMatrix) -> RationalMatrix:
    """Two-sided positive diagonal scaling D B D making the diagonal all ones.

    Every minor of the result has the same sign as in B.  Exactness
    restricts the input to diagonal entries that are squares of rationals.
    """
    d = []
    for i in range(B.n):
        x = B.rows[i][i]
        if x <= 0:
            raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is not positive")
        r = _fraction_sqrt(x)
        if r is None:
            raise ValueError(
                f"diagonal entry ({i + 1},{i + 1}) = {x} is not a rational square"
            )
        d.append(Fraction(1) / r)
    rows = tuple(
        tuple(d[i] * B.rows[i][j] * d[j] for j in range(B.n)) for i in range(B.n)
    )
    return RationalMatrix(rows)


@dataclass(frozen=True)
class InverseCheck:
    passed: bool
    sepr: SeprSequence
    sepr_of_inverse: SeprSequence
    expected: SeprSequence


def verify_inverse_relation(B: RationalMatrix) -> InverseCheck:
    """Check the reversal law tying sepr(B) to sepr of the exact inverse.

    With sepr(B) = t_1..t_{n-1} A+, the inverse's sequence is the reversal
    t_{n-1}..t_1 A+; with final term A-, the same reversal with all
    superscripts negated.
    """
    si = sepr_of_matrix(B.inverse())  # guards the order and rejects singular B
    s = sepr_of_matrix(B)
    rev = SeprSequence(tuple(reversed(s.terms[:-1])) + (SeprSymbol.AP,)) if B.n > 1 \
        else SeprSequence((SeprSymbol.AP,))
    expected = rev if s.terms[-1] is SeprSymbol.AP else neg_superscripts(rev)
    return InverseCheck(si == expected, s, si, expected)
