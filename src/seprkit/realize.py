"""Exact rational realizations of sign patterns and their sepr-sequences.

Everything here is exact: matrices carry Fraction entries, minors are
computed over the integers after positive row scaling, and realization
sweeps are reproducible from a seed.  Alongside the plain grid sweep the
module provides targeted constructors (dominate a chosen term, hit an
exact zero of an ambiguous minor, make all ambiguous minors nonzero) that
the analysis layer uses to separate sepr-sequences.

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
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, isqrt, lcm
from operator import add, mul, or_
from typing import Iterator, Optional, Sequence

import numpy as np

from .pattern import (
    OrderGuardError,
    SignPattern,
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
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[str(x) for x in row] for row in self.rows]}

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

    def det(self) -> Fraction:
        return _det_fraction(self.rows, range(self.n), range(self.n))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
        n = self.n
        a = [list(r) for r in self.rows]
        inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[c], a[piv] = a[piv], a[c]
            inv[c], inv[piv] = inv[piv], inv[c]
            f = a[c][c]
            a[c] = [x / f for x in a[c]]
            inv[c] = [x / f for x in inv[c]]
            for r in range(n):
                if r != c and a[r][c] != 0:
                    g = a[r][c]
                    a[r] = [x - g * y for x, y in zip(a[r], a[c])]
                    inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
        return RationalMatrix(tuple(tuple(row) for row in inv))


# ---------------------------------------------------------------------------
# exact determinants

def _det_fraction(rows, ridx, cidx) -> Fraction:
    idx_r = list(ridx)
    idx_c = list(cidx)
    k = len(idx_r)
    if k == 0:
        return Fraction(1)
    m = [[Fraction(rows[i][j]) for j in idx_c] for i in idx_r]
    det = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        invp = Fraction(1) / m[c][c]
        for r in range(c + 1, k):
            if m[r][c] != 0:
                f = m[r][c] * invp
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _int_rows(B: RationalMatrix) -> list[list[int]]:
    """Rescale each row by a positive integer so entries become integers.

    Positive per-row scaling multiplies every principal minor by a positive
    factor, so all minor signs are preserved.
    """
    out = []
    for row in B.rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _int_det(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> int:
    k = len(idx)
    if k == 0:
        return 1
    if k == 1:
        return rows[idx[0]][idx[0]]
    if k == 2:
        a, b = idx
        return rows[a][a] * rows[b][b] - rows[a][b] * rows[b][a]
    if k == 3:
        a, b, c = idx
        r0, r1, r2 = rows[a], rows[b], rows[c]
        return (
            r0[a] * (r1[b] * r2[c] - r1[c] * r2[b])
            - r0[b] * (r1[a] * r2[c] - r1[c] * r2[a])
            + r0[c] * (r1[a] * r2[b] - r1[b] * r2[a])
        )
    return _bareiss_det([[rows[i][j] for j in idx] for i in idx])


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free integer determinant with row pivoting."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# sepr of a matrix

def sepr_sequence_of_minor_signs(sign_masks: Sequence[int]) -> SeprSequence:
    return SeprSequence(tuple(SeprSymbol.from_sign_mask(m) for m in sign_masks))


def sepr_of_matrix(B: RationalMatrix) -> SeprSequence:
    """Exact sepr-sequence of a rational matrix.

    For each k the signs of all order-k principal minors are computed over
    the integers; the k-th symbol records which of +, -, 0 occur.
    """
    n = B.n
    if n > SEPR_ORDER_GUARD:
        raise OrderGuardError(f"sepr computation limited to order {SEPR_ORDER_GUARD}")
    rows = _int_rows(B)
    masks = []
    for k in range(1, n + 1):
        seen = 0
        for idx in combinations(range(n), k):
            d = _int_det(rows, idx)
            seen |= 1 if d > 0 else (2 if d < 0 else 4)
            if seen == 7:
                break
        masks.append(seen)
    return sepr_sequence_of_minor_signs(masks)


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
                   canonical: int, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
    """Batches of magnitude-index rows; exhaustive when g**nnz <= budget.

    Oversized spaces get one canonical row (all `canonical`) followed by a
    counter-based (Philox) sample, so runs are reproducible from the seed.
    """
    space = g**nnz
    if space <= budget:
        for start in range(0, space, chunk):
            idx = np.arange(start, min(start + chunk, space), dtype=np.int64)
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
        b = min(chunk, remaining)
        yield rng.integers(0, g, size=(b, nnz), dtype=np.int64)
        remaining -= b


def _matrix_from_digits(P: SignPattern, grid: MagnitudeGrid,
                        positions: Sequence[tuple[int, int]], digits) -> RationalMatrix:
    rows = [[Fraction(0)] * P.n for _ in range(P.n)]
    for t, (i, j) in enumerate(positions):
        rows[i][j] = int(P.rows[i][j]) * grid.values[int(digits[t])]
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


def _sweep_batched(P: SignPattern, grid: MagnitudeGrid, budget: int,
                   seed: int) -> dict[SeprSequence, RationalMatrix]:
    positions = P.nonzero_positions()
    signs = np.array([int(P.rows[i][j]) for i, j in positions], dtype=np.int64)
    vals = np.array(grid.int_scaled(), dtype=np.int64)
    plan = _sweep_plan(P)
    # int64 rows live at once: the entry stack, the previous level, and the
    # current level with one term and its gathered sub-minors
    sizes = [size for size, _, _ in plan]
    live = 2 * len(positions) + max(p + 3 * c for p, c in zip([1] + sizes, sizes))
    width = max(1, _SWEEP_BYTES // (8 * live))
    found: dict[int, np.ndarray] = {}
    for digits in _digit_batches(len(vals), len(positions), budget, seed,
                                 grid.canonical_digit()):
        for lo in range(0, len(digits), width):
            part = digits[lo:lo + width]
            codes = _slice_codes(plan, signs[:, None] * vals[part.T])
            for fi in np.sort(np.unique(codes, return_index=True)[1]).tolist():
                if int(codes[fi]) not in found:
                    found[int(codes[fi])] = part[fi].copy()
    return {_sequence_from_code(c, P.n): _matrix_from_digits(P, grid, positions, d)
            for c, d in found.items()}


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
        return _sweep_batched(P, grid, budget, seed)
    out: dict[SeprSequence, RationalMatrix] = {}
    for B in grid_realizations(P, grid, budget, seed):
        out.setdefault(sepr_of_matrix(B), B)
    return out


# ---------------------------------------------------------------------------
# targeted realizations

def ones_realization(P: SignPattern) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(s) for s in row] for row in P.rows])


def _term_positions(P: SignPattern, mask: int, target: Sign) -> Optional[tuple[tuple[int, int], ...]]:
    """Positions of one permutation term of det P[mask] with term sign `target`."""
    idx = mask_indices(mask)
    k = len(idx)
    cand = []
    for i in idx:
        cand.append(tuple((pos, P.rows[i][j]) for pos, j in enumerate(idx)
                          if P.rows[i][j] is not Sign.ZERO))
    result: Optional[tuple[tuple[int, int], ...]] = None

    def rec(depth: int, used: int, sgn: int, picks: list[int]) -> bool:
        if depth == k:
            if sgn == int(target):
                nonlocal result
                result = tuple((idx[r], idx[p]) for r, p in enumerate(picks))
                return True
            return False
        for pos, s in cand[depth]:
            bit = 1 << pos
            if used & bit:
                continue
            inv = (used >> (pos + 1)).bit_count()
            t = sgn * int(s) * (-1 if inv & 1 else 1)
            picks.append(pos)
            if rec(depth + 1, used | bit, t, picks):
                return True
            picks.pop()
        return False

    rec(0, 0, 1, [])
    return result


def dominated_realization(P: SignPattern, mask: int, target: Sign) -> Optional[RationalMatrix]:
    """Realization whose minor on `mask` provably has sign `target`.

    Picks one permutation term of that sign and inflates its entries until
    the exactly-computed minor agrees; None when no such term exists.
    """
    if target is Sign.ZERO:
        raise ValueError("use zero_minor_realization for a zero target")
    term = _term_positions(P, mask, target)
    if term is None:
        return None
    idx = mask_indices(mask)
    base = [[Fraction(int(s)) for s in row] for row in P.rows]
    for w in (4, 16, 64, 256, 1024, 4096):
        rows = [row[:] for row in base]
        for i, j in term:
            rows[i][j] = rows[i][j] * w
        d = _det_fraction(rows, idx, idx)
        if Sign.of(d) is target:
            return RationalMatrix(tuple(tuple(r) for r in rows))
    return None


def zero_minor_realization(P: SignPattern, mask: int) -> Optional[RationalMatrix]:
    """Exact rational realization with det B[mask] = 0.

    For an ambiguous minor, walks one entry at a time from a negative
    witness to a positive one; the determinant is linear in each entry, so
    the crossing yields an exact rational zero with a valid entry sign.
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
    idx = mask_indices(mask)
    cur = [list(r) for r in Bm.rows]
    d_cur = _det_fraction(cur, idx, idx)
    if d_cur == 0:  # pragma: no cover - dominated sign is verified
        return RationalMatrix(tuple(tuple(r) for r in cur))
    for i in idx:
        for j in idx:
            new = Bp.rows[i][j]
            old = cur[i][j]
            if new == old:
                continue
            cur[i][j] = new
            d_new = _det_fraction(cur, idx, idx)
            if d_new == 0:
                return RationalMatrix(tuple(tuple(r) for r in cur))
            if (d_new > 0) != (d_cur > 0):
                c = (d_new - d_cur) / (new - old)
                root = old - d_cur / c
                cur[i][j] = root  # strictly between old and new: sign is valid
                return RationalMatrix(tuple(tuple(r) for r in cur))
            d_cur = d_new
    raise RealizationError("sign never flipped walking between dominated realizations")


def distinct_sepr_search(P: SignPattern, budget: int = 4000, seed: int = 0,
                         grid: Optional[MagnitudeGrid] = None,
                         ) -> Optional[tuple[RationalMatrix, SeprSequence, RationalMatrix, SeprSequence]]:
    """Look for two realizations of P with different sepr-sequences.

    Candidates: the all-unit realization, per-ambiguous-minor targeted
    realizations (dominated +, dominated -, exact zero), the realization
    with all ambiguous minors nonzero, then grid samples up to the budget.
    """
    n = P.n

    def candidates() -> Iterator[RationalMatrix]:
        yield ones_realization(P)
        shown = 0
        for k in range(2, n + 1):
            for mask in subsets_of_size(n, k):
                if signed_det_masked(P, mask).value is not AmbSign.AMBIGUOUS:
                    continue
                for target in (Sign.PLUS, Sign.MINUS):
                    B = dominated_realization(P, mask, target)
                    if B is not None:
                        yield B
                z = zero_minor_realization(P, mask)
                if z is not None:
                    yield z
                shown += 1
                if shown >= 24:
                    break
            if shown >= 24:
                break
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

def _minor_table(rows: Sequence[Sequence], mul, add) -> dict[tuple[int, int], object]:
    """Every equal-size minor E[rm, cm] of `rows`, keyed by (row mask, col mask).

    One Laplace recursion along row r = min(rm): E[rm, cm] is the `add`-sum
    over the columns c_0 < c_1 < ... of cm of
    mul((-1)**t * rows[r][c_t], E[rm - r, cm - c_t]), zero entries skipped;
    E[0, 0] = 1 and an empty sum is 0.  Keys run in k, rm, cm order.
    """
    n = len(rows)
    by_size = [[(m, mask_indices(m)) for m in subsets_of_size(n, k)] for k in range(n + 1)]
    table: dict[tuple[int, int], object] = {(0, 0): 1}
    for k in range(1, n + 1):
        for rm, ridx in by_size[k]:
            row, rest = rows[ridx[0]], rm ^ (1 << ridx[0])
            for cm, cidx in by_size[k]:
                acc = 0
                for t, c in enumerate(cidx):
                    if e := row[c]:
                        acc = add(acc, mul(-e if t & 1 else e, table[rest, cm ^ (1 << c)]))
                table[rm, cm] = acc
    return table


def _term_sign_table(P: SignPattern) -> dict[tuple[int, int], int]:
    """Term signs of every equal-size minor of P: bit 1 a positive term, bit 2 a negative.

    A negative entry swaps the two bits of the cofactor's signs.
    """
    return _minor_table([[int(s) for s in row] for row in P.rows],
                        lambda e, x: x if e > 0 else (x & 1) << 1 | x >> 1, or_)


def allnonzero_realization(P: SignPattern) -> RationalMatrix:
    """Realization in which every ambiguous equal-size minor is nonzero.

    Inductively over minor order: when an ambiguous minor vanishes, nudge
    one of its entries whose complementary minor is nonzero (so the entry
    sits on a nonzero term).  The step is half the exact bound
    min |d| / |cofactor| over all minors through that entry, which keeps
    every currently-nonzero minor's sign intact.  Every determinant is read
    from two tables over all equal-size (row mask, col mask) pairs: S, the
    term signs of P (S == 3 is ambiguous), and D, the exact minors of the
    current matrix.  A nudge B[u][v] += step is a rank-one update of D: a
    minor through (u, v) moves by step times its signed cofactor, which does
    not contain row u and so stays put; no other minor moves.
    """
    n = P.n
    if n > ALLNONZERO_ORDER_GUARD:
        raise OrderGuardError(f"limited to order {ALLNONZERO_ORDER_GUARD}")
    B = [[int(s) for s in row] for row in P.rows]
    D = _minor_table(B, mul, add)
    # masks through index i, by size, each with the parity of i's position
    through = [[[(m, (m & ((1 << i) - 1)).bit_count() & 1)
                 for m in subsets_of_size(n, k) if m >> i & 1] for k in range(n + 1)]
               for i in range(n)]
    for (rm, cm), signs in _term_sign_table(P).items():
        if signs != 3 or D[rm, cm] != 0:
            continue
        chosen = next(((u, v) for u in mask_indices(rm) for v in mask_indices(cm)
                       if B[u][v] and D[rm ^ (1 << u), cm ^ (1 << v)] != 0), None)
        if chosen is None:
            raise RealizationError("no perturbable entry; contradicts construction")
        u, v = chosen
        hits = []  # (minor through (u, v), its signed cofactor) where that is nonzero
        for rows_u, cols_v in zip(through[u], through[v]):
            for rm2, pu in rows_u:
                for cm2, pv in cols_v:
                    cof = D[rm2 ^ (1 << u), cm2 ^ (1 << v)]
                    if cof:
                        hits.append(((rm2, cm2), -cof if pu ^ pv else cof))
        # the bound min |d| / |cof| as p / q, found by cross-multiplying
        p, q = 0, 0
        for key, cof in hits:
            if d := D[key]:
                a, b = abs(d.numerator * cof.denominator), abs(d.denominator * cof.numerator)
                if not q or a * q < p * b:
                    p, q = a, b
        step = Fraction(p, 2 * q)
        B[u][v] += step
        for key, cof in hits:
            D[key] += step * cof
    return RationalMatrix.from_rows(B)


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
    if B.n > INVERSE_ORDER_GUARD:
        raise OrderGuardError(f"inverse relation check limited to order {INVERSE_ORDER_GUARD}")
    if B.det() == 0:
        raise ValueError("matrix is singular")
    s = sepr_of_matrix(B)
    si = sepr_of_matrix(B.inverse())
    rev = SeprSequence(tuple(reversed(s.terms[:-1])) + (SeprSymbol.AP,)) if B.n > 1 \
        else SeprSequence((SeprSymbol.AP,))
    expected = rev if s.terms[-1] is SeprSymbol.AP else neg_superscripts(rev)
    return InverseCheck(si == expected, s, si, expected)
