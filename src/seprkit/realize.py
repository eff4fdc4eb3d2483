"""Exact rational realizations of sign patterns and their sepr-sequences.

Everything here is exact, and realization sweeps are reproducible from a
seed.  Matrices carry Fraction entries; the walks and sweeps run on integer
rows.  Each exact minor, determinant or inverse comes from one kernel, _det:
integer rows (positive row scaling clears the denominators), closed forms to
order 4 and fraction-free Bareiss elimination above.  Whole tables of minors
are built otherwise: by Laplace recursion in the batched sweep and into the
all-nonzero walk's flat list (whose rows keep one denominator each), and, for the sepr
of one matrix, by one depth-first walk over index sets in which each set's
bordered minors follow from its parent's by one exact step of Sylvester's
identity (below a zero principal minor, from _det on the table of its
nearest nonzero ancestor; a set with at most three indices after it is
settled from its undivided numerators, with no table).  Term signs come
from the pattern module: its principal table, or its one recursion on a
memo each search keeps; the all-nonzero walk asks only about zero minors
that have a term.  Alongside the plain grid sweep the module provides
targeted constructors (dominate a chosen term, hit an exact zero of an
ambiguous minor, make all ambiguous minors nonzero).  The witness
search tries them as integer rows to separate sepr-sequences, reading each
sign-determined minor's sign from the principal term-sign table.

The grid sweep evaluates all principal minors of a batch of realizations
at once, in int64, by Laplace expansion over the pattern module's level
walk of minors, the one its principal term-sign table reads.  It runs
whenever n! * M**n <= 2**63 - 1, with M the largest grid magnitude scaled
to an integer; no intermediate value can then overflow (the default grid,
M = 36, admits n <= 8).  Per pattern, the expansion keeps only its live
terms: a term through a zero entry or a term-free sub-minor is 0 in every
realization, and a principal minor with no term reads as a constant zero.
Other grids are swept one exact rational realization at a time.  Batches
are cut into slices whose work arrays stay within _SWEEP_BYTES (1 MiB),
unless one realization alone needs more.  Every slice runs in one flat
int64 workspace per thread, reused across slices and sweeps and kept up to
2 * _SWEEP_BYTES; a larger one-realization slice (dense order 14, about
4 MiB) gets a buffer that is not kept.  A digit stream of one batch and at
most _STREAM_BYTES is drawn once and kept, read-only, for every pattern
that shares its grid size, nonzero count, budget and seed.  numpy is
imported by the functions that use it, so the exact integer work never
loads it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, cycle, islice, zip_longest
from math import factorial, isqrt, lcm
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .pattern import (
    DET_ORDER_GUARD,
    OrderGuardError,
    SignPattern,
    _check_masks,
    _first_term,
    _laplace_levels,
    _masks_by_size,
    _order_signs,
    _term_signs,
    mask_indices,
    principal_term_signs,
)
from .signs import SeprSequence, SeprSymbol, Sign, neg_superscripts

if TYPE_CHECKING:  # numpy loads when a sweep first runs
    import numpy as np

    # (levels, zero) of `_sweep_plan`, each level (c, s, ends, principal rows, sign masks)
    _Plan = tuple[list[tuple[np.ndarray, np.ndarray, list[int], np.ndarray, int]], int]

SEPR_ORDER_GUARD = 14
ALLNONZERO_ORDER_GUARD = 10
INVERSE_ORDER_GUARD = 6
_CHUNK = 1 << 14
_INT64_MAX = 2**63 - 1
_SWEEP_BYTES = 1 << 20
_STREAM_BYTES = 1 << 18  # per memoized digit stream; `_digit_stream` keeps 8, 2 MiB at most
_SIGN_BITS = (2, 4, 1)  # the sign mask (1 +, 2 -, 4 zero) at np.sign(x) + 1
_SWAP = (0, 2, 1, 3, 4, 6, 5, 7)  # a sign mask (1 +, 2 -, 4 zero) with + and - exchanged


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


_SMALL_FRACTIONS = {k: Fraction(k) for k in range(-256, 257)}  # shared: Fractions are immutable


def _rational(rows: Sequence[Sequence[int]], dens: Sequence[int]) -> RationalMatrix:
    """The matrix of rows[i] / dens[i]; small whole entries reuse one Fraction each.

    Whole rows of small entries, the usual witness, are looked up at C speed
    (map over the table); any other row is built entry by entry.
    """
    if dens.count(1) == len(dens):
        try:
            return RationalMatrix(tuple(tuple(map(_SMALL_FRACTIONS.__getitem__, row))
                                        for row in rows))
        except KeyError:
            pass
    return RationalMatrix(tuple(tuple(_SMALL_FRACTIONS[x] if q == 1 and x in _SMALL_FRACTIONS
                                      else Fraction(x, q) for x in row)
                                for row, q in zip(rows, dens)))


def _det(rows: Sequence[Sequence[int]], ridx: Sequence[int], cidx: Sequence[int]) -> int:
    """Exact determinant of the integer rows `ridx` cut to the columns `cidx`.

    Closed forms to order 4, with no division; above that, fraction-free
    Bareiss elimination (every division is exact), swapping in a lower row on
    a zero pivot.
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
    if k == 4:  # the top two rows over the six 2 x 2 minors of the bottom two
        r0, r1, p, q = rows[ridx[0]], rows[ridx[1]], rows[ridx[2]], rows[ridx[3]]
        a, b, c, d = cidx
        ab, ac, ad = p[a] * q[b] - p[b] * q[a], p[a] * q[c] - p[c] * q[a], p[a] * q[d] - p[d] * q[a]
        bc, bd, cd = p[b] * q[c] - p[c] * q[b], p[b] * q[d] - p[d] * q[b], p[c] * q[d] - p[d] * q[c]
        return (
            r0[a] * (r1[b] * cd - r1[c] * bd + r1[d] * bc)
            - r0[b] * (r1[a] * cd - r1[c] * ad + r1[d] * ac)
            + r0[c] * (r1[a] * bd - r1[b] * ad + r1[d] * ab)
            - r0[d] * (r1[a] * bc - r1[b] * ac + r1[c] * ab)
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
    """The sequence whose k-th symbol has sign mask sign_masks[k - 1] (1 +, 2 -, 4 zero)."""
    return _decode_masks(tuple(sign_masks))


@lru_cache(maxsize=1024)
def _decode_masks(sign_masks: tuple[int, ...]) -> SeprSequence:
    """sepr_sequence_of_minor_signs, one shared sequence per tuple of masks."""
    return SeprSequence(tuple(map(SeprSymbol.from_sign_mask, sign_masks)))


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
    (T[p][p] T[i][j] - T[i][p] T[p][j]) / det A[S].  A child with at most
    three indices after it builds no table: its subtree is settled from
    those numerators undivided, whose principal minors are
    det A[S]^|F| T[p][p]^(|F|-1) det A[S+p+F].

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
        elif not v:
            _zero_walk(seen, T, d, k, [p])
        elif p < m - 4:
            _principal_walk(seen, [[(v * ri[j] - ri[p] * rp[j]) // d for j in range(p + 1, m)]
                                   for ri in T[p + 1:]], v, k + 1)
        elif p == m - 3:
            # N[i][j] = v T[i][j] - T[i][p] T[p][j] (i, j > p) is d times the child's
            # table, so det N[F, F] = d^|F| v^(|F|-1) det A[S+p+F]: read over d, v, d
            ra, rb, pa, pb = T[-2], T[-1], rp[-2], rp[-1]
            aa, bb = v * ra[-2] - ra[p] * pa, v * rb[-1] - rb[p] * pb
            if seen[k + 2] != 7:
                s = (1 if aa > 0 else 2 if aa else 4) | (1 if bb > 0 else 2 if bb else 4)
                seen[k + 2] |= s if d > 0 else _SWAP[s]
            if seen[k + 3] != 7:
                x = aa * bb - (v * ra[-1] - ra[p] * pb) * (v * rb[-2] - rb[p] * pa)
                s = 1 if x > 0 else 2 if x else 4
                seen[k + 3] |= s if v > 0 else _SWAP[s]
        else:  # three indices after p, read the same way
            ra, rb, rc, pa, pb, pc = T[-3], T[-2], T[-1], rp[-3], rp[-2], rp[-1]
            ap, bp, cp = ra[p], rb[p], rc[p]
            aa, bb, cc = v * ra[-3] - ap * pa, v * rb[-2] - bp * pb, v * rc[-1] - cp * pc
            if seen[k + 2] != 7:
                s = ((1 if aa > 0 else 2 if aa else 4) | (1 if bb > 0 else 2 if bb else 4)
                     | (1 if cc > 0 else 2 if cc else 4))
                seen[k + 2] |= s if d > 0 else _SWAP[s]
            if seen[k + 3] != 7 or seen[k + 4] != 7:
                ab, ac, bc = v * ra[-2] - ap * pb, v * ra[-1] - ap * pc, v * rb[-1] - bp * pc
                ba, ca, cb = v * rb[-3] - bp * pa, v * rc[-3] - cp * pa, v * rc[-2] - cp * pb
                x = bb * cc - bc * cb
                if seen[k + 3] != 7:
                    y, z = aa * cc - ac * ca, aa * bb - ab * ba
                    s = ((1 if x > 0 else 2 if x else 4) | (1 if y > 0 else 2 if y else 4)
                         | (1 if z > 0 else 2 if z else 4))
                    seen[k + 3] |= s if v > 0 else _SWAP[s]
                if seen[k + 4] != 7:
                    x = aa * x - ab * (ba * cc - bc * ca) + ac * (ba * cb - bb * ca)
                    s = 1 if x > 0 else 2 if x else 4
                    seen[k + 4] |= s if d > 0 else _SWAP[s]


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
        """The grid 1/6, 1/3, 1/2, 1, 2, 3, 6: one shared instance, so its
        integer and signed tables are built once."""
        return _DEFAULT_GRID

    @classmethod
    def parse(cls, text: str) -> "MagnitudeGrid":
        return cls.of(*[t for t in text.split(",") if t.strip()])

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], int]:
        """(int_scaled(), the lcm of the denominators that scales them)."""
        mult = lcm(*(v.denominator for v in self.values))
        return tuple(int(v * mult) for v in self.values), mult

    @cached_property
    def _signed(self) -> dict[Sign, tuple[Fraction, ...]]:
        """The magnitudes by the sign of the entry they fill."""
        return {Sign.PLUS: self.values, Sign.MINUS: tuple(-x for x in self.values)}

    def int_scaled(self) -> tuple[int, ...]:
        return self._scaled[0]

    @cached_property
    def _canonical(self) -> int:
        """canonical_digit(): the index of magnitude 1, else 0."""
        one = Fraction(1)
        return self.values.index(one) if one in self.values else 0

    def canonical_digit(self) -> int:
        return self._canonical


_DEFAULT_GRID = MagnitudeGrid.of("1/6", "1/3", "1/2", 1, 2, 3, 6)


def _digit_batches(g: int, nnz: int, budget: int, seed: int,
                   canonical: int) -> Iterator[np.ndarray]:
    """Batches of magnitude-index rows; exhaustive when g**nnz <= budget.

    Oversized spaces get one canonical row (all `canonical`) followed by a
    counter-based (Philox) sample, so runs are reproducible from the seed.
    The canonical row leads the first batch (alone when budget == 1), so a
    sampled sweep pays for no extra one-row batch.
    """
    import numpy as np
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
    head = np.full((1, nnz), canonical, dtype=np.int64)
    if budget == 1:
        yield head
        return
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(1, budget, _CHUNK):
        draws = rng.integers(0, g, size=(min(_CHUNK, budget - start), nnz), dtype=np.int64)
        yield np.concatenate([head, draws]) if start == 1 else draws


@lru_cache(maxsize=8)
def _digit_stream(g: int, nnz: int, budget: int, seed: int, canonical: int) -> np.ndarray:
    """The one batch of a short `_digit_batches` stream, read-only, kept for reuse:
    the stream depends on these numbers alone, so patterns that share them share it."""
    (digits,) = _digit_batches(g, nnz, budget, seed, canonical)
    digits.flags.writeable = False
    return digits


def _matrix_from_digits(P: SignPattern, grid: MagnitudeGrid,
                        positions: Sequence[tuple[int, int]], digits) -> RationalMatrix:
    signed = grid._signed
    rows = [[_SMALL_FRACTIONS[0]] * P.n for _ in range(P.n)]
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
    batches = _digit_batches(len(grid.values), len(positions), budget, seed,
                             grid.canonical_digit())
    return (_matrix_from_digits(P, grid, positions, row) for batch in batches for row in batch)


# ---------------------------------------------------------------------------
# batched exact sweep

def _sequence_from_code(code: int, n: int) -> SeprSequence:
    """Decode n 3-bit sign masks (1 +, 2 -, 4 zero), the first position most significant."""
    return sepr_sequence_of_minor_signs([code >> 3 * k & 7 for k in reversed(range(n))])


@lru_cache(maxsize=None)
def _minor_levels(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Laplace-expansion tables that yield every principal minor of order n:
    `pattern._laplace_levels(n)`, the level walk the principal term-sign
    table's plan is built from, as int32 arrays.

    Per level: entry[t, m] = r*n + C[t], plus n*n for a negated (odd t) term,
    for the t-th term of minor E[R, C] expanded along row r = min R;
    sub[t, m], the sub-minor's row one level down; and the rows of the
    level's principal minors (intp).
    """
    import numpy as np
    levels = []
    for entry, sub, principal in _laplace_levels(n):
        levels.append((np.array(entry, dtype=np.int32).T, np.array(sub, dtype=np.int32).T,
                       np.array([m for m, _ in principal], dtype=np.intp)))
        del entry, sub, principal  # so the walk frees this level's lists before it builds the next
    return tuple(levels)


def _sweep_plan(P: SignPattern) -> _Plan:
    """What of `_minor_levels` can be nonzero: (levels, zero).

    A term through a zero entry of P, or through a sub-minor with no term, is
    0 in every realization, and so is a minor with no live term.  A level's
    live minors are its rows, sorted by live-term count, most first, and its
    live terms are listed slot by slot: slot t holds the t-th live term of
    every minor that has one, a prefix of the rows.  Each level is (stack rows
    of the terms' entries, their sub-minor rows, where each slot ends, rows of
    the live principal minors, the code bits of its order's sign masks at
    np.sign(minor) + 1); the stack holds P's nonzero entries in `nonzero_positions` order,
    then their negations.  The levels end at the last one with a live minor.
    `zero` holds the zero bits of the orders where some principal minor has
    no term.  The sweep gathers these rows unchecked, so every one is checked
    here against the rows it indexes, once per plan.
    """
    import numpy as np
    n = P.n
    row = [-1] * (2 * n * n)  # -1: a zero entry
    positions = P.nonzero_positions()
    for e, (i, j) in enumerate(positions):
        row[i * n + j], row[i * n + j + n * n] = e, e + len(positions)
    rank, below = [0], 1  # row of each minor one level down (-1: no term), and their count
    levels, zero = [], 0
    for j, (entry, sub, principal) in enumerate(_minor_levels(n), start=1):
        count = entry.shape[1]
        terms = [[] for _ in range(count)]  # per minor, its live terms' stack and sub-minor rows
        # the tables run term by term, each over every minor
        for into, c, s in zip(cycle(terms), map(row.__getitem__, memoryview(entry.ravel())),
                              map(rank.__getitem__, memoryview(sub.ravel()))):
            if c >= 0 and s >= 0:
                into += c, s
        by_count = [[] for _ in range(j + 1)]
        for m, t in enumerate(terms):
            by_count[len(t) // 2].append(m)
        order = [m for ms in by_count[:0:-1] for m in ms]
        if not order:
            zero |= sum(4 << 3 * (n - i) for i in range(j, n + 1))
            break
        rank = [-1] * count
        for r, m in enumerate(order):
            rank[m] = r
        rows = [r for r in map(rank.__getitem__, principal.tolist()) if r >= 0]
        if len(rows) < len(principal):
            zero |= 4 << 3 * (n - j)
        c, s, ends = [], [], []
        slots = zip_longest(*[terms[m] for m in order])  # per slot, its stack rows, then sub-minor rows
        for cs, ss in zip(slots, slots):
            k = cs.index(None) if None in cs else len(cs)
            c += cs[:k]
            s += ss[:k]
            ends.append(len(c))
        for got, bound in ((c, 2 * len(positions)), (s, below), (rows, len(order))):
            if got and max(got) >= bound:
                raise IndexError(f"sweep plan row outside 0..{bound - 1} on level {j}")
        below = len(order)
        levels.append((np.array(c, dtype=np.int64), np.array(s, dtype=np.int64), ends,
                       np.array(rows, dtype=np.int64),
                       np.array([b << 3 * (n - j) for b in _SIGN_BITS], dtype=np.int64)))
    return levels, zero


_workspace = threading.local()  # `buf`: the flat int64 buffer this thread's sweeps reuse


def _work_buffer(size: int) -> np.ndarray:
    """A flat int64 buffer of at least `size` entries: this thread's, kept and grown
    across slices and sweeps up to 2 * _SWEEP_BYTES, or past that a temporary one."""
    import numpy as np
    if 8 * size > 2 * _SWEEP_BYTES:
        return np.empty(size, dtype=np.int64)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size, dtype=np.int64)
    return buf


def _work_rows(plan: _Plan, nnz: int) -> tuple[int, int, int]:
    """(rows of the largest level, principal rows of all levels, rows of the whole
    workspace) of `_slice_codes`, each row one int64 per realization."""
    most = max([ends[0] for _, _, ends, _, _ in plan[0]], default=1)
    masks = sum(len(rows) for _, _, _, rows, _ in plan[0])
    return most, masks, 2 * nnz + max(nnz, 4 * most + masks)


def _slice_codes(plan: _Plan, digits: np.ndarray, slot: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """Sepr codes, 3-bit sign masks by order, of the realizations digits[r] (see
    `_first_witnesses`).

    Everything but the codes lives in one `_work_buffer`: the entry stack, two
    level buffers taking turns as the previous and the current level, one slot's
    terms and gathered sub-minors (where a level's principal rows then take
    their signs), and every level's sign masks, ORed together at the end.  Every
    gather is unchecked (mode "clip"); `_sweep_plan` checks its rows.
    """
    import numpy as np
    levels, zero = plan
    width, nnz = len(digits), len(slot)
    most, total, size = _work_rows(plan, nnz)
    work = _work_buffer(size * width)
    stack = work[:2 * nnz * width].reshape(2 * nnz, width)
    rest = work[2 * nnz * width:]
    # the stack: values[digit] times the entry's sign, then the negations
    picked = rest[:width * nnz].reshape(width, nnz)
    digits.take(slot, 1, picked, "clip")
    entries = stack[nnz:].reshape(width, nnz)
    values.take(picked, None, entries, "clip")
    np.multiply(entries, signs, entries)
    np.copyto(stack[:nnz], entries.T)
    np.negative(stack[:nnz], stack[nnz:])
    bufs = [rest[k * most * width:(k + 1) * most * width].reshape(most, width)
            for k in range(4)]
    term, subs = bufs[2], bufs[3]
    masks = rest[4 * most * width:(4 * most + total) * width].reshape(total, width)
    prev = bufs[0][:1]
    prev.fill(1)
    done = 0
    for k, (c, s, ends, rows, bits) in enumerate(levels):
        cur = bufs[1 - k % 2][:ends[0]]
        stack.take(c[:ends[0]], 0, cur, "clip")
        prev.take(s[:ends[0]], 0, term[:ends[0]], "clip")
        np.multiply(cur, term[:ends[0]], cur)
        for a, b in zip(ends, ends[1:]):
            t, u = term[:b - a], subs[:b - a]
            stack.take(c[a:b], 0, t, "clip")
            prev.take(s[a:b], 0, u, "clip")
            np.multiply(t, u, t)
            np.add(cur[:b - a], t, cur[:b - a])
        prev, sign = cur, term[:len(rows)]
        cur.take(rows, 0, sign, "clip")
        np.sign(sign, sign)
        np.add(sign, 1, sign)
        bits.take(sign, None, masks[done:done + len(rows)], "clip")
        done += len(rows)
    code = np.bitwise_or.reduce(masks, axis=0)
    if zero:
        np.bitwise_or(code, zero, code)
    return code


def _first_witnesses(P: SignPattern, slot: np.ndarray, values: np.ndarray, budget: int,
                     seed: int, canonical: int) -> dict[int, np.ndarray]:
    """First digit row of each sepr code over the digit stream of `_digit_batches`, in
    stream order.  A realization is a digit row: P's t-th nonzero entry is its sign
    times values[digit slot[t]], so entries that share a slot stay equal.  Slices of
    the stream keep the workspace of `_slice_codes` within _SWEEP_BYTES, unless one
    realization alone needs more."""
    import numpy as np
    plan = _sweep_plan(P)
    positions = P.nonzero_positions()
    signs = np.array([int(P.rows[i][j]) for i, j in positions], dtype=np.int64)
    width = max(1, _SWEEP_BYTES // (8 * _work_rows(plan, len(positions))[2]))
    found: dict[int, np.ndarray] = {}
    g, nd = len(values), int(slot.max(initial=-1)) + 1
    drawn = min(g**nd, budget)  # rows in the stream; at most _CHUNK come as one batch
    if drawn <= _CHUNK and 8 * nd * drawn <= _STREAM_BYTES:
        batches = (_digit_stream(g, nd, budget, seed, canonical),)
    else:
        batches = _digit_batches(g, nd, budget, seed, canonical)
    for digits in batches:
        for lo in range(0, len(digits), width):
            part = digits[lo:lo + width]
            codes = _slice_codes(plan, part, slot, signs, values)
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
        import numpy as np
        positions = P.nonzero_positions()
        found = _first_witnesses(P, np.arange(len(positions)),
                                 np.array(grid.int_scaled(), dtype=np.int64), budget, seed,
                                 grid.canonical_digit())
        return {_sequence_from_code(c, P.n): _matrix_from_digits(P, grid, positions, d)
                for c, d in found.items()}
    out: dict[SeprSequence, RationalMatrix] = {}
    for B in grid_realizations(P, grid, budget, seed):
        out.setdefault(sepr_of_matrix(B), B)
    return out


def _sym_sweep(n: int, values: Sequence[int]) -> dict[SeprSequence, RationalMatrix]:
    """Sepr-sequences of all symmetric n x n matrices with entries from `values`,
    one witness each, the first in stream order.

    The exhaustive digit stream over the diagonal cells and then the pairs
    i < j runs through the batched sweep of the all-+ n x n pattern; entry
    (i, j) and entry (j, i) read the digit of {i, j}.
    """
    import numpy as np
    cells = [(i, i) for i in range(n)] + list(combinations(range(n), 2))
    slot = [cells.index((min(i, j), max(i, j))) for i in range(n) for j in range(n)]
    found = _first_witnesses(SignPattern.from_rows([[1] * n] * n), np.array(slot),
                             np.array(values, dtype=np.int64), len(values) ** len(cells), 0, 0)
    return {_sequence_from_code(c, n): RationalMatrix.from_rows(
                [[values[dg[t]] for t in slot[n * i:n * i + n]] for i in range(n)])
            for c, dg in found.items()}


# ---------------------------------------------------------------------------
# targeted realizations

def ones_realization(P: SignPattern) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(s) for s in row] for row in P.rows])


def _targeted(P: SignPattern, idx: Sequence[int],
              memo: dict) -> Iterator[tuple[Sign, list[list[int]], list[int]]]:
    """(target, integer rows, positive row denominators) of what dominated_realization
    (+, then -) and zero_minor_realization make for the minor on `idx`, the zero
    walk starting from the two dominated rows; `memo` is a `_term_signs` memo.
    Each sign's first term is found only when its candidate is asked for."""
    unit, whole = [[int(s) for s in row] for row in P.rows], [1] * P.n
    dominated = {}
    for bit, target in ((1, Sign.PLUS), (2, Sign.MINUS)):
        if (picks := _first_term(P.rows, idx, memo, bit)) is None:
            continue
        w = 4
        while True:
            rows = [row[:] for row in unit]
            for i, p in zip(idx, picks):
                rows[i][idx[p]] *= w
            if Sign.of(_det(rows, idx, idx)) is target:
                break
            if w * w >= factorial(len(idx)):
                raise RealizationError("a dominating term did not fix the minor's sign")
            w *= 4
        dominated[target] = rows
        yield target, rows, whole
    if not dominated:
        yield Sign.ZERO, unit, whole
    if len(dominated) < 2:
        return
    cur, new_rows = [row[:] for row in dominated[Sign.MINUS]], dominated[Sign.PLUS]
    d_cur = _det(cur, idx, idx)  # negative until the walk reaches 0
    for i in idx:
        for j in idx:
            new, old = new_rows[i][j], cur[i][j]
            if new == old:
                continue
            cur[i][j] = new
            d_new = _det(cur, idx, idx)
            if d_new >= 0:
                # the zero lies in (old, new], so the entry sign is valid
                cur[i][j] = old - Fraction(d_cur * (new - old), d_new - d_cur)
                dens = whole[:]
                dens[i], cur[i] = _int_row(cur[i])
                yield Sign.ZERO, cur, dens
                return
            d_cur = d_new
    raise RealizationError("sign never flipped walking between dominated realizations")


def _minor_indices(P: SignPattern, mask: int) -> tuple[int, ...]:
    """The indices of `mask`, an index set of P whose minor `_targeted` may search."""
    _check_masks(P, mask)
    if mask.bit_count() > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    return mask_indices(mask)


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
    return next((RationalMatrix.from_rows(rows) for sign, rows, _ in
                 _targeted(P, _minor_indices(P, mask), {}) if sign is target), None)


def zero_minor_realization(P: SignPattern, mask: int) -> Optional[RationalMatrix]:
    """Exact rational realization with det B[mask] = 0; None when all its terms share a sign.

    For an ambiguous minor, walks one entry at a time from a negative
    witness to a positive one, both integral; the determinant is linear in
    each entry, so the crossing yields an exact rational zero with a valid
    entry sign.
    """
    return next((_rational(rows, dens) for sign, rows, dens in
                 _targeted(P, _minor_indices(P, mask), {}) if sign is Sign.ZERO), None)


def distinct_sepr_search(P: SignPattern, budget: int = 4000, seed: int = 0,
                         grid: Optional[MagnitudeGrid] = None,
                         ) -> Optional[tuple[RationalMatrix, SeprSequence, RationalMatrix, SeprSequence]]:
    """Look for two realizations of P with different sepr-sequences.

    Candidates: the all-unit realization, targeted realizations (dominated +,
    dominated -, exact zero) for the first 24 ambiguous principal minors, by
    order then mask as `term_verdicts` lists them, the realization with all
    ambiguous minors nonzero, then grid samples up to the budget.  Each
    candidate (integer rows) reads every sign-determined principal minor (one
    whose terms share a sign) from the principal term-sign table, built here,
    and evaluates only the ambiguous ones (terms of both signs).
    """
    if P.n > SEPR_ORDER_GUARD:
        raise OrderGuardError(f"sepr computation limited to order {SEPR_ORDER_GUARD}")
    return _witness_search(P, budget, seed, grid, principal_term_signs(P))


def _witness_search(P: SignPattern, budget: int, seed: int, grid: Optional[MagnitudeGrid],
                    signs: list[int],
                    ) -> Optional[tuple[RationalMatrix, SeprSequence, RationalMatrix, SeprSequence]]:
    """distinct_sepr_search on P's principal term-sign table `signs`; only the
    two witnesses returned become RationalMatrix."""
    n = P.n
    if n > SEPR_ORDER_GUARD:
        raise OrderGuardError(f"sepr computation limited to order {SEPR_ORDER_GUARD}")
    split = [_order_signs(signs, masks) for masks in _masks_by_size(n)[1:]]
    fixed = [bits for bits, _ in split]  # by order - 1: sign bits (1 +, 2 -, 4 zero) of the rest
    ambiguous = [(k, mask_indices(m)) for k, (_, amb) in enumerate(split) for m in amb]
    memo: dict = {}  # one `_term_signs` memo for every targeted candidate

    def candidates() -> Iterator[tuple[list[list[int]], list[int]]]:
        yield [[int(s) for s in row] for row in P.rows], [1] * n
        for _, idx in ambiguous[:24]:
            for _, rows, dens in _targeted(P, idx, memo):
                yield rows, dens
        if n <= ALLNONZERO_ORDER_GUARD:
            yield _allnonzero_rows(P)
        g = grid or MagnitudeGrid.default()
        vals, mult = g._scaled
        positions = P.nonzero_positions()
        for batch in _digit_batches(len(vals), len(positions), budget, seed, g.canonical_digit()):
            for digits in batch.tolist():
                rows = [[0] * n for _ in range(n)]
                for (i, j), d in zip(positions, digits):
                    rows[i][j] = vals[d] if P.rows[i][j] is Sign.PLUS else -vals[d]
                yield rows, [mult] * n

    first = None
    for rows, dens in islice(candidates(), max(budget, 0)):
        bits = fixed[:]
        for k, idx in ambiguous:
            if bits[k] != 7:  # an order is done once it shows +, - and 0
                d = _det(rows, idx, idx)
                bits[k] |= 1 if d > 0 else (2 if d < 0 else 4)
        if first is None:
            first = bits, rows, dens
        elif bits != first[0]:
            return (_rational(first[1], first[2]), sepr_sequence_of_minor_signs(first[0]),
                    _rational(rows, dens), sepr_sequence_of_minor_signs(bits))
    return None


# ---------------------------------------------------------------------------
# all ambiguous minors nonzero

@lru_cache(maxsize=None)
def _minor_ids(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """Flat ids of the equal-size (row mask, col mask) pairs of order n; built once per order.

    Minor (rm, cm) of size k has id off[k] + rank[rm] * C(n, k) + rank[cm], with rank[m] the
    position of m in `_masks_by_size(n)[k]`, so ids run 0 .. C(2n, n) - 1 in k, rm, cm order.
    through[i][k] holds (rank[m], rank[m ^ 1 << i], parity of i's position in m) for each
    size-k mask m through i.
    """
    rank, off = [0] * (1 << n), [0]
    for masks in _masks_by_size(n):
        for r, m in enumerate(masks):
            rank[m] = r
        off.append(off[-1] + len(masks) ** 2)
    through = tuple(tuple(tuple((rank[m], rank[m ^ 1 << i], (m & ((1 << i) - 1)).bit_count() & 1)
                                for m in masks if m >> i & 1) for masks in _masks_by_size(n))
                    for i in range(n))
    return tuple(rank), tuple(off), through


def allnonzero_realization(P: SignPattern) -> RationalMatrix:
    """Realization in which every ambiguous equal-size minor is nonzero.

    Inductively over minor order: when an ambiguous minor vanishes, nudge
    one of its entries whose complementary minor is nonzero (so the entry
    sits on a nonzero term).  The step is half the exact bound
    min |d| / |cofactor| over all minors through that entry, which keeps
    every currently-nonzero minor's sign intact.  Every determinant is read
    from one flat list D, filled by Laplace expansion, of the integer minors
    of N over all equal-size (row mask, col mask) pairs, by their `_minor_ids`
    id; row i of B is N[i] / L[i], one positive denominator per row.  When a
    minor is reached, every smaller minor with a term is nonzero (one with
    terms of one sign always, an ambiguous one since its turn), so a zero
    minor has a term iff row u = min rm has an entry (u, v) with a nonzero
    cofactor; the first such entry is nudged.  A zero minor with a term is
    ambiguous, which `_term_signs` confirms (one memo per call).  A nudge
    B[u][v] += step rescales row u, in N, L and D, by what L[u] lacks of the
    step's denominator; then each minor through (u, v) moves by step * L[u]
    times its signed cofactor, which lacks row u; none else moves.
    """
    if P.n > ALLNONZERO_ORDER_GUARD:
        raise OrderGuardError(f"limited to order {ALLNONZERO_ORDER_GUARD}")
    return _rational(*_allnonzero_rows(P))


def _allnonzero_rows(P: SignPattern) -> tuple[list[list[int]], list[int]]:
    """The walk of allnonzero_realization: (N, L)."""
    n, memo = P.n, {}
    N, L = [[int(s) for s in row] for row in P.rows], [1] * n
    masks = _masks_by_size(n)
    size = [len(ms) for ms in masks]  # C(n, k)
    rank, off, through = _minor_ids(n)
    D = [1] + [0] * (off[-1] - 1)
    for k in range(1, n + 1):  # D[rm, cm] = sum over c of +-N[u][c] * D[rm - u, cm - c]
        for a, rm in enumerate(masks[k]):
            u = (rm & -rm).bit_length() - 1
            rest, acc = off[k - 1] + rank[rm ^ (1 << u)] * size[k - 1], [0] * size[k]
            for c, e in enumerate(N[u]):
                if e:
                    for r, rc, odd in through[c][k]:
                        acc[r] += (-e if odd else e) * D[rest + rc]
            D[off[k] + a * size[k]:off[k] + (a + 1) * size[k]] = acc
    nonzero = [sum(1 << j for j, x in enumerate(row) if x) for row in N]  # columns, by row
    for k in range(1, n + 1):
        for a, rm in enumerate(masks[k]):
            u = (rm & -rm).bit_length() - 1
            rest, at = off[k - 1] + rank[rm ^ (1 << u)] * size[k - 1], off[k] + a * size[k]
            for i, cm in enumerate(masks[k]):
                c = 0 if D[at + i] else cm & nonzero[u]  # v: the first of c with a nonzero cofactor
                while c and D[rest + rank[cm ^ (c & -c)]] == 0:
                    c &= c - 1
                if not c:
                    continue
                v = (c & -c).bit_length() - 1
                if _term_signs(P.rows, memo, rm, cm) != 3:
                    raise RealizationError("a zero minor with a term is not ambiguous")
                hits = []  # (id of a minor through (u, v), its signed cofactor), cofactor nonzero
                for kk in range(1, n + 1):
                    for r, rr, pu in through[u][kk]:
                        to, cof_at = off[kk] + r * size[kk], off[kk - 1] + rr * size[kk - 1]
                        for c2, cr, pv in through[v][kk]:
                            if cof := D[cof_at + cr]:
                                hits.append((to + c2, -cof if pu ^ pv else cof))
                # min |D| / |cof| as p / q, by cross-multiplying; over L[u] it bounds B
                p, q = 0, 0
                for to, cof in hits:
                    if d := D[to]:
                        x, y = abs(d), abs(cof)
                        if not q or x * q < p * y:
                            p, q = x, y
                step = Fraction(p, 2 * q * L[u])
                if (f := lcm(L[u], step.denominator) // L[u]) > 1:
                    N[u], L[u] = [x * f for x in N[u]], L[u] * f
                    for kk in range(1, n + 1):
                        for r, _, _ in through[u][kk]:
                            to = off[kk] + r * size[kk]
                            D[to:to + size[kk]] = [x * f for x in D[to:to + size[kk]]]
                delta = step.numerator * (L[u] // step.denominator)
                N[u][v] += delta
                for to, cof in hits:
                    D[to] += delta * cof
    return N, L


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
