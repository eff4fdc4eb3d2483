"""Sign patterns and their exact signed determinants.

A sign pattern is a square grid over {+, -, 0}.  Its determinant is the
standard permutation expansion evaluated in sign arithmetic: the result
is +, -, 0, or ambiguous (both a positive and a negative term occur).
One Laplace rule, the flip tables _EVEN_FLIP and _ODD_FLIP, gives a
term's signs from its entry, its column's parity and its sub-minor's
signs.  The memoized recursion _term_signs applies it to any minor (each
search keeps its own memo) and guides the walk to the first term of a
given sign.  The table of all principal subpatterns comes, to order
_LAPLACE_PLAN_ORDER, from one flat pass over a static per-order Laplace
plan, and above it from the recursion; _order_signs splits one order of
it.  The plan's level walk is the one the batched sweep's int64 tables
are built from.  Index sets are bitmasks; a pattern's bigraph, its rows'
nonzero columns, ties nonzero determinant terms to perfect matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

from .signs import AmbSign, Sign

DET_ORDER_GUARD = 16
_DET_VALUE = (AmbSign.ZERO, AmbSign.PLUS, AmbSign.MINUS, AmbSign.AMBIGUOUS)  # by term signs
# Highest order whose principal table comes from the Laplace plan, which
# grows about 2.6x per order.  The plan pass also leads at orders 7 and 8;
# the recursion leads only on dense order-9 patterns (tools/plan_cutover.py).
_LAPLACE_PLAN_ORDER = 6
# The one term-sign rule: a Laplace term's signs, indexed by its entry (0, +,
# or - as index -1) and then by its sub-minor's term signs.  At an even column
# position a term has none, the same or the swapped signs; at an odd one the
# column's sign swaps them once more.  A 1 x 1 minor's signs are
# _EVEN_FLIP[e][1], and each table is its own inverse on the signs.
_EVEN_FLIP = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3))
_ODD_FLIP = ((0, 0, 0, 0), (0, 2, 1, 3), (0, 1, 2, 3))


class PatternParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{msg} (line {line}, column {col})")


class OrderGuardError(ValueError):
    """An enumeration guard was exceeded."""


# ---------------------------------------------------------------------------
# index sets as bitmasks

def mask_from(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_indices(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError("index set outside the pattern")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bitmasks, in lexicographic order of their indices."""
    for combo in combinations(range(n), k):
        yield mask_from(combo)


@lru_cache(maxsize=None)
def _masks_by_size(n: int) -> tuple[tuple[int, ...], ...]:
    """Per size k = 0..n, every `subsets_of_size(n, k)` mask in order; built once per n."""
    return tuple(tuple(subsets_of_size(n, k)) for k in range(n + 1))


def full_mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class SignPattern:
    """Immutable square sign grid; an entry that is not a Sign is read as the sign of its value."""

    rows: tuple[tuple[Sign, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("pattern must have at least one row")
        for row in self.rows:
            if len(row) != len(self.rows):
                raise ValueError("pattern must be square")
        if not all(type(s) is Sign for row in self.rows for s in row):
            object.__setattr__(self, "rows", tuple(tuple(map(Sign.of, row)) for row in self.rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Sign, ...], ...]) -> "SignPattern":
        """A pattern on rows that are square and all Signs by construction, unchecked."""
        P = object.__new__(cls)
        object.__setattr__(P, "rows", rows)
        return P

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SignPattern":
        return cls(tuple(tuple(Sign.of(x) for x in row) for row in rows))

    @classmethod
    def parse(cls, text: str) -> "SignPattern":
        """Parse n lines of characters from {+, -, 0}; spaces and blank lines
        are ignored, and an error gives its line and column in `text`."""
        rows = []
        width = None
        for li, ln in enumerate(text.splitlines(), start=1):
            row, cols = [], []
            for col, ch in enumerate(ln, start=1):
                if ch.isspace():
                    continue
                if ch not in "+-0":
                    raise PatternParseError(f"invalid character {ch!r}", li, col)
                row.append(Sign.from_char(ch))
                cols.append(col)
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:  # at the first extra sign, or just past the last one
                col = cols[width] if len(row) > width else cols[-1] + 1
                raise PatternParseError("ragged row", li, col)
            rows.append(tuple(row))
            last = li
        if not rows:
            raise PatternParseError("empty pattern", 1, 1)
        if len(rows) != width:
            raise PatternParseError(f"{len(rows)} rows but {width} columns", last, 1)
        return cls(tuple(rows))

    @classmethod
    def from_json(cls, obj: dict) -> "SignPattern":
        return cls.parse("\n".join(obj["rows"]))

    @classmethod
    def zero(cls, n: int) -> "SignPattern":
        return cls(tuple(tuple([Sign.ZERO] * n) for _ in range(n)))

    # -- basic views --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Sign:
        return self.rows[i][j]

    def to_text(self) -> str:
        return "\n".join("".join(s.char for s in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": ["".join(s.char for s in row) for row in self.rows]}

    def __str__(self) -> str:
        return self.to_text()

    def with_entry(self, i: int, j: int, s: Sign | int) -> "SignPattern":
        rows = [list(r) for r in self.rows]
        rows[i][j] = Sign.of(s)
        return SignPattern(tuple(tuple(r) for r in rows))

    def transpose(self) -> "SignPattern":
        return SignPattern(tuple(zip(*self.rows)))

    def nonzero_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i, row in enumerate(self.rows)
            for j, s in enumerate(row)
            if s is not Sign.ZERO
        )

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i] for i in range(self.n) for j in range(i))

    def is_nonnegative(self) -> bool:
        return all(s is not Sign.MINUS for row in self.rows for s in row)

    def has_zero_diagonal(self) -> bool:
        return all(self.rows[i][i] is Sign.ZERO for i in range(self.n))

    def direct_sum(self, other: "SignPattern") -> "SignPattern":
        n, m = self.n, other.n
        rows = [tuple(self.rows[i]) + (Sign.ZERO,) * m for i in range(n)]
        rows += [(Sign.ZERO,) * n + tuple(other.rows[i]) for i in range(m)]
        return SignPattern(tuple(rows))

    # -- subpatterns --------------------------------------------------------

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "SignPattern":
        if not row_idx or not col_idx:
            raise ValueError("empty index set; use det conventions instead")
        if len(row_idx) != len(col_idx):
            raise ValueError("a subpattern needs as many rows as columns")
        if not all(0 <= i < self.n for i in (*row_idx, *col_idx)):
            raise IndexError("subpattern index out of range")
        return SignPattern(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))

    def principal(self, mask: int) -> "SignPattern":
        idx = mask_indices(mask)
        return self.submatrix(idx, idx)

    def complement_principal(self, mask: int) -> "SignPattern":
        # mask_indices rejects a negative mask, which ~mask would turn into a small set
        return self.principal(full_mask(self.n) & ~mask_from(mask_indices(mask)))


def parse_pattern(text: str) -> SignPattern:
    return SignPattern.parse(text)


def subpattern(P: SignPattern, rows: Iterable[int] | int, cols: Iterable[int] | int) -> SignPattern:
    """P[rows, cols]; index sets may be bitmasks or index iterables."""
    ridx = mask_indices(rows) if isinstance(rows, int) else tuple(rows)
    cidx = mask_indices(cols) if isinstance(cols, int) else tuple(cols)
    return P.submatrix(ridx, cidx)


# ---------------------------------------------------------------------------
# signed determinant

@dataclass(frozen=True)
class DetSummary:
    """Outcome of the sign-arithmetic determinant expansion."""

    value: AmbSign
    has_positive_term: bool
    has_negative_term: bool

    @classmethod
    def from_signs(cls, signs: int) -> "DetSummary":
        """Summary of the term-sign bits of `_term_signs`."""
        return cls(_DET_VALUE[signs], bool(signs & 1), bool(signs & 2))

    @property
    def has_term(self) -> bool:
        return self.has_positive_term or self.has_negative_term


def _term_signs(rows: Sequence[Sequence[Sign]], memo: dict, R: int, C: int) -> int:
    """Term signs of det P[R, C], for row and column masks of equal size:
    bit 1 a positive term, bit 2 a negative one.

    Laplace expansion along row r = min R: the term through column c has
    the signs that the flip table of c's position in C gives for the entry
    and det P[R - r, C - c].  Each (R, C) is expanded once through `memo`;
    an expansion stops once both signs have occurred.
    """
    if not R & (R - 1):
        if not R:
            return 1  # the empty determinant is +1
        return _EVEN_FLIP[rows[R.bit_length() - 1][C.bit_length() - 1]][1]
    key = C << len(rows) | R  # (R, C) as one int, half the memory of a tuple
    out = memo.get(key)
    if out is not None:
        return out
    low = R & -R
    row = rows[low.bit_length() - 1]
    R ^= low
    out = 0
    flip, other = _EVEN_FLIP, _ODD_FLIP
    c = C
    while c:
        b = c & -c
        c ^= b
        e = row[b.bit_length() - 1]
        if e and (s := _term_signs(rows, memo, R, C ^ b)):
            out |= flip[e][s]
            if out == 3:
                break
        flip, other = other, flip
    memo[key] = out
    return out


def _first_term(rows: Sequence[Sequence[Sign]], idx: Sequence[int],
                memo: dict, bit: int) -> Optional[list[int]]:
    """First nonzero permutation term of sign `bit` (1 +, 2 -) of det P[idx, idx].

    The lexicographically first term of that sign, as the position in `idx`
    (ascending) picked in each row; None when there is none.  A greedy walk
    over the rows: each takes the first free column whose remaining minor,
    read from the `_term_signs` memo `memo`, still has a term of the sign
    that the column's flip table maps to the sign the running product needs.
    """
    R = C = mask_from(idx)
    if not _term_signs(rows, memo, R, C) & bit:
        return None
    picks, r, c, need = [], R, C, bit
    for i in idx:
        r ^= 1 << i
        flip, other = _EVEN_FLIP, _ODD_FLIP
        rest = c
        while rest:  # a term of sign `need` exists, so some column takes it
            b = rest & -rest
            rest ^= b
            e = rows[i][b.bit_length() - 1]
            if e and _term_signs(rows, memo, r, c ^ b) & (sub := flip[e][need]):
                break
            flip, other = other, flip
        else:
            raise RuntimeError("no column continues a term the memo says exists")
        picks.append((C & (b - 1)).bit_count())
        c ^= b
        need = sub
    return picks


def _check_masks(P: SignPattern, *masks: int) -> None:
    """Raise ValueError unless every mask is an index set of P's rows."""
    if any(m < 0 or m >> P.n for m in masks):
        raise ValueError("index set outside the pattern")


def signed_det_masked(P: SignPattern, rows_mask: int, cols_mask: int | None = None) -> DetSummary:
    """Signed determinant of P[rows_mask, cols_mask] without building the subpattern;
    0 at once, before the term-sign recursion, when one of its rows or columns is all zero."""
    cols_mask = rows_mask if cols_mask is None else cols_mask
    _check_masks(P, rows_mask, cols_mask)
    k = rows_mask.bit_count()
    if k != cols_mask.bit_count():
        raise ValueError("determinant needs equal-size row and column sets")
    if k > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    cols = mask_indices(cols_mask)
    sub = [[P.rows[i][j] for j in cols] for i in mask_indices(rows_mask)]
    if all(map(any, sub)) and all(map(any, zip(*sub))):
        return DetSummary.from_signs(_term_signs(P.rows, {}, rows_mask, cols_mask))
    return DetSummary.from_signs(0)  # a row or column with no nonzero entry: no term


def signed_det(P: SignPattern) -> DetSummary:
    """Signed determinant of a pattern (+, -, 0 or ambiguous); 0 at once on a zero row or column."""
    return signed_det_masked(P, full_mask(P.n))


def _laplace_levels(n: int) -> Iterator[tuple[list[list[int]], list[list[int]],
                                              list[tuple[int, int]]]]:
    """Laplace expansions that yield every principal minor of order n, level
    by level, j = 1..n; one level is held at a time.

    Level j holds the minors E[R, C] with |R| = |C| = j and C drawn from R
    plus the columns below r = min R, by R and then C in lexicographic
    order.  Expanding along row r,
    E[R, C] = sum over t of (-1)^t E[r, C[t]] E[R - r, C - C[t]], and each
    sub-minor lies on level j - 1 (level 0 is the empty minor, 1).  A level
    is (entry, sub, principal), by the minor's row m: entry[m][t] =
    r*n + C[t], plus n*n for an odd t; sub[m][t], the sub-minor's row on
    level j - 1; principal, (m, mask of R) for each minor with C == R, in
    row order.
    """
    prev = {0: 0}  # the previous level's rows, by C << n | R
    for j in range(1, n + 1):
        index: dict[int, int] = {}
        entry, sub, principal = [], [], []
        for R in combinations(range(n), j):
            r, rmask = R[0], mask_from(R)
            for C in combinations(sorted(set(R) | set(range(r))), j):
                cmask = mask_from(C)
                if cmask == rmask:
                    principal.append((len(index), rmask))
                index[cmask << n | rmask] = len(index)
                entry.append([r * n + c + n * n * (t & 1) for t, c in enumerate(C)])
                sub.append([prev[(cmask ^ 1 << c) << n | rmask ^ 1 << r] for c in C])
        yield entry, sub, principal
        prev = index


@lru_cache(maxsize=None)
def _laplace_plan(n: int) -> tuple[tuple[tuple, tuple[tuple[int, int], ...]], ...]:
    """`_laplace_levels(n)` as `principal_term_signs` reads it, for n up to
    _LAPLACE_PLAN_ORDER (kept for the life of the process).

    Per level, (terms, principal): terms[m], the (entry, sub) pairs of minor
    m; principal, the level's (row, mask) of each principal minor.
    """
    if not 1 <= n <= _LAPLACE_PLAN_ORDER:
        raise ValueError(f"the Laplace plan covers orders 1..{_LAPLACE_PLAN_ORDER}")
    return tuple((tuple(map(tuple, map(zip, entry, sub))), tuple(principal))
                 for entry, sub, principal in _laplace_levels(n))


def principal_term_signs(P: SignPattern) -> list[int]:
    """Term signs of every principal minor, indexed by mask: bit 1 a
    positive term, bit 2 a negative one (0: no term, 3: ambiguous).

    To order _LAPLACE_PLAN_ORDER (6), one pass over `_laplace_plan(n)`: a
    minor's term through entry e and sub-minor s has the signs that e's
    flip table gives for s's, and a minor stops at both signs.  Above it,
    `_term_signs` on one memo.
    """
    n = P.n
    if n > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    if n > _LAPLACE_PLAN_ORDER:
        memo: dict = {}
        return [_term_signs(P.rows, memo, m, m) for m in range(1 << n)]
    entries = [*chain.from_iterable(P.rows)]
    # by entry code r*n + c, plus n*n for an odd column
    flip = [*map(_EVEN_FLIP.__getitem__, entries), *map(_ODD_FLIP.__getitem__, entries)]
    table = [0] * (1 << n)
    table[0] = 1
    signs = [1]  # level 0: the empty minor
    for terms, principal in _laplace_plan(n):
        level = []
        for pairs in terms:
            out = 0
            for q, s in pairs:
                out |= flip[q][signs[s]]
                if out == 3:
                    break
            level.append(out)
        for m, mask in principal:
            table[mask] = level[m]
        signs = level
    return table


def _order_signs(signs, masks: Sequence[int]) -> tuple[int, list[int]]:
    """One order of a principal term-sign table `signs` (a list or dict by
    mask), over its `masks`: the sign bits (1 +, 2 -, 4 zero) of the
    sign-determined minors, and the ambiguous minors' masks in `masks` order."""
    bits, ambiguous = 0, []
    for m in masks:
        if (s := signs[m]) == 3:
            ambiguous.append(m)
        else:
            bits |= s or 4
    return bits, ambiguous


def is_ambiguous(P: SignPattern) -> bool:
    """True when the pattern's determinant is ambiguous."""
    return signed_det(P).value is AmbSign.AMBIGUOUS


# ---------------------------------------------------------------------------
# bigraph and matchings

def bigraph(P: SignPattern) -> tuple[tuple[int, ...], ...]:
    """Bipartite row/column graph of a pattern, as each row's nonzero
    columns: edge x_i ~ y_j iff p_ij != 0."""
    return tuple(tuple(j for j, s in enumerate(row) if s is not Sign.ZERO) for row in P.rows)


def max_bipartite_matching(adj: Sequence[Sequence[int]]) -> int:
    """Maximum matching size of a bigraph `adj` by augmenting paths."""
    match_right: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    return sum(try_augment(u, set()) for u in range(len(adj)))


def has_perfect_matching(adj: Sequence[Sequence[int]]) -> bool:
    """True iff a matching of the square pattern's bigraph `adj` saturates every row."""
    return max_bipartite_matching(adj) == len(adj)
