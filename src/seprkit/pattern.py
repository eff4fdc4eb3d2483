"""Sign patterns and their exact signed determinants.

A sign pattern is a square grid over {+, -, 0}.  Its determinant is the
standard permutation expansion evaluated in sign arithmetic: the result
is +, -, 0, or ambiguous (both a positive and a negative term occur).
One memoized Laplace recursion, _term_signs, gives the term signs of any
minor and guides the walk to the first term of each sign.  The table of
all principal subpatterns comes, to order _LAPLACE_PLAN_ORDER, from one
flat pass over a static per-order Laplace plan, which also fills the
recursion's memo; above that order, from the recursion on one memo.  The
plan's level walk is the one the batched sweep's int64 tables are built
from.  Index sets are bitmasks; the bigraph view ties nonzero determinant
terms to perfect matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

from .signs import AmbSign, Sign

DET_ORDER_GUARD = 16
_DET_VALUE = (AmbSign.ZERO, AmbSign.PLUS, AmbSign.MINUS, AmbSign.AMBIGUOUS)  # by term signs
_TERM_BITS = (0, 1, 2)  # term signs of a 1 x 1 minor, by entry: 0, + or - (index -1)
# Highest order whose principal table comes from the Laplace plan.  Above it
# the recursion's early stop wins on dense patterns, and the plan grows about
# 2.6x per order.
_LAPLACE_PLAN_ORDER = 6
# a Laplace term's signs, indexed by its sub-minor's term signs, by its entry
# (index 0, + or - as -1): at an even column position (none, kept, swapped),
# then at an odd one, where the column's sign flips them once more
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
        """Parse n lines of characters from {+, -, 0}; spaces are ignored."""
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise PatternParseError("empty pattern", 1, 1)
        rows = []
        width = None
        for li, ln in enumerate(lines, start=1):
            row = []
            col = 0
            for ch in ln:
                col += 1
                if ch.isspace():
                    continue
                if ch not in "+-0":
                    raise PatternParseError(f"invalid character {ch!r}", li, col)
                row.append(Sign.from_char(ch))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise PatternParseError("ragged row", li, len(row) + 1)
            rows.append(tuple(row))
        if len(rows) != width:
            raise PatternParseError(f"{len(rows)} rows but {width} columns", len(rows), 1)
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

    Laplace expansion along row r = min R: the term through column c is the
    entry times det P[R - r, C - c], negated when the entry is negative or c
    sits at an odd position in C, and negating swaps the two bits.  Each
    (R, C) is expanded once through `memo`; an expansion stops once both
    signs have occurred.
    """
    if not R & (R - 1):
        if not R:
            return 1  # the empty determinant is +1
        return _TERM_BITS[rows[R.bit_length() - 1][C.bit_length() - 1]]
    key = C << len(rows) | R  # (R, C) as one int, half the memory of a tuple
    out = memo.get(key)
    if out is not None:
        return out
    low = R & -R
    row = rows[low.bit_length() - 1]
    R ^= low
    out = 0
    odd = False
    c = C
    while c:
        b = c & -c
        c ^= b
        e = row[b.bit_length() - 1]
        if e is not Sign.ZERO and (s := _term_signs(rows, memo, R, C ^ b)):
            out |= (s & 1) << 1 | s >> 1 if (e is Sign.MINUS) ^ odd else s
            if out == 3:
                break
        odd = not odd
    memo[key] = out
    return out


def _first_terms(
    rows: Sequence[Sequence[Sign]],
    row_idx: Sequence[int],
    col_idx: Sequence[int],
    memo: Optional[dict] = None,
) -> dict[Sign, list[int]]:
    """First nonzero permutation term of each sign of det P[row_idx, col_idx].

    Maps each term sign that occurs to the lexicographically first term of
    that sign, given as the position in `col_idx` picked in each row (both
    index sequences ascend).  A greedy walk over the rows: each takes the
    first free column whose remaining minor, read from the `_term_signs`
    memo (`memo` when given, shared with other calls on the same rows),
    still has a term of the sign the running product needs.
    """
    memo = {} if memo is None else memo
    R, C = mask_from(row_idx), mask_from(col_idx)
    found: dict[Sign, list[int]] = {}
    signs = _term_signs(rows, memo, R, C)
    for bit, sign in ((1, Sign.PLUS), (2, Sign.MINUS)):
        if not signs & bit:
            continue
        picks, r, c, need = [], R, C, bit
        for i in row_idx:
            r ^= 1 << i
            odd = False
            rest = c
            while rest:  # a term of sign `need` exists, so some column takes it
                b = rest & -rest
                rest ^= b
                e = rows[i][b.bit_length() - 1]
                if e is not Sign.ZERO:
                    sub = 3 ^ need if (e is Sign.MINUS) ^ odd else need
                    if _term_signs(rows, memo, r, c ^ b) & sub:
                        break
                odd = not odd
            else:
                raise RuntimeError("no column continues a term the memo says exists")
            picks.append((C & (b - 1)).bit_count())
            c ^= b
            need = sub
        found[sign] = picks
    return found


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


def _laplace_levels(n: int) -> Iterator[tuple[dict[int, int], list[list[int]], list[list[int]]]]:
    """Laplace expansions that yield every principal minor of order n, level
    by level, j = 1..n; one level is held at a time.

    Level j holds the minors E[R, C] with |R| = |C| = j and C drawn from R
    plus the columns below r = min R, by R and then C in lexicographic
    order.  Expanding along row r,
    E[R, C] = sum over t of (-1)^t E[r, C[t]] E[R - r, C - C[t]], and each
    sub-minor lies on level j - 1 (level 0 is the empty minor, 1).  A level
    is (keys, entry, sub): keys maps C << n | R, the `_term_signs` memo key
    of a minor, to its row m, in row order; entry[m][t] = r*n + C[t], plus
    n*n for an odd t; sub[m][t], the sub-minor's row on level j - 1.
    """
    prev = {0: 0}
    for j in range(1, n + 1):
        index: dict[int, int] = {}
        entry, sub = [], []
        for R in combinations(range(n), j):
            r, rmask = R[0], mask_from(R)
            for C in combinations(sorted(set(R) | set(range(r))), j):
                cmask = mask_from(C)
                index[cmask << n | rmask] = len(index)
                entry.append([r * n + c + n * n * (t & 1) for t, c in enumerate(C)])
                sub.append([prev[(cmask ^ 1 << c) << n | rmask ^ 1 << r] for c in C])
        yield index, entry, sub
        prev = index


@lru_cache(maxsize=None)
def _laplace_plan(n: int) -> tuple[tuple[tuple, tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """`_laplace_levels(n)` as `_principal_table` reads it, for n up to
    _LAPLACE_PLAN_ORDER (kept for the life of the process).

    Per level, (terms, keys, principal): terms[m], the (entry, sub) pairs of
    minor m; keys, the memo keys of the level's minors, empty on the one-row
    level, which `_term_signs` reads without its memo; principal, the
    (row, mask) of each minor with C == R.
    """
    if not 1 <= n <= _LAPLACE_PLAN_ORDER:
        raise ValueError(f"the Laplace plan covers orders 1..{_LAPLACE_PLAN_ORDER}")
    full = full_mask(n)
    return tuple((tuple(map(tuple, map(zip, entry, sub))), tuple(keys) if j > 1 else (),
                  tuple((m, k & full) for m, k in enumerate(keys) if k >> n == k & full))
                 for j, (keys, entry, sub) in enumerate(_laplace_levels(n), start=1))


def principal_term_signs(P: SignPattern) -> list[int]:
    """Term signs of every principal minor, indexed by mask: bit 1 a
    positive term, bit 2 a negative one (0: no term, 3: ambiguous).

    To order _LAPLACE_PLAN_ORDER (6) the table comes from one pass over the
    order's Laplace plan; above it, from `_term_signs` on one memo.
    """
    return _principal_table(P)[0]


def _principal_table(P: SignPattern) -> tuple[list[int], dict]:
    """`principal_term_signs` and a `_term_signs` memo of P's rows that holds
    the table's multi-row minors.

    To order _LAPLACE_PLAN_ORDER: one pass over `_laplace_plan(n)`, level by
    level.  A minor's term through entry e and sub-minor s has s's term
    signs, swapped when e is negative xor its column is odd, and none when e
    is 0; a minor stops at both signs.  Every multi-row minor of the plan,
    principal or not, then goes into the memo, so `_first_terms`,
    `_targeted` and the all-nonzero walk read it there.  Above that order
    the recursion fills the memo as it goes.
    """
    n = P.n
    if n > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    memo: dict = {}
    if n > _LAPLACE_PLAN_ORDER:
        return [_term_signs(P.rows, memo, m, m) for m in range(1 << n)], memo
    entries = [*chain.from_iterable(P.rows)]
    # by entry code r*n + c, plus n*n for an odd column
    flip = [*map(_EVEN_FLIP.__getitem__, entries), *map(_ODD_FLIP.__getitem__, entries)]
    table = [0] * (1 << n)
    table[0] = 1
    signs = [1]  # level 0: the empty minor
    for terms, keys, principal in _laplace_plan(n):
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
        memo.update(zip(keys, level))
        signs = level
    return table, memo


def is_ambiguous(P: SignPattern) -> bool:
    """True when the pattern's determinant is ambiguous."""
    return signed_det(P).value is AmbSign.AMBIGUOUS


# ---------------------------------------------------------------------------
# bigraph and matchings

@dataclass(frozen=True)
class Bigraph:
    """Bipartite row/column graph of a pattern: edge x_i ~ y_j iff p_ij != 0."""

    n_left: int
    n_right: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def of_pattern(cls, P: SignPattern) -> "Bigraph":
        adj = tuple(
            tuple(j for j, s in enumerate(row) if s is not Sign.ZERO) for row in P.rows
        )
        return cls(P.n, P.n, adj)


def bigraph(P: SignPattern) -> Bigraph:
    return Bigraph.of_pattern(P)


def max_bipartite_matching(bg: Bigraph) -> int:
    """Maximum matching size by augmenting paths."""
    match_right: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in bg.adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(bg.n_left):
        if try_augment(u, set()):
            size += 1
    return size


def has_perfect_matching(bg: Bigraph) -> bool:
    """True iff a matching saturates every left vertex (and the sides balance)."""
    return bg.n_left == bg.n_right and max_bipartite_matching(bg) == bg.n_left
