"""Sign patterns and their exact signed determinants.

A sign pattern is a square grid over {+, -, 0}.  Its determinant is the
standard permutation expansion evaluated in sign arithmetic: the result
is +, -, 0, or ambiguous (both a positive and a negative term occur).
Index sets are bitmasks; the bigraph view ties nonzero determinant terms
to perfect matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .signs import AmbSign, Sign

DET_ORDER_GUARD = 16
_TERM_SIGN = (Sign.PLUS, Sign.MINUS)  # by "term is negative"


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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bitmasks, in increasing numeric order."""
    for combo in combinations(range(n), k):
        yield mask_from(combo)


def full_mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class SignPattern:
    """Immutable square (or rectangular, for row/column extractions) sign grid."""

    rows: tuple[tuple[Sign, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("pattern must have at least one row")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("ragged rows")

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

    @property
    def is_square(self) -> bool:
        return len(self.rows) == len(self.rows[0])

    def entry(self, i: int, j: int) -> Sign:
        return self.rows[i][j]

    def to_text(self) -> str:
        return "\n".join("".join(s.char for s in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": ["".join(s.char for s in row) for row in self.rows]}

    def __str__(self) -> str:
        return self.to_text()

    def with_entry(self, i: int, j: int, s: Sign) -> "SignPattern":
        rows = [list(r) for r in self.rows]
        rows[i][j] = s
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
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.n) for j in range(i)
        )

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
        h = len(self.rows)
        w = len(self.rows[0])
        if any(i < 0 or i >= h for i in row_idx) or any(j < 0 or j >= w for j in col_idx):
            raise IndexError("subpattern index out of range")
        return SignPattern(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))

    def principal(self, mask: int) -> "SignPattern":
        idx = mask_indices(mask)
        return self.submatrix(idx, idx)

    def complement_principal(self, mask: int) -> "SignPattern":
        return self.principal(full_mask(self.n) & ~mask)


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
    """Outcome of the sign-arithmetic determinant expansion.

    `term_count_bound` is the number of term signs found (0, 1 or 2), a
    lower bound on the number of nonzero terms.
    """

    value: AmbSign
    has_positive_term: bool
    has_negative_term: bool
    term_count_bound: int

    @classmethod
    def from_terms(cls, terms: dict[Sign, list[int]]) -> "DetSummary":
        """Summary of the first term of each sign found by `_first_terms`."""
        has_pos, has_neg = Sign.PLUS in terms, Sign.MINUS in terms
        if has_pos and has_neg:
            v = AmbSign.AMBIGUOUS
        elif has_pos:
            v = AmbSign.PLUS
        elif has_neg:
            v = AmbSign.MINUS
        else:
            v = AmbSign.ZERO
        return cls(v, has_pos, has_neg, len(terms))

    @property
    def has_term(self) -> bool:
        return self.has_positive_term or self.has_negative_term


def _first_terms(
    rows: Sequence[Sequence[Sign]],
    row_idx: Sequence[int],
    col_idx: Sequence[int],
) -> dict[Sign, list[int]]:
    """First nonzero permutation term of each sign of det P[row_idx, col_idx].

    Maps each term sign that occurs to the lexicographically first term of
    that sign, given as the position in `col_idx` picked in each row.
    Depth-first over partial terms, columns in ascending order.  The
    completions of a partial term depend only on its (used-column mask,
    running sign) state, so each state is expanded once: at most 2 * 2**k
    states.  Once a state is expanded, every sign it can reach has been
    found, so a later prefix reaching it is skipped.  The search stops when
    both signs have occurred.
    """
    k = len(row_idx)
    if k == 0:
        return {Sign.PLUS: []}  # empty determinant is +1 by convention
    last = rows[row_idx[-1]]
    if k == 1:
        e = last[col_idx[0]]
        return {} if e is Sign.ZERO else {_TERM_SIGN[e is Sign.MINUS]: [0]}
    # per row but the last, the (position, entry is negative) candidates in
    # descending order, so that ascending positions pop first; row k - 2
    # completes the last row in place and so runs ascending
    rev = tuple(enumerate(col_idx))[::-1]
    cand = [[(pos, e is Sign.MINUS) for pos, j in rev if (e := r[j]) is not Sign.ZERO]
            for r in map(rows.__getitem__, row_idx[:-1])]
    cand[-1].reverse()
    top = k - 1
    full = (1 << k) - 1
    found: dict[Sign, list[int]] = {}
    seen = set()
    path = [0] * (k + 1)  # path[d] is the position picked in row d - 1
    stack = [(0, 0, False, 0)]  # (rows placed, used-column mask, term is negative, pick)
    while stack:
        depth, used, neg, pick = stack.pop()
        path[depth] = pick
        if depth < top - 1:
            for pos, e in cand[depth]:
                bit = 1 << pos
                if used & bit:
                    continue
                # parity update: inversions added by placing column `pos` now
                t = neg ^ e ^ ((used >> (pos + 1)).bit_count() & 1)
                key = (used | bit) << 1 | t
                if key not in seen:
                    seen.add(key)
                    stack.append((depth + 1, used | bit, t, pos))
            continue
        for pos, e in cand[depth]:
            bit = 1 << pos
            if used & bit:
                continue
            # the last row takes the one free column q, after top - q larger ones
            q = (full ^ used ^ bit).bit_length() - 1
            f = last[col_idx[q]]
            if f is Sign.ZERO:
                continue
            inv = (used >> (pos + 1)).bit_count() + top - q
            s = _TERM_SIGN[neg ^ e ^ (f is Sign.MINUS) ^ (inv & 1)]
            if s not in found:
                path[top] = pos
                path[k] = q
                found[s] = path[1:]
                if len(found) == 2:
                    return found
    return found


def signed_det_masked(P: SignPattern, rows_mask: int, cols_mask: int | None = None) -> DetSummary:
    """Signed determinant of P[rows_mask, cols_mask] without building the subpattern."""
    ridx = mask_indices(rows_mask)
    cidx = ridx if cols_mask is None else mask_indices(cols_mask)
    if len(ridx) != len(cidx):
        raise ValueError("determinant needs equal-size row and column sets")
    if len(ridx) > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    return DetSummary.from_terms(_first_terms(P.rows, ridx, cidx))


def signed_det(P: SignPattern) -> DetSummary:
    """Signed determinant of a square pattern: +, -, 0, or ambiguous."""
    if not P.is_square:
        raise ValueError("determinant of a non-square pattern")
    n = P.n
    if n > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    return DetSummary.from_terms(_first_terms(P.rows, range(n), range(n)))


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
        return cls(len(P.rows), len(P.rows[0]), adj)


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
