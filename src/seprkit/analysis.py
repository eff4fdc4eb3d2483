"""Sepr analysis of sign patterns.

Decides which sequence positions are forced by signed subpattern
determinants, searches for realizations separating a sepr-set, bounds the
sepr-set from both sides, predicts sequences for structured digraph
families, and applies the necessary-condition filters for sequences of
symmetric nonnegative matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import Optional

from .digraph import _is_forest, all_cycle_products_negative, is_sign_semi_stable, simplify
from .pattern import (
    DET_ORDER_GUARD,
    OrderGuardError,
    SignPattern,
    _masks_by_size,
    _order_signs,
    _term_signs,
    mask_indices,
    principal_term_signs,
)
from .realize import (
    ALLNONZERO_ORDER_GUARD,
    MagnitudeGrid,
    RationalMatrix,
    _witness_search,
    allnonzero_realization,
    sepr_of_matrix,
    sweep_sepr_table,
)
from .signs import SeprSequence, SeprSymbol, Sign


class TheoremContradiction(AssertionError):
    """A verified classification disagreed with a proved statement."""


# ---------------------------------------------------------------------------
# fixed terms

class TermStatus(Enum):
    FIXED_BY_SIGNED_DETS = "fixed-by-signed-dets"
    FIXED_SSTAR_BY_WITNESSES = "fixed-s*-by-witnesses"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TermVerdict:
    """Whether position k of the sepr-sequence is the same for all realizations."""

    k: int
    status: TermStatus
    symbol: Optional[SeprSymbol] = None
    witnesses: Optional[tuple[int, int, int]] = None  # masks with dets +, -, 0
    ambiguous_masks: tuple[int, ...] = ()

    @property
    def fixed(self) -> bool:
        return self.status is not TermStatus.UNKNOWN


def _term_verdict(n: int, k: int, signs) -> TermVerdict:
    """Decide term k from the term signs of the order-k principal minors,
    `signs[mask]` as `principal_term_signs` gives them.

    All subpatterns signed: the symbol is read off the sign multiset.
    Otherwise the term is still forced to S* when +, -, 0 all occur among
    the signed ones; with ambiguity present and witnesses missing the term
    is unknown.
    """
    masks = _masks_by_size(n)[k]
    present, ambiguous = _order_signs(signs, masks)  # present: 1 +, 2 -, 4 zero (no term)
    if not ambiguous:
        return TermVerdict(k, TermStatus.FIXED_BY_SIGNED_DETS, SeprSymbol.from_sign_mask(present))
    if present == 7:
        witness = tuple(next(m for m in masks if (signs[m] or 4) == bit) for bit in (1, 2, 4))
        return TermVerdict(k, TermStatus.FIXED_SSTAR_BY_WITNESSES, SeprSymbol.SST,
                           witness, tuple(ambiguous))
    return TermVerdict(k, TermStatus.UNKNOWN, None, None, tuple(ambiguous))


def term_verdicts(P: SignPattern) -> tuple[TermVerdict, ...]:
    """Every term's verdict, all read from one principal term-sign table."""
    signs = principal_term_signs(P)
    return tuple(_term_verdict(P.n, k, signs) for k in range(1, P.n + 1))


def fixed_term(P: SignPattern, k: int) -> TermVerdict:
    """The k-th of `term_verdicts`, reading only the order-k principal minors
    through one `_term_signs` memo."""
    n = P.n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    if n > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    memo: dict = {}
    return _term_verdict(n, k, {m: _term_signs(P.rows, memo, m, m) for m in _masks_by_size(n)[k]})


def fixed_sequence(P: SignPattern) -> Optional[SeprSequence]:
    """The sequence when every position is fixed; None otherwise."""
    verdicts = term_verdicts(P)
    if not all(v.fixed for v in verdicts):
        return None
    return SeprSequence(tuple(v.symbol for v in verdicts))


# ---------------------------------------------------------------------------
# uniqueness

class UniqueStatus(Enum):
    UNIQUE_BY_FIXED_TERMS = "unique-by-fixed-terms"
    NOT_UNIQUE = "not-unique"
    NOT_UNIQUE_PENDING_WITNESSES = "not-unique-pending-witnesses"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class UniqueVerdict:
    status: UniqueStatus
    sequence: Optional[SeprSequence] = None
    term_verdicts: tuple[TermVerdict, ...] = ()
    witnesses: Optional[tuple[RationalMatrix, SeprSequence, RationalMatrix, SeprSequence]] = None
    warning: Optional[str] = None

    @property
    def unique(self) -> bool:
        return self.status is UniqueStatus.UNIQUE_BY_FIXED_TERMS


def unique_verdict(P: SignPattern, search_budget: int = 4000,
                   grid: Optional[MagnitudeGrid] = None, seed: int = 0) -> UniqueVerdict:
    """Uniqueness of the sepr-set.

    Every position fixed gives a definite yes with the sequence.  Otherwise
    a deterministic search (`distinct_sepr_search`) hunts for two
    realizations with different sequences; it reads the sign-determined
    minors from the principal term-sign table the term verdicts were read
    from, built once per call.  Unfixed positions with no witnesses found
    are reported as pending at order <= 4 (uniqueness without all-fixed
    cannot happen there, so the search grid was too small) and as
    undecided beyond.
    """
    signs = principal_term_signs(P)
    verdicts = tuple(_term_verdict(P.n, k, signs) for k in range(1, P.n + 1))
    if all(v.fixed for v in verdicts):
        seq = SeprSequence(tuple(v.symbol for v in verdicts))
        return UniqueVerdict(UniqueStatus.UNIQUE_BY_FIXED_TERMS, seq, verdicts)
    found = _witness_search(P, search_budget, seed, grid, signs)
    if found is not None:
        return UniqueVerdict(UniqueStatus.NOT_UNIQUE, None, verdicts, found)
    if P.n <= 4:
        return UniqueVerdict(
            UniqueStatus.NOT_UNIQUE_PENDING_WITNESSES, None, verdicts, None,
            "order <= 4 with an unfixed position is never unique; "
            "no separating realizations found, enlarge the grid or budget",
        )
    return UniqueVerdict(UniqueStatus.UNDECIDED, None, verdicts, None,
                         "uniqueness beyond order 4 is undecidable without all positions fixed")


# ---------------------------------------------------------------------------
# sepr-set estimate

@dataclass
class SeprSetEstimate:
    """Two-sided bound on the sepr-set.

    lower: realized sequences with witness matrices.  upper_per_position:
    symbols consistent with treating each subpattern determinant outcome as
    independent; this over-approximates the true set, so tight is False
    whenever joint constraints bite.
    """

    lower: dict[SeprSequence, RationalMatrix]
    upper_per_position: tuple[frozenset[SeprSymbol], ...]
    tight: bool

    @property
    def sequences(self) -> set[SeprSequence]:
        return set(self.lower)


def position_upper_sets(P: SignPattern) -> tuple[frozenset[SeprSymbol], ...]:
    """Per-position symbol sets with subpattern determinants treated independently.

    At order k the sign-determined minors show the sign bits `fixed`; each
    of the `ambiguous` others may be +, - or 0, so together they add any
    nonempty set of at most len(ambiguous) of the three bits.
    """
    n = P.n
    signs = principal_term_signs(P)
    out = []
    for masks in _masks_by_size(n)[1:]:
        fixed, ambiguous = _order_signs(signs, masks)
        reachable = {fixed | u for u in range(1, 8) if u.bit_count() <= len(ambiguous)} or {fixed}
        out.append(frozenset(SeprSymbol.from_sign_mask(u) for u in reachable))
    return tuple(out)


def sepr_set_estimate(P: SignPattern, grid: Optional[MagnitudeGrid] = None,
                      budget: int = 10**6, seed: int = 0) -> SeprSetEstimate:
    """Bound the sepr-set of P from both sides.

    The lower side is realized: the first witness of each sequence in the
    grid sweep (`sweep_sepr_table` at `budget` and `seed`), plus the
    realization with every ambiguous minor nonzero when n <=
    ALLNONZERO_ORDER_GUARD.  The upper side is per position
    (`position_upper_sets`).  `tight` means the two sides meet: the lower
    side has as many sequences as the product of the per-position set sizes
    and realizes every symbol of every set, so it is the whole sepr-set.
    """
    lower = sweep_sepr_table(P, grid, budget, seed)
    if P.n <= ALLNONZERO_ORDER_GUARD:
        B = allnonzero_realization(P)
        lower.setdefault(sepr_of_matrix(B), B)
    upper = position_upper_sets(P)
    realized = [frozenset(seq.terms[k] for seq in lower) for k in range(P.n)]
    size_matches = len(lower) == prod(len(u) for u in upper)
    tight = size_matches and all(r == u for r, u in zip(realized, upper))
    return SeprSetEstimate(lower, upper, tight)


# ---------------------------------------------------------------------------
# predicted sequences for structured digraphs

@dataclass(frozen=True)
class PredictedSepr:
    sequence: SeprSequence
    rule: str


def _loop_product_bits(loop_signs: list[Sign], k: int) -> int:
    """Sign bits achievable as products of k distinct loops."""
    minus = sum(1 for s in loop_signs if s is Sign.MINUS)
    plus = len(loop_signs) - minus
    bits = 0
    for j in range(max(0, k - plus), min(k, minus) + 1):
        bits |= 2 if j & 1 else 1
    return bits


def _loopless_out(P: SignPattern) -> list[int]:
    """Per vertex, the bitmask of its out-neighbours other than itself."""
    return [sum(1 << j for j, s in enumerate(row) if s is not Sign.ZERO) & ~(1 << i)
            for i, row in enumerate(P.rows)]


def _doubled_edges(out: list[int]) -> Optional[list[tuple[int, int]]]:
    """The edges (i, j), i < j, when the masks equal their transpose; None otherwise."""
    edges = []
    for i, m in enumerate(out):
        for j in mask_indices(m):
            if not out[j] >> i & 1:
                return None
            if i < j:
                edges.append((i, j))
    return edges


def _hamiltonian_walk(P: SignPattern, out: list[int], doubly: bool) -> Optional[Sign]:
    """Product of the walk from vertex 0 that steps to the lowest out-neighbour,
    never straight back when `doubly`; None unless it first returns to 0 after
    exactly n steps."""
    v, back, product = 0, 0, Sign.PLUS
    for step in range(1, P.n + 1):
        ahead = out[v] & ~back
        w = (ahead & -ahead).bit_length() - 1
        product = product * P.rows[v][w]
        if w == 0:
            return product if step == P.n else None
        back = 1 << v if doubly else 0
        v = w
    return None


def _fixed_or_raise(P: SignPattern, rule: str) -> SeprSequence:
    seq = fixed_sequence(P)
    if seq is None:  # pragma: no cover - the rules guarantee fixedness
        raise TheoremContradiction(f"rule {rule} fired but a position is not fixed")
    return seq


def predicted_sepr(P: SignPattern) -> Optional[PredictedSepr]:
    """Closed-form sequence when the digraph matches a structured family.

    Rules, in order: a directed n-cycle (optionally with loops), a loopless
    skew or symmetric doubly directed cycle, a strong ditree with at most
    one loop, and all cycle products negative.  Returns None when no rule
    applies.
    """
    n = P.n
    N, AP, AM, SM, SP = SeprSymbol.N, SeprSymbol.AP, SeprSymbol.AM, SeprSymbol.SM, SeprSymbol.SP
    out = _loopless_out(P)
    degrees = [m.bit_count() for m in out]
    loops = [P.rows[i][i] for i in range(n) if P.rows[i][i] is not Sign.ZERO]
    l = len(loops)

    if all(d == 1 for d in degrees) and (cyc := _hamiltonian_walk(P, out, False)) is not None:
        signed = cyc if n % 2 else -cyc
        if l == n and prod(loops, start=Sign.PLUS) is not signed:
            return None
        terms = [SeprSymbol.from_sign_mask((4 if l < n else 0) | _loop_product_bits(loops, k))
                 if k <= l else N for k in range(1, n)]
        rule = "n-cycle" if l == 0 else "n-cycle-with-loops" if l < n else "n-cycle-all-loops"
        return PredictedSepr(SeprSequence((*terms, AP if signed is Sign.PLUS else AM)), rule)

    if (not loops and all(d == 2 for d in degrees)
            and (edges := _doubled_edges(out)) is not None):
        cyc = _hamiltonian_walk(P, out, True)
        same = {P.rows[i][j] is P.rows[j][i] for i, j in edges}
        if cyc is not None and len(same) == 1:
            if same == {False} and n % 2 == 0 and cyc is Sign.MINUS:
                seq = (N, SP) * (n // 2 - 1) + (N, AP)
                return PredictedSepr(SeprSequence(seq), "skew-doubly-directed-cycle")
            if same == {True} and n % 2:
                s = (n - 1) // 2
                x = AP if cyc is Sign.PLUS else AM
                if s % 2 == 0:
                    seq = (N, SM, N, SP) * ((s - 2) // 2) + (N, SM, N, AP, x)
                else:
                    seq = (N, SM, N, SP) * ((s - 1) // 2) + (N, AM, x)
                return PredictedSepr(SeprSequence(seq), "symmetric-doubly-directed-cycle")
            return None

    if (l <= 1 and sum(degrees) == 2 * (n - 1)
            and (edges := _doubled_edges(out)) is not None and _is_forest(n, edges)):
        return PredictedSepr(_fixed_or_raise(P, "strong-ditree"), "strong-ditree")

    if all_cycle_products_negative(P):
        return PredictedSepr(_fixed_or_raise(P, "all-cycle-products-negative"),
                             "all-cycle-products-negative")
    return None


# ---------------------------------------------------------------------------
# semi-stable sequence laws

_EVEN_OK = {SeprSymbol.N, SeprSymbol.SP, SeprSymbol.AP}
_ODD_OK = {SeprSymbol.N, SeprSymbol.SM, SeprSymbol.AM}


@dataclass(frozen=True)
class LawReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_semistable_laws(s: SeprSequence) -> LawReport:
    """Structural laws every semi-stable pattern's sequence satisfies.

    (a) parity-constrained symbols, (b) once an A appears the tail is all
    A's with + and - alternating, (c) an N repeats two later, and an N at
    an even position ends the sequence in N's, (d) a sequence starting in
    the S family and finishing N, A(+/-) is not attainable at all.
    """
    t = s.terms
    n = len(t)
    bad: list[str] = []
    for k in range(1, n + 1):
        ok = _EVEN_OK if k % 2 == 0 else _ODD_OK
        if t[k - 1] not in ok:
            bad.append(f"parity at position {k}")
    a_seen = False
    for k in range(1, n + 1):
        if t[k - 1] in (SeprSymbol.AP, SeprSymbol.AM):
            if a_seen and t[k - 1] == t[k - 2]:
                bad.append(f"A symbols fail to alternate at position {k}")
            a_seen = True
        elif a_seen:
            bad.append(f"A family abandoned at position {k}")
            a_seen = False
    for k in range(1, n + 1):
        if t[k - 1] is not SeprSymbol.N:
            continue
        if k + 2 <= n and t[k + 1] is not SeprSymbol.N:
            bad.append(f"N at position {k} not repeated at {k + 2}")
        if k % 2 == 0 and any(t[j] is not SeprSymbol.N for j in range(k, n)):
            bad.append(f"even-position N at {k} not terminal")
    if (n >= 2 and t[0] in (SeprSymbol.SP, SeprSymbol.SM, SeprSymbol.SST)
            and t[n - 2] is SeprSymbol.N and t[n - 1] in (SeprSymbol.AP, SeprSymbol.AM)):
        bad.append("S start with N A ending is not attainable without long cycles")
    return LawReport(tuple(dict.fromkeys(bad)))


def semistability_recognizable(P: SignPattern) -> bool:
    """Whether the sepr-sequence alone certifies semi-stability.

    True exactly when the sequence is N from position three on, or the
    order is at most two; any other semi-stable sequence is also the
    unique sequence of some non-semi-stable pattern.  This is the
    unique-sequence reading: a pattern whose sepr-set is {s}, with s
    recognizable, is semi-stable.  A sepr-set that merely contains s
    proves nothing: --0/--0/000 is not semi-stable, yet it realizes S-NN.
    """
    if not is_sign_semi_stable(P):
        raise ValueError("pattern is not sign semi-stable")
    if P.n <= 2:
        return True
    seq = fixed_sequence(P)
    if seq is None:
        raise TheoremContradiction("a sign semi-stable pattern has an unfixed term")
    return all(sym is SeprSymbol.N for sym in seq.terms[2:])


def _not_semi_stable(Q: SignPattern) -> SignPattern:
    if is_sign_semi_stable(Q):
        raise TheoremContradiction("closing the cycle left the pattern sign semi-stable")
    return Q


def add_cycle_witness(P: SignPattern) -> SignPattern:
    """Non-semi-stable pattern with the same sepr-set, made by closing a cycle.

    Needs a simplified semi-stable pattern whose digraph contains a 4-path,
    or a 3-path with a loop on an endpoint.  The new arc's sign makes the
    created 4-cycle signed-positive (or 3-cycle signed-negative), so every
    principal minor keeps its signed value.
    """
    if simplify(P) != P:
        raise ValueError("pattern must be simplified")
    if not is_sign_semi_stable(P):
        raise ValueError("pattern is not sign semi-stable")
    n = P.n
    adj = [mask_indices(m) for m in _loopless_out(P)]
    for u in range(n):
        for v in adj[u]:
            for x in adj[v]:
                if x == u:
                    continue
                for y in adj[x]:
                    if y in (u, v):
                        continue
                    sign = -(P.rows[u][v] * P.rows[v][x] * P.rows[x][y])
                    return _not_semi_stable(P.with_entry(y, u, sign))
    for u in range(n):
        for v in adj[u]:
            for x in adj[v]:
                if x == u or P.rows[x][x] is Sign.ZERO:
                    continue
                sign = -(P.rows[u][v] * P.rows[v][x])
                return _not_semi_stable(P.with_entry(x, u, sign))
    raise ValueError("digraph contains no 4-path and no loop-ended 3-path")


# ---------------------------------------------------------------------------
# symmetric nonnegative filters and classification

_FORBIDDEN_STARTS = {
    (SeprSymbol.N, SeprSymbol.AST),
    (SeprSymbol.N, SeprSymbol.AP),
    (SeprSymbol.N, SeprSymbol.SST),
    (SeprSymbol.N, SeprSymbol.SP),
    (SeprSymbol.SP, SeprSymbol.AP),
}

_N_TRIPLES = {
    (SeprSymbol.N, SeprSymbol.AM, SeprSymbol.AP),
    (SeprSymbol.N, SeprSymbol.SM, SeprSymbol.N),
    (SeprSymbol.N, SeprSymbol.SM, SeprSymbol.SP),
    (SeprSymbol.N, SeprSymbol.N, SeprSymbol.N),
}


def nonneg_sequence_check(s: SeprSequence) -> LawReport:
    """Necessary conditions for the sequence of a symmetric nonnegative matrix.

    Start symbol restrictions, the forced continuations of A+N, NA-, NS-
    starts, the N-start triple table, and the filters inherited from
    Hermitian matrices (double-N tails, forbidden starts, and the A*N /
    NA* / S*NN interior subsequences).
    """
    t = s.terms
    n = len(t)
    N, AP, AM, AST, SP, SM, SST = SeprSymbol
    bad: list[str] = []
    if t[0] not in (AP, N, SP):
        bad.append("start symbol not in {A+, N, S+}")
    if n >= 2 and (t[0], t[1]) in _FORBIDDEN_STARTS:
        bad.append(f"forbidden start {t[0]}{t[1]}")
    for k in range(n - 1):
        if t[k] is N and t[k + 1] is N and any(x is not N for x in t[k + 2:]):
            bad.append(f"nonzero term after double N at positions {k + 1},{k + 2}")
            break
    for k in range(n - 1):
        if t[k] is AST and t[k + 1] is N:
            bad.append(f"A*N at position {k + 1}")
        if t[k] is N and t[k + 1] is AST:
            bad.append(f"NA* at position {k + 1}")
    for k in range(n - 2):
        if t[k] is SST and t[k + 1] is N and t[k + 2] is N:
            bad.append(f"S*NN at position {k + 1}")
    if n >= 3:
        if t[0] is AP and t[1] is N and any(x is not N for x in t[2:]):
            bad.append("A+N start must continue all N")
        if t[0] is N and t[1] is AM and t[2] is not AP:
            bad.append("NA- start must continue with A+")
        if t[0] is N and t[1] is SM:
            if t[2] not in (SP, N):
                bad.append("NS- start must continue with S+ or N")
            if n == 3 and t[2] is not N:
                bad.append("NS- at order 3 must end with N")
        if t[0] is N and (t[0], t[1], t[2]) not in _N_TRIPLES:
            bad.append(f"N-start triple {t[0]}{t[1]}{t[2]} not allowed")
    return LawReport(tuple(dict.fromkeys(bad)))


TEN_INITIAL_PAIRS = {
    (SeprSymbol.AP, SeprSymbol.AP),
    (SeprSymbol.N, SeprSymbol.AM),
    (SeprSymbol.N, SeprSymbol.N),
    (SeprSymbol.N, SeprSymbol.SM),
    (SeprSymbol.SP, SeprSymbol.AM),
    (SeprSymbol.SP, SeprSymbol.AST),
    (SeprSymbol.SP, SeprSymbol.N),
    (SeprSymbol.SP, SeprSymbol.SP),
    (SeprSymbol.SP, SeprSymbol.SM),
    (SeprSymbol.SP, SeprSymbol.SST),
}

OPEN_INITIAL_PAIRS = {
    (SeprSymbol.N, SeprSymbol.SM),
    (SeprSymbol.SP, SeprSymbol.SM),
    (SeprSymbol.SP, SeprSymbol.SST),
}


@dataclass(frozen=True)
class SymNonnegClass:
    pair: tuple[SeprSymbol, SeprSymbol]
    case: str  # "1".."7" for determined shapes, "open" otherwise
    sequence: SeprSequence


def _loops_and_edges(P: SignPattern) -> tuple[set[int], set[tuple[int, int]]]:
    loops = {i for i in range(P.n) if P.rows[i][i] is not Sign.ZERO}
    edges = {(i, j) for i in range(P.n) for j in range(i + 1, P.n)
             if P.rows[i][j] is not Sign.ZERO}
    return loops, edges


def classify_symmetric_nonneg_unique(P: SignPattern, search_budget: int = 4000,
                                     seed: int = 0,
                                     verdict: Optional[UniqueVerdict] = None,
                                     ) -> Optional[SymNonnegClass]:
    """Classify a symmetric nonnegative pattern with a unique sepr-sequence.

    Returns None when the sepr-set is not a singleton.  For the seven
    determined initial pairs the digraph shape and the whole sequence are
    checked against the classification; any mismatch raises
    TheoremContradiction.  The three open pairs classify as "open".
    A precomputed uniqueness verdict may be passed to skip the search.
    """
    if not (P.is_symmetric() and P.is_nonnegative()):
        raise ValueError("pattern must be symmetric and nonnegative")
    n = P.n
    if n < 2:
        raise ValueError("classification needs order >= 2")
    v = verdict if verdict is not None else unique_verdict(
        P, search_budget=search_budget, seed=seed)
    if not v.unique:
        return None
    seq = v.sequence
    pair = (seq.terms[0], seq.terms[1])
    if pair not in TEN_INITIAL_PAIRS:
        raise TheoremContradiction(f"unique sequence {seq} starts with unlisted pair")
    if pair in OPEN_INITIAL_PAIRS:
        return SymNonnegClass(pair, "open", seq)
    loops, edges = _loops_and_edges(P)
    N, AP, AM, AST, SP = (SeprSymbol.N, SeprSymbol.AP, SeprSymbol.AM,
                          SeprSymbol.AST, SeprSymbol.SP)

    def expect(cond: bool, case: str, what: str):
        if not cond:
            raise TheoremContradiction(f"case {case}: {what} (pattern {P.to_json()['rows']})")

    if pair == (AP, AP):
        expect(len(loops) == n and not edges, "1", "digraph is not all loops")
        expect(seq.terms == (AP,) * n, "1", f"sequence {seq} is not all A+")
        return SymNonnegClass(pair, "1", seq)
    if pair == (N, AM):
        expect(n <= 3, "2", "order exceeds 3")
        expect(not loops and len(edges) == n * (n - 1) // 2, "2", "digraph not complete loopless")
        expect(seq.terms in {(N, AM), (N, AM, AP)}, "2", f"sequence {seq} unexpected")
        return SymNonnegClass(pair, "2", seq)
    if pair == (N, N):
        expect(not loops and not edges, "3", "digraph not empty")
        expect(all(x is N for x in seq.terms), "3", f"sequence {seq} not all N")
        return SymNonnegClass(pair, "3", seq)
    if pair == (SP, AST):
        centers = [c for c in range(n)
                   if edges == {(min(c, v2), max(c, v2)) for v2 in range(n) if v2 != c}]
        expect(n >= 3 and len(centers) == 1, "4", "digraph is not a star")
        expect(loops == set(range(n)) - {centers[0]}, "4", "loops not exactly on the leaves")
        expect(seq.terms == (SP,) + (AST,) * (n - 2) + (AM,), "4", f"sequence {seq} unexpected")
        return SymNonnegClass(pair, "4", seq)
    if pair == (SP, AM):
        expect(n == 2 and len(loops) == 1 and len(edges) == 1, "5",
               "digraph is not an edge with one loop")
        return SymNonnegClass(pair, "5", seq)
    if pair == (SP, N):
        expect(len(loops) == 1 and not edges, "6", "digraph is not a single loop")
        expect(seq.terms == (SP,) + (N,) * (n - 1), "6", f"sequence {seq} unexpected")
        return SymNonnegClass(pair, "6", seq)
    if pair == (SP, SP):
        k = len(loops)
        expect(not edges and 2 <= k <= n - 1, "7", "digraph is not k isolated loops")
        expect(seq.terms == (SP,) * k + (N,) * (n - k), "7", f"sequence {seq} unexpected")
        return SymNonnegClass(pair, "7", seq)
    raise TheoremContradiction(f"initial pair {seq} has no case")
