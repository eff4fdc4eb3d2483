"""Signed digraphs of sign patterns.

A pattern is its own signed digraph: one arc i -> j, signed P[i][j], per
nonzero entry, loops included.  Every query here takes the pattern and
reads its rows.  Covers strong components, the simplified pattern and
irreducibility (all read off one reachability closure), cycle structure
(simple and composite), the combinatorial stability tests, matching
numbers of underlying graphs, DOT export, and generators for the small
named digraph families used throughout the analysis and verification
layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .pattern import (
    DET_ORDER_GUARD,
    OrderGuardError,
    SignPattern,
    _term_signs,
    bigraph,
    full_mask,
    has_perfect_matching,
    mask_from,
    mask_indices,
    subsets_of_size,
)
from .signs import Sign

SIMPLE_CYCLE_CAP = 10**6
MATCHING_ORDER_GUARD = 20
STABLE_ORDER_GUARD = 20


def to_dot(P: SignPattern) -> str:
    """Graphviz DOT text of the pattern's signed digraph."""
    lines = ["digraph pattern {"]
    for v in range(P.n):
        lines.append(f"  v{v};")
    for i, j in P.nonzero_positions():
        lines.append(f'  v{i} -> v{j} [label="{P.rows[i][j].char}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# strong components / simplification

def _reach(P: SignPattern) -> list[int]:
    """Per vertex, the bitmask of vertices it reaches (itself included),
    by Warshall's closure."""
    reach = [1 << v for v in range(P.n)]
    for i, j in P.nonzero_positions():
        reach[i] |= 1 << j
    for k in range(P.n):
        for i in range(P.n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return reach


def strong_components(P: SignPattern) -> tuple[tuple[int, ...], ...]:
    """SCC partition, ordered by smallest member vertex."""
    reach = _reach(P)
    return tuple(sorted({tuple(u for u in mask_indices(r) if reach[u] >> v & 1)
                         for v, r in enumerate(reach)}))


def is_irreducible(P: SignPattern) -> bool:
    """n >= 2 patterns are irreducible iff the digraph is strongly connected."""
    full = full_mask(P.n)
    return all(r == full for r in _reach(P))


def simplify(P: SignPattern) -> SignPattern:
    """Zero every entry whose arc joins two distinct strong components.

    The surviving arcs are exactly those lying on a cycle, so the sepr-set
    is unchanged.  Idempotent; loops are 1-cycles and always survive.
    """
    reach = _reach(P)
    rows = [
        tuple(s if i == j or reach[j] >> i & 1 else Sign.ZERO for j, s in enumerate(row))
        for i, row in enumerate(P.rows)
    ]
    return SignPattern(tuple(rows))


# ---------------------------------------------------------------------------
# cycles

class CycleCapExceeded(OrderGuardError):
    pass


def simple_cycles(P: SignPattern) -> Iterator[tuple[int, ...]]:
    """All simple directed cycles, each rooted at its smallest vertex.

    Loops are length-1 cycles.  Raises CycleCapExceeded past
    SIMPLE_CYCLE_CAP cycles (read at call time).
    """
    succ = [[j for j, s in enumerate(row) if s is not Sign.ZERO] for row in P.rows]
    count = 0
    for root in range(P.n):
        # DFS over vertices >= root, so each cycle is reported exactly once.
        path = [root]
        on_path = {root}
        iters = [iter(succ[root])]
        while iters:
            try:
                w = next(iters[-1])
            except StopIteration:
                iters.pop()
                on_path.discard(path.pop())
                continue
            if w == root:
                count += 1
                if count > SIMPLE_CYCLE_CAP:
                    raise CycleCapExceeded(f"more than {SIMPLE_CYCLE_CAP} simple cycles")
                yield tuple(path)
                continue
            if w < root or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            iters.append(iter(succ[w]))


def _cycle_product(P: SignPattern, cycle: tuple[int, ...]) -> Sign:
    """Product of the arc signs of a simple cycle."""
    prod = Sign.PLUS
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        prod = prod * P.rows[a][b]
    return prod


def all_cycle_products_negative(P: SignPattern) -> bool:
    """Whether every simple cycle of the signed digraph has product -.

    This is the term-sign law: every term of every order-k principal minor
    has sign (-1)^k, since a composite cycle's term is (-1)^(k - c) times
    the products of its c cycles, and a simple cycle alone is a term.  A +
    loop, or a 2-cycle whose two arcs share a sign, is a + cycle; that
    screen runs first, so such a pattern never enumerates `simple_cycles`.
    """
    rows = P.rows
    for i, row in enumerate(rows):
        if row[i] is Sign.PLUS:
            return False
        for j in range(i + 1, len(row)):
            s = row[j]
            if s is not Sign.ZERO and s is rows[j][i]:
                return False
    return all(_cycle_product(P, c) is Sign.MINUS for c in simple_cycles(P))


@dataclass(frozen=True)
class CycleReport:
    max_simple_cycle_length: int
    composite_cycle_orders: frozenset[int]
    signed_product_signs_by_order: dict[int, frozenset[Sign]]


def cycle_report(P: SignPattern, max_order: Optional[int] = None) -> CycleReport:
    """Cycle-length spectrum of the pattern's signed digraph.

    Composite-cycle data is read off determinant terms of principal
    subpatterns: an order-k composite cycle is exactly a nonzero term of
    some k x k principal minor, and its signed product is the term's sign.
    """
    n = P.n
    if max_order is None:
        max_order = n
    if not 0 <= max_order <= n:
        raise ValueError("max_order out of range")
    if max_order > DET_ORDER_GUARD:
        raise OrderGuardError(f"signed determinant limited to order {DET_ORDER_GUARD}")
    longest = 0
    for cyc in simple_cycles(P):
        longest = max(longest, len(cyc))
    memo: dict = {}
    orders = set()
    signs_by_order: dict[int, frozenset[Sign]] = {}
    for k in range(1, max_order + 1):
        bits = 0
        for mask in subsets_of_size(n, k):
            bits |= _term_signs(P.rows, memo, mask, mask)
            if bits == 3:
                break
        if bits:
            orders.add(k)
            signs_by_order[k] = frozenset(
                s for b, s in ((1, Sign.PLUS), (2, Sign.MINUS)) if bits & b)
    return CycleReport(longest, frozenset(orders), signs_by_order)


# ---------------------------------------------------------------------------
# stability tests

@dataclass(frozen=True)
class StabilityVerdict:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_sign_semi_stable(P: SignPattern) -> StabilityVerdict:
    """Combinatorial semi-stability test.

    Requires a nonpositive diagonal, nonpositive products on opposite
    off-diagonal pairs, and no directed cycle longer than two; the reason
    names the first violated condition with a witness.
    """
    n = P.n
    for i in range(n):
        if P.rows[i][i] is Sign.PLUS:
            return StabilityVerdict(False, f"diagonal entry ({i + 1},{i + 1}) is +")
    for i in range(n):
        for j in range(i + 1, n):
            if P.rows[i][j] * P.rows[j][i] is Sign.PLUS:
                return StabilityVerdict(
                    False, f"product of entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) is +"
                )
    for cyc in simple_cycles(P):
        if len(cyc) >= 3:
            pretty = ",".join(str(v + 1) for v in cyc)
            return StabilityVerdict(False, f"cycle ({pretty}) has length {len(cyc)}")
    return StabilityVerdict(True)


def is_sign_stable_irreducible(P: SignPattern) -> StabilityVerdict:
    """Sign stability for an irreducible pattern.

    On top of semi-stability the determinant must have a nonzero term, and
    no index set may induce an all-zero diagonal block whose rows are
    nonzero inside the block while no outside row meets the block's
    columns in exactly one nonzero entry.
    """
    n = P.n
    if n > STABLE_ORDER_GUARD:
        raise OrderGuardError(f"stability subset search limited to order {STABLE_ORDER_GUARD}")
    if not is_irreducible(P):
        raise ValueError("pattern is reducible; sign stability test requires irreducibility")
    semi = is_sign_semi_stable(P)
    if not semi:
        return semi
    if not has_perfect_matching(bigraph(P)):
        return StabilityVerdict(False, "combinatorially singular: no nonzero determinant term")
    nz = [mask_from(j for j, s in enumerate(row) if s is not Sign.ZERO) for row in P.rows]
    loops = mask_from(i for i in range(n) if nz[i] >> i & 1)
    full = full_mask(n)
    for beta in range(1, 1 << n):
        if beta & loops:
            continue
        bidx = mask_indices(beta)
        if any(not nz[i] & beta for i in bidx):
            continue
        if any((nz[i] & beta).bit_count() == 1 for i in mask_indices(full ^ beta)):
            continue
        pretty = "{" + ",".join(str(i + 1) for i in bidx) + "}"
        return StabilityVerdict(False, f"index set {pretty} admits sustained oscillation")
    return StabilityVerdict(True)


# ---------------------------------------------------------------------------
# matching number

def _is_forest(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def matching_number(P: SignPattern) -> int:
    """Maximum matching of the underlying loopless graph.

    Forests are matched greedily from the leaves up, at any order; everything
    else uses an exact DP over vertex subsets (guarded by order).
    """
    n = P.n
    # loopless undirected edges {i, j} with at least one arc between i and j
    edges = {(min(i, j), max(i, j)) for i, j in P.nonzero_positions() if i != j}
    nb = [0] * n
    for a, b in edges:
        nb[a] |= 1 << b
        nb[b] |= 1 << a
    if _is_forest(n, edges):
        preorder: list[int] = []
        seen = 0
        stack = list(range(n - 1, -1, -1))
        while stack:
            v = stack.pop()
            if not seen >> v & 1:
                seen |= 1 << v
                preorder.append(v)
                kids = nb[v] & ~seen
                while kids:
                    stack.append(kids.bit_length() - 1)
                    kids ^= 1 << stack[-1]
        # in reverse preorder every child comes before its parent, so a vertex
        # still free at its turn has matched children and its parent as its
        # one free neighbour
        free = full_mask(n)
        size = 0
        for v in reversed(preorder):
            parent = nb[v] & free
            if parent and free >> v & 1:
                free ^= parent | 1 << v
                size += 1
        return size
    if n > MATCHING_ORDER_GUARD:
        raise OrderGuardError(f"matching number limited to order {MATCHING_ORDER_GUARD}")
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        best = dp[rest]
        avail = nb[v] & rest
        while avail:
            ubit = avail & -avail
            avail ^= ubit
            cand = 1 + dp[rest ^ ubit]
            if cand > best:
                best = cand
        dp[mask] = best
    return dp[(1 << n) - 1]


# ---------------------------------------------------------------------------
# named families

@dataclass(frozen=True)
class DigraphFamily:
    """A named small digraph shape plus a sign-assignment preset.

    kind: "path", "star", "cycle", "complete", or "leaf-loop-star".
    loops: for paths one of "none"/"one"/"both"/"all"; for stars
      "none"/"center"; for complete "none"/"one"; for cycles a loop count
      or "none" (no loops).
    preset: "skew" (doubly directed pairs +/-, loops and single arcs get
      - and + respectively), "symmetric-positive" (every nonzero entry +),
      or "negative-diagonal" (like symmetric-positive but loops -).
    """

    kind: str
    size: int
    loops: str | int = "none"
    preset: str = "skew"


def _preset_signs(preset: str) -> tuple[Sign, Sign, Sign, Sign]:
    """(upper pair sign, lower pair sign, loop sign, single arc sign)."""
    if preset == "skew":
        return Sign.PLUS, Sign.MINUS, Sign.MINUS, Sign.PLUS
    if preset == "symmetric-positive":
        return Sign.PLUS, Sign.PLUS, Sign.PLUS, Sign.PLUS
    if preset == "negative-diagonal":
        return Sign.PLUS, Sign.PLUS, Sign.MINUS, Sign.PLUS
    raise ValueError(f"unknown sign preset: {preset}")


def make_family(family: DigraphFamily) -> SignPattern:
    """Concrete sign pattern whose digraph is the requested family."""
    k = family.size
    up, down, loop, arrow = _preset_signs(family.preset)
    if k < 1:
        raise ValueError("family size must be positive")
    rows = [[Sign.ZERO] * k for _ in range(k)]

    def dd_edge(a: int, b: int):
        rows[a][b] = up
        rows[b][a] = down

    if family.kind == "path":
        for i in range(k - 1):
            dd_edge(i, i + 1)
        loop_set = {
            "none": [],
            "one": [0],
            "both": [0, k - 1] if k > 1 else [0],
            "all": list(range(k)),
        }.get(family.loops if isinstance(family.loops, str) else None)
        if loop_set is None:
            raise ValueError(f"bad loops spec for path: {family.loops!r}")
        for v in loop_set:
            rows[v][v] = loop
    elif family.kind == "star":
        if k < 2:
            raise ValueError("star needs at least 2 vertices")
        for leaf in range(1, k):
            dd_edge(0, leaf)
        if family.loops == "center":
            rows[0][0] = loop
        elif family.loops != "none":
            raise ValueError(f"bad loops spec for star: {family.loops!r}")
    elif family.kind == "leaf-loop-star":
        if k < 3:
            raise ValueError("leaf-loop-star needs at least 3 vertices")
        for leaf in range(1, k):
            dd_edge(0, leaf)
            rows[leaf][leaf] = loop
        if family.loops != "none":
            raise ValueError("leaf-loop-star fixes its own loops")
    elif family.kind == "complete":
        for i in range(k):
            for j in range(i + 1, k):
                dd_edge(i, j)
        if family.loops == "one":
            rows[0][0] = loop
        elif family.loops != "none":
            raise ValueError(f"bad loops spec for complete: {family.loops!r}")
    elif family.kind == "cycle":
        for i in range(k):
            rows[i][(i + 1) % k] = arrow
        nloops = 0 if family.loops == "none" else family.loops
        if not isinstance(nloops, int):
            raise ValueError(f"bad loops spec for cycle: {family.loops!r}")
        if not 0 <= nloops <= k:
            raise ValueError("loop count out of range")
        for v in range(nloops):
            rows[v][v] = loop
    else:
        raise ValueError(f"unknown family kind: {family.kind!r}")
    return SignPattern(tuple(tuple(r) for r in rows))


def path_pattern(k: int, loops: str = "none", preset: str = "skew") -> SignPattern:
    return make_family(DigraphFamily("path", k, loops, preset))


def star_pattern(k: int, loops: str = "none", preset: str = "skew") -> SignPattern:
    return make_family(DigraphFamily("star", k, loops, preset))
