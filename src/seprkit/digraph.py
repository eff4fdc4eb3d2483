"""Signed digraphs of sign patterns.

Covers strong components and the simplified pattern, cycle structure
(simple and composite), the combinatorial stability tests, matching
numbers of underlying graphs, and generators for the small named digraph
families used throughout the analysis and verification layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .pattern import (
    OrderGuardError,
    SignPattern,
    full_mask,
    mask_indices,
    signed_det_masked,
    subsets_of_size,
)
from .signs import Sign

SIMPLE_CYCLE_CAP = 10**6
MATCHING_ORDER_GUARD = 20
STABLE_ORDER_GUARD = 20


@dataclass(frozen=True)
class SignedDigraph:
    """Vertices 0..n-1 with signed arcs; loops allowed."""

    n: int
    arcs: tuple[tuple[int, int, Sign], ...]

    @classmethod
    def of_pattern(cls, P: SignPattern) -> "SignedDigraph":
        arcs = tuple(
            (i, j, s)
            for i, row in enumerate(P.rows)
            for j, s in enumerate(row)
            if s is not Sign.ZERO
        )
        return cls(P.n, arcs)

    def to_pattern(self) -> SignPattern:
        rows = [[Sign.ZERO] * self.n for _ in range(self.n)]
        for i, j, s in self.arcs:
            rows[i][j] = s
        return SignPattern(tuple(tuple(r) for r in rows))

    def successors_with_loops(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.arcs:
            out[i].append(j)
        return tuple(tuple(sorted(v)) for v in out)

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        """Loopless undirected edges {i, j} with at least one arc between i and j."""
        es = {(min(i, j), max(i, j)) for i, j, _ in self.arcs if i != j}
        return tuple(sorted(es))

    def to_dot(self) -> str:
        lines = ["digraph pattern {"]
        for v in range(self.n):
            lines.append(f"  v{v};")
        for i, j, s in self.arcs:
            lines.append(f'  v{i} -> v{j} [label="{s.char}"];')
        lines.append("}")
        return "\n".join(lines)


def digraph_of(P: SignPattern) -> SignedDigraph:
    return SignedDigraph.of_pattern(P)


# ---------------------------------------------------------------------------
# strong components / simplification

def strong_components(G: SignedDigraph) -> tuple[tuple[int, ...], ...]:
    """SCC partition (Tarjan, iterative), ordered by smallest member vertex."""
    succ = G.successors_with_loops()
    n = G.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return tuple(sorted(comps))


def is_irreducible(P: SignPattern) -> bool:
    """n >= 2 patterns are irreducible iff the digraph is strongly connected."""
    return len(strong_components(SignedDigraph.of_pattern(P))) == 1


def simplify(P: SignPattern) -> SignPattern:
    """Zero every entry whose arc joins two distinct strong components.

    The surviving arcs are exactly those lying on a cycle, so the sepr-set
    is unchanged.  Idempotent; loops are 1-cycles and always survive.
    """
    G = SignedDigraph.of_pattern(P)
    comp_of = [0] * P.n
    for ci, comp in enumerate(strong_components(G)):
        for v in comp:
            comp_of[v] = ci
    rows = [
        tuple(
            s if (i == j or comp_of[i] == comp_of[j]) else Sign.ZERO
            for j, s in enumerate(row)
        )
        for i, row in enumerate(P.rows)
    ]
    return SignPattern(tuple(rows))


# ---------------------------------------------------------------------------
# cycles

class CycleCapExceeded(OrderGuardError):
    pass


def simple_cycles(G: SignedDigraph, cap: int = SIMPLE_CYCLE_CAP) -> Iterator[tuple[int, ...]]:
    """All simple directed cycles, each rooted at its smallest vertex.

    Loops are length-1 cycles.  Raises CycleCapExceeded past `cap` cycles.
    """
    succ = G.successors_with_loops()
    count = 0
    for root in range(G.n):
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
                if count > cap:
                    raise CycleCapExceeded(f"more than {cap} simple cycles")
                yield tuple(path)
                continue
            if w < root or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            iters.append(iter(succ[w]))


def _cycle_signs(G: SignedDigraph, cycle: tuple[int, ...]) -> tuple[Sign, Sign]:
    """(product of arc signs, signed cycle product) for a simple cycle."""
    sign_at = {(i, j): s for i, j, s in G.arcs}
    prod = Sign.PLUS
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        prod = prod * sign_at[(a, b)]
    signed = prod if len(cycle) % 2 == 1 else -prod
    return prod, signed


@dataclass(frozen=True)
class CycleReport:
    max_simple_cycle_length: int
    composite_cycle_orders: frozenset[int]
    signed_product_signs_by_order: dict[int, frozenset[Sign]]


def cycle_report(G: SignedDigraph, max_order: Optional[int] = None) -> CycleReport:
    """Cycle-length spectrum of a signed digraph.

    Composite-cycle data is read off determinant terms of principal
    subpatterns: an order-k composite cycle is exactly a nonzero term of
    some k x k principal minor, and its signed product is the term's sign.
    """
    n = G.n
    if max_order is None:
        max_order = n
    if not 0 <= max_order <= n:
        raise ValueError("max_order out of range")
    longest = 0
    for cyc in simple_cycles(G):
        longest = max(longest, len(cyc))
    P = G.to_pattern()
    orders = set()
    signs_by_order: dict[int, frozenset[Sign]] = {}
    for k in range(1, max_order + 1):
        present: set[Sign] = set()
        for mask in subsets_of_size(n, k):
            d = signed_det_masked(P, mask)
            if d.has_positive_term:
                present.add(Sign.PLUS)
            if d.has_negative_term:
                present.add(Sign.MINUS)
            if len(present) == 2:
                break
        if present:
            orders.add(k)
            signs_by_order[k] = frozenset(present)
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
    G = SignedDigraph.of_pattern(P)
    for cyc in simple_cycles(G):
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
    if not signed_det_masked(P, full_mask(n)).has_term:
        return StabilityVerdict(False, "combinatorially singular: no nonzero determinant term")
    for beta in range(1, 1 << n):
        bidx = mask_indices(beta)
        if any(P.rows[i][i] is not Sign.ZERO for i in bidx):
            continue
        if any(all(P.rows[i][j] is Sign.ZERO for j in bidx) for i in bidx):
            continue
        comp = [i for i in range(n) if not beta & (1 << i)]
        if any(
            sum(1 for j in bidx if P.rows[i][j] is not Sign.ZERO) == 1 for i in comp
        ):
            continue
        pretty = "{" + ",".join(str(i + 1) for i in bidx) + "}"
        return StabilityVerdict(False, f"index set {pretty} admits sustained oscillation")
    return StabilityVerdict(True)


# ---------------------------------------------------------------------------
# matching number

def _greedy_forest_matching(n: int, edges: Iterable[tuple[int, int]]) -> int:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    size = 0
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if len(adj[v]) == 1:
                u = next(iter(adj[v]))
                for w in list(adj[u]):
                    adj[w].discard(u)
                for w in list(adj[v]):
                    adj[w].discard(v)
                adj[u].clear()
                adj[v].clear()
                alive.discard(u)
                alive.discard(v)
                size += 1
                changed = True
                break
        if not changed:
            isolated = [v for v in alive if not adj[v]]
            for v in isolated:
                alive.discard(v)
    return size


def _is_forest(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
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


def matching_number(G: SignedDigraph) -> int:
    """Maximum matching of the underlying loopless graph.

    Forests are solved greedily from the leaves; everything else uses an
    exact DP over vertex subsets (guarded by order).
    """
    n = G.n
    edges = G.underlying_edges()
    if _is_forest(n, edges):
        return _greedy_forest_matching(n, edges)
    if n > MATCHING_ORDER_GUARD:
        raise OrderGuardError(f"matching number limited to order {MATCHING_ORDER_GUARD}")
    nb = [0] * n
    for a, b in edges:
        nb[a] |= 1 << b
        nb[b] |= 1 << a
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
# cycle sign classification

class CycleSignStructure(Enum):
    ALL_SIGNED_CYCLE_PRODUCTS_POSITIVE = "all-signed-cycle-products-positive"
    ALL_CYCLE_PRODUCTS_NEGATIVE = "all-cycle-products-negative"
    SIGNED_PRODUCTS_MATCH_PARITY = "signed-products-match-parity"
    MIXED = "mixed"


def classify_cycle_sign_structure(P: SignPattern, cap: int = SIMPLE_CYCLE_CAP) -> CycleSignStructure:
    """Classify all simple-cycle products of the pattern's digraph.

    Checked in the order listed in CycleSignStructure; a cycle-free
    digraph satisfies everything vacuously and reports the first tag.
    Note the parity rule (signed k-cycle product = (-1)^k) is equivalent
    to every plain cycle product being negative.
    """
    G = SignedDigraph.of_pattern(P)
    all_signed_pos = True
    all_prod_neg = True
    for cyc in simple_cycles(G, cap):
        prod, signed = _cycle_signs(G, cyc)
        if signed is not Sign.PLUS:
            all_signed_pos = False
        if prod is not Sign.MINUS:
            all_prod_neg = False
        if not (all_signed_pos or all_prod_neg):
            return CycleSignStructure.MIXED
    if all_signed_pos:
        return CycleSignStructure.ALL_SIGNED_CYCLE_PRODUCTS_POSITIVE
    if all_prod_neg:
        return CycleSignStructure.ALL_CYCLE_PRODUCTS_NEGATIVE
    return CycleSignStructure.MIXED


def all_cycle_products_negative(P: SignPattern) -> bool:
    G = SignedDigraph.of_pattern(P)
    return all(_cycle_signs(G, c)[0] is Sign.MINUS for c in simple_cycles(G))


def all_signed_cycle_products_positive(P: SignPattern) -> bool:
    G = SignedDigraph.of_pattern(P)
    return all(_cycle_signs(G, c)[1] is Sign.PLUS for c in simple_cycles(G))


# ---------------------------------------------------------------------------
# named families

@dataclass(frozen=True)
class DigraphFamily:
    """A named small digraph shape plus a sign-assignment preset.

    kind: "path", "star", "cycle", "complete", or "leaf-loop-star".
    loops: for paths one of "none"/"one"/"both"/"all"; for stars
      "none"/"center"; for complete "none"/"one"; for cycles a loop count.
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
        if k < 1:
            raise ValueError("cycle needs at least 1 vertex")
        for i in range(k):
            rows[i][(i + 1) % k] = arrow
        nloops = family.loops if isinstance(family.loops, int) else 0
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


def cycle_pattern(k: int, loops: int = 0, preset: str = "skew") -> SignPattern:
    return make_family(DigraphFamily("cycle", k, loops, preset))


def complete_pattern(k: int, loops: str = "none", preset: str = "symmetric-positive") -> SignPattern:
    return make_family(DigraphFamily("complete", k, loops, preset))


def leaf_loop_star_pattern(k: int, preset: str = "symmetric-positive") -> SignPattern:
    return make_family(DigraphFamily("leaf-loop-star", k, "none", preset))
