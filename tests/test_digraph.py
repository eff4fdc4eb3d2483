"""Digraph structure: components, simplification, cycles, stability, families."""
import random
from itertools import product

import pytest

from seprkit import digraph
from seprkit.digraph import (
    MATCHING_ORDER_GUARD,
    CycleCapExceeded,
    DigraphFamily,
    StabilityVerdict,
    all_cycle_products_negative,
    cycle_report,
    is_irreducible,
    is_sign_semi_stable,
    is_sign_stable_irreducible,
    make_family,
    matching_number,
    path_pattern,
    simple_cycles,
    simplify,
    star_pattern,
    strong_components,
    to_dot,
)
from seprkit.pattern import (
    DET_ORDER_GUARD,
    OrderGuardError,
    SignPattern,
    bigraph,
    has_perfect_matching,
    is_ambiguous,
    mask_indices,
    max_bipartite_matching,
    parse_pattern,
    principal_term_signs,
    signed_det_masked,
    subsets_of_size,
)
from seprkit.signs import AmbSign, Sign


def reachability_components(P):
    """Brute-force SCC oracle via transitive closure."""
    n = P.n
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and P.rows[i][j] is not Sign.ZERO:
                reach[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    comps = {}
    for i in range(n):
        key = frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        comps[key] = True
    return tuple(sorted(tuple(sorted(c)) for c in comps))


def test_strong_components_examples():
    path = path_pattern(4)
    assert strong_components(path) == ((0, 1, 2, 3),)
    upper = parse_pattern("0++\n00+\n000")
    assert strong_components(upper) == ((0,), (1,), (2,))
    ref = parse_pattern("++00\n0-+0\n+0++\n00-0")
    assert strong_components(ref) == reachability_components(ref)


def test_strong_components_against_oracle():
    # simplify keeps an off-diagonal arc iff both ends share an oracle block
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        zeros = rng.choice((2, 4, 8))
        P = SignPattern(tuple(
            tuple(rng.choice([Sign.ZERO] * zeros + [Sign.PLUS, Sign.MINUS])
                  for _ in range(n)) for _ in range(n)))
        comps = reachability_components(P)
        assert strong_components(P) == comps
        block = {v: c for c in comps for v in c}
        S = simplify(P)
        for i in range(n):
            for j in range(n):
                keep = i == j or block[i] == block[j]
                assert S.rows[i][j] == (P.rows[i][j] if keep else Sign.ZERO), (P.to_text(), i, j)


def test_simplify_examples():
    irr = parse_pattern("0+\n-0")
    assert simplify(irr) == irr
    block = parse_pattern("0++\n-0+\n000")
    assert simplify(block).to_text() == "0+0\n-00\n000"
    # idempotent, keeps loops
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 5)
        P = SignPattern(tuple(
            tuple(rng.choice([Sign.ZERO, Sign.PLUS, Sign.MINUS]) for _ in range(n))
            for _ in range(n)))
        S = simplify(P)
        assert simplify(S) == S
        assert all(S.rows[i][i] == P.rows[i][i] for i in range(n))


def test_simple_cycles():
    assert sorted(map(len, simple_cycles(make_family(DigraphFamily("cycle", 4, 0, "skew"))))) == [4]
    assert sorted(map(len, simple_cycles(parse_pattern("-+\n-0")))) == [1, 2]


def test_simple_cycle_cap(monkeypatch):
    # 10 two-cycles, 20 + 30 + 24 longer ones
    K5 = make_family(DigraphFamily("complete", 5, "none", "symmetric-positive"))
    assert len(list(simple_cycles(K5))) == 84
    assert issubclass(CycleCapExceeded, OrderGuardError)
    monkeypatch.setattr(digraph, "SIMPLE_CYCLE_CAP", 50)
    with pytest.raises(CycleCapExceeded):
        list(simple_cycles(K5))
    with pytest.raises(CycleCapExceeded):
        cycle_report(K5)
    K4 = make_family(DigraphFamily("complete", 4, "none", "symmetric-positive"))
    assert len(list(simple_cycles(K4))) == 20  # under the cap


def composite_orders_oracle(P):
    """Disjoint simple-cycle packing via subset DP (independent of minors)."""
    masks = []
    for cyc in simple_cycles(P):
        m = 0
        for v in cyc:
            m |= 1 << v
        masks.append(m)
    ach = bytearray(1 << P.n)
    ach[0] = 1
    for mask in range(1 << P.n):
        if not ach[mask]:
            continue
        for cm in masks:
            if not mask & cm:
                ach[mask | cm] = 1
    return frozenset(m.bit_count() for m in range(1, 1 << P.n) if ach[m])


def test_cycle_report_examples():
    rep = cycle_report(make_family(DigraphFamily("cycle", 5, 0, "skew")))
    assert rep.max_simple_cycle_length == 5
    assert rep.composite_cycle_orders == frozenset({5})

    two_paths = path_pattern(2, "both").direct_sum(path_pattern(2, "both"))
    rep = cycle_report(two_paths)
    assert rep.composite_cycle_orders == frozenset({1, 2, 3, 4})

    ref = parse_pattern("0-00\n+0+0\n000+\n+000")
    assert cycle_report(ref).max_simple_cycle_length == 4

    with pytest.raises(ValueError):
        cycle_report(ref, max_order=7)
    limited = cycle_report(ref, max_order=2)
    assert limited.composite_cycle_orders == frozenset({2})


def test_cycle_report_against_packing_oracle():
    rng = random.Random(8)
    for _ in range(1500):
        n = rng.randint(1, 4)
        P = SignPattern(tuple(
            tuple(rng.choice([Sign.ZERO, Sign.ZERO, Sign.PLUS, Sign.MINUS])
                  for _ in range(n)) for _ in range(n)))
        rep = cycle_report(P)
        assert rep.composite_cycle_orders == composite_orders_oracle(P)
        # signed products match determinant term signs
        for k, signs in rep.signed_product_signs_by_order.items():
            seen = set()
            for m in subsets_of_size(n, k):
                d = signed_det_masked(P, m)
                if d.has_positive_term:
                    seen.add(Sign.PLUS)
                if d.has_negative_term:
                    seen.add(Sign.MINUS)
            assert signs == frozenset(seen)


def test_cycle_report_equals_per_mask_reference():
    # one shared term-sign memo gives the signed-product signs a fresh
    # signed_det_masked per principal mask gives, at every max_order
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.choice((0.2, 0.4, 0.7, 1.0))
        P = SignPattern(tuple(
            tuple(rng.choice((Sign.PLUS, Sign.MINUS)) if rng.random() < density else Sign.ZERO
                  for _ in range(n)) for _ in range(n)))
        want = {}
        for k in range(1, n + 1):
            seen = set()
            for m in subsets_of_size(n, k):
                d = signed_det_masked(P, m)
                if d.has_positive_term:
                    seen.add(Sign.PLUS)
                if d.has_negative_term:
                    seen.add(Sign.MINUS)
            if seen:
                want[k] = frozenset(seen)
        for max_order in range(n + 1):
            rep = cycle_report(P, max_order)
            assert rep.signed_product_signs_by_order == \
                {k: s for k, s in want.items() if k <= max_order}, (P.to_text(), max_order)
            assert rep.composite_cycle_orders == frozenset(k for k in want if k <= max_order)


def test_cycle_report_order_guard():
    # past DET_ORDER_GUARD the guard trips before any cycle or minor is read;
    # a low max_order still reports
    P = make_family(DigraphFamily("cycle", DET_ORDER_GUARD + 1, 0, "skew"))
    with pytest.raises(OrderGuardError):
        cycle_report(P, max_order=DET_ORDER_GUARD + 1)
    with pytest.raises(OrderGuardError):
        cycle_report(P)
    rep = cycle_report(P, max_order=3)
    assert rep.max_simple_cycle_length == DET_ORDER_GUARD + 1
    assert rep.composite_cycle_orders == frozenset()


def test_semistable_examples():
    P = parse_pattern("0-00\n+0+0\n000+\n+000")
    v = is_sign_semi_stable(P)
    assert not v and "length" in v.reason
    Q = parse_pattern("0-00\n+0-0\n0+0-\n00+0")
    assert is_sign_semi_stable(Q)
    assert not is_sign_semi_stable(parse_pattern("+"))
    bad_pair = parse_pattern("0+\n+0")
    v = is_sign_semi_stable(bad_pair)
    assert not v and "product" in v.reason


def test_semistable_consequences_exhaustive_order3():
    """Strong components are ditrees, the simplified digraph is a diforest,
    minors are 0 or (-1)^k, and principal subpatterns stay semi-stable."""
    from itertools import product as iproduct

    count = 0
    for cells in iproduct((Sign.ZERO, Sign.PLUS, Sign.MINUS), repeat=9):
        P = SignPattern(tuple(tuple(cells[i * 3:(i + 1) * 3]) for i in range(3)))
        if not is_sign_semi_stable(P):
            continue
        count += 1
        S = simplify(P)
        # every strong component of the simplified digraph is a ditree:
        # underlying edges within components form a forest
        edges = {(min(i, j), max(i, j)) for i, j in S.nonzero_positions() if i != j}
        assert len(edges) <= 2  # a forest on 3 vertices
        for k in range(1, 4):
            for m in subsets_of_size(3, k):
                d = signed_det_masked(P, m)
                want = AmbSign.MINUS if k % 2 else AmbSign.PLUS
                assert d.value in (AmbSign.ZERO, want)
                sub = P.principal(m)
                assert is_sign_semi_stable(sub)
    assert count == 1784


def test_stability_pair():
    P = parse_pattern("-+000\n-0+00\n0-0+0\n00-0+\n000-0")
    Q = parse_pattern("0+000\n-0+00\n0--+0\n00-0+\n000-0")
    assert is_sign_stable_irreducible(P)
    v = is_sign_stable_irreducible(Q)
    assert not v and v.reason
    with pytest.raises(ValueError):
        is_sign_stable_irreducible(parse_pattern("0+\n00"))  # reducible
    # combinatorially singular irreducible semi-stable pattern
    sing = parse_pattern("0+0\n-0+\n0-0")
    v = is_sign_stable_irreducible(sing)
    assert not v and "singular" in v.reason


def stability_scan_reference(P):
    """The index-set scan of is_sign_stable_irreducible over list rows."""
    n = P.n
    semi = is_sign_semi_stable(P)
    if not semi:
        return semi
    if not has_perfect_matching(bigraph(P)):
        return StabilityVerdict(False, "combinatorially singular: no nonzero determinant term")
    for beta in range(1, 1 << n):
        bidx = mask_indices(beta)
        if any(P.rows[i][i] is not Sign.ZERO for i in bidx):
            continue
        if any(all(P.rows[i][j] is Sign.ZERO for j in bidx) for i in bidx):
            continue
        comp = [i for i in range(n) if not beta & (1 << i)]
        if any(sum(1 for j in bidx if P.rows[i][j] is not Sign.ZERO) == 1 for i in comp):
            continue
        pretty = "{" + ",".join(str(i + 1) for i in bidx) + "}"
        return StabilityVerdict(False, f"index set {pretty} admits sustained oscillation")
    return StabilityVerdict(True)


def random_forest(rng, n, p_edge, loops):
    """Doubly directed forest with opposite signs on each pair, negative loops
    with probability `loops`, and shuffled vertex labels."""
    rows = [[Sign.ZERO] * n for _ in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    for v in range(1, n):
        if rng.random() < p_edge:
            a, b = label[v], label[rng.randrange(v)]
            rows[a][b] = rng.choice((Sign.PLUS, Sign.MINUS))
            rows[b][a] = -rows[a][b]
    for v in range(n):
        if rng.random() < loops:
            rows[v][v] = Sign.MINUS
    return SignPattern(tuple(tuple(r) for r in rows))


def test_stability_scan_against_reference():
    # a doubly directed tree with opposite signs on each pair and negative
    # loops is irreducible and semi-stable
    rng = random.Random(23)
    reasons = set()
    for _ in range(1000):
        P = random_forest(rng, rng.randint(1, 10), 1.0, 0.35)
        got = is_sign_stable_irreducible(P)
        want = stability_scan_reference(P)
        assert (got.ok, got.reason) == (want.ok, want.reason), P.to_text()
        reasons.add(got.reason and got.reason.split()[0])
    assert reasons == {None, "combinatorially", "index"}


def test_stability_past_the_det_guard():
    # the stability guard admits orders the signed determinant does not
    P = path_pattern(17, loops="all")
    assert is_sign_stable_irreducible(P)
    v = is_sign_stable_irreducible(path_pattern(17))  # odd path, no loops
    assert not v and "singular" in v.reason


def test_matching_number():
    assert matching_number(path_pattern(4)) == 2
    assert matching_number(star_pattern(5)) == 1
    pairs = path_pattern(2).direct_sum(path_pattern(2)).direct_sum(path_pattern(2))
    assert matching_number(pairs) == 3
    K4 = make_family(DigraphFamily("complete", 4, "none", "symmetric-positive"))
    assert matching_number(K4) == 2
    assert matching_number(SignPattern.zero(3)) == 0
    # forests answer at every order, past MATCHING_ORDER_GUARD too; the
    # bigraph of a loopless doubly directed forest is two copies of it
    rng = random.Random(17)
    for n in range(1, 61):
        for _ in range(3):
            P = random_forest(rng, n, 0.85, 0.0)
            assert 2 * matching_number(P) == max_bipartite_matching(bigraph(P)), \
                P.to_text()
    with pytest.raises(OrderGuardError):
        matching_number(make_family(DigraphFamily("cycle", MATCHING_ORDER_GUARD + 1, 0, "skew")))


def test_all_cycle_products_negative():
    assert all_cycle_products_negative(path_pattern(4))  # every 2-cycle is + times -
    neg = parse_pattern("-+\n-0")  # loop -, 2-cycle product -
    assert all_cycle_products_negative(neg)
    assert not all_cycle_products_negative(parse_pattern("++\n++"))
    assert not all_cycle_products_negative(parse_pattern("-+\n+-"))  # 2-cycle product +
    sns = parse_pattern("-+0\n0-+\n-0-")  # loops -, 3-cycle + + - is -
    assert all_cycle_products_negative(sns)
    assert all_cycle_products_negative(SignPattern.zero(3))  # no cycle at all



def test_cycle_screen_matches_unscreened_and_term_sign_law():
    # two oracles for the loop and 2-cycle screen: every simple cycle's
    # product, unscreened, and the term-sign law (each order-k principal
    # minor has only terms of sign (-1)^k); every pattern of orders 1-3, and
    # 3000 seeded ones at each of orders 4-6, every other one built to pass
    # the screen (diagonal -/0, no off-diagonal pair of one sign)
    def patterns():
        for n in range(1, 4):
            for cells in product((Sign.MINUS, Sign.ZERO, Sign.PLUS), repeat=n * n):
                yield SignPattern(tuple(tuple(cells[i * n:i * n + n]) for i in range(n)))
        rng = random.Random(2502)
        signs = (Sign.MINUS, Sign.ZERO, Sign.PLUS)
        for n in range(4, 7):
            for t in range(3000):
                rows = [[rng.choice(signs) for _ in range(n)] for _ in range(n)]
                if t % 2:
                    for i in range(n):
                        rows[i][i] = rng.choice((Sign.MINUS, Sign.ZERO))
                        for j in range(i + 1, n):
                            if rows[i][j] is rows[j][i] is not Sign.ZERO:
                                rows[j][i] = -rows[i][j]
                yield SignPattern(tuple(map(tuple, rows)))

    count = passed = 0
    for P in patterns():
        got = all_cycle_products_negative(P)
        unscreened = all(digraph._cycle_product(P, c) is Sign.MINUS for c in simple_cycles(P))
        signs = principal_term_signs(P)
        law = all(signs[m] in (0, 2 if m.bit_count() & 1 else 1) for m in range(1, 1 << P.n))
        assert got == unscreened == law, P.to_text()
        count += 1
        passed += got
    assert count == 3 + 3**4 + 3**9 + 9000 and passed >= 1000


def test_make_family_shapes():
    assert star_pattern(4, "center").rows[0][0] is Sign.MINUS
    assert star_pattern(4, "center").to_text() == "-+++\n-000\n-000\n-000"
    c = make_family(DigraphFamily("cycle", 3, 0, "symmetric-positive"))
    assert c.to_text() == "0+0\n00+\n+00"
    lls = make_family(DigraphFamily("leaf-loop-star", 3, "none", "symmetric-positive"))
    assert lls.to_text() == "0++\n++0\n+0+"


def test_family_errors():
    with pytest.raises(ValueError):
        make_family(DigraphFamily("star", 1))
    with pytest.raises(ValueError):
        make_family(DigraphFamily("leaf-loop-star", 2))
    with pytest.raises(ValueError):
        make_family(DigraphFamily("cycle", 3, 5))
    with pytest.raises(ValueError):
        make_family(DigraphFamily("nope", 3))


def test_complete_patterns_ambiguous():
    assert is_ambiguous(make_family(DigraphFamily("complete", 4, "none", "symmetric-positive")))
    assert is_ambiguous(make_family(DigraphFamily("complete", 5, "none", "symmetric-positive")))
    assert is_ambiguous(make_family(DigraphFamily("complete", 3, "one", "symmetric-positive")))
    assert is_ambiguous(make_family(DigraphFamily("complete", 4, "one", "symmetric-positive")))
    assert not is_ambiguous(make_family(DigraphFamily("complete", 3, "none", "symmetric-positive")))


def test_irreducibility():
    assert is_irreducible(make_family(DigraphFamily("cycle", 4, 0, "skew")))
    assert not is_irreducible(parse_pattern("0+\n00"))


def test_dot_export():
    dot = to_dot(parse_pattern("0+\n-0"))
    assert "v0 -> v1" in dot and 'label="+"' in dot
