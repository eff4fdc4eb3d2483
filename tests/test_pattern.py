"""Sign patterns: parsing, subpatterns, signed determinants, bigraphs."""
import random
from itertools import permutations, product
from time import perf_counter

import pytest

from seprkit.pattern import (
    DET_ORDER_GUARD,
    DetSummary,
    OrderGuardError,
    PatternParseError,
    SignPattern,
    bigraph,
    full_mask,
    has_perfect_matching,
    is_ambiguous,
    mask_from,
    mask_indices,
    parse_pattern,
    principal_term_signs,
    signed_det,
    signed_det_masked,
    subpattern,
    subsets_of_size,
    _LAPLACE_PLAN_ORDER,
    _laplace_plan,
    _masks_by_size,
    _order_signs,
    _term_signs,
)
from seprkit.realize import (
    MagnitudeGrid,
    dominated_realization,
    grid_realizations,
    sweep_sepr_table,
    zero_minor_realization,
)
from seprkit.signs import AmbSign, Sign


def rand_pattern(rng, n, zero_weight=1):
    choices = [Sign.ZERO] * zero_weight + [Sign.PLUS, Sign.MINUS]
    return SignPattern(tuple(tuple(rng.choice(choices) for _ in range(n))
                             for _ in range(n)))


def test_parse_basic():
    P = parse_pattern("0+\n-0")
    assert P.entry(0, 1) is Sign.PLUS
    assert P.entry(1, 0) is Sign.MINUS
    assert P.entry(0, 0) is Sign.ZERO
    assert P.to_text() == "0+\n-0"


def test_parse_whitespace_ok():
    assert parse_pattern(" 0 +\n- 0 ") == parse_pattern("0+\n-0")


def test_parse_errors():
    with pytest.raises(PatternParseError):
        parse_pattern("0+\n-00")  # ragged
    with pytest.raises(PatternParseError) as e:
        parse_pattern("0+\n-x")
    assert e.value.line == 2 and e.value.col == 2
    with pytest.raises(PatternParseError):
        parse_pattern("0+\n-0\n+-")  # not square
    # positions count the input's own lines and columns, blank and indented ones too
    for text, line, col in (("0+\n\n-x", 3, 2),
                            ("  0+\n  -x", 2, 4),
                            ("++\n+++", 2, 3),  # a long row: its first extra sign
                            ("+ +\n+ + +", 2, 5),
                            ("+++\n + +\n+++", 2, 5)):  # a short row: just past its last sign
        with pytest.raises(PatternParseError) as e:
            parse_pattern(text)
        assert (e.value.line, e.value.col) == (line, col), text


def test_json_roundtrip():
    P = parse_pattern("0+-\n-0+\n+-0")
    assert SignPattern.from_json(P.to_json()) == P


def test_subpattern_full_and_out_of_range():
    P = parse_pattern("0+\n-0")
    assert subpattern(P, full_mask(2), full_mask(2)) == P
    with pytest.raises(IndexError):
        P.submatrix((0, 2), (0, 1))


def test_with_entry_stores_a_sign():
    # a raw 0 compared equal to Sign.ZERO, yet the term walk, which tests
    # identity with Sign.ZERO, read it as a nonzero entry
    P = parse_pattern("++\n++")
    for zero in (0, Sign.ZERO):
        Q = P.with_entry(0, 1, zero)
        assert Q == parse_pattern("+0\n++") and Q.entry(0, 1) is Sign.ZERO
        assert signed_det(Q).value is AmbSign.PLUS
    assert P.with_entry(1, 1, -3).entry(1, 1) is Sign.MINUS


def test_raw_entries_are_read_as_signs():
    # raw ints compared equal to their Signs, yet the term walk, which tests
    # identity, read the 0 as a nonzero entry and the sweep had no row for it
    P, twin = SignPattern(((1, 0), (1, 1))), parse_pattern("+0\n++")
    assert P == twin and hash(P) == hash(twin) and P.entry(0, 1) is Sign.ZERO
    assert signed_det(P).value is AmbSign.PLUS
    assert P.nonzero_positions() == twin.nonzero_positions()
    assert sweep_sepr_table(P, budget=30) == sweep_sepr_table(twin, budget=30)
    assert SignPattern(((3, -2), (0, Sign.PLUS))) == parse_pattern("+-\n0+")


def test_submatrix_needs_equal_index_sets():
    P = parse_pattern("0+-\n-0+\n+-0")
    with pytest.raises(ValueError, match="as many rows as columns"):
        P.submatrix((0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="as many rows as columns"):
        subpattern(P, 0b111, 0b1)
    assert P.submatrix((0, 2), (1, 2)) == parse_pattern("+-\n-0")


def test_subpattern_composition():
    rng = random.Random(3)
    for _ in range(50):
        P = rand_pattern(rng, 5)
        outer = (0, 2, 3, 4)
        inner = (1, 2, 3)  # relative to outer
        direct = P.submatrix([outer[i] for i in inner], [outer[i] for i in inner])
        nested = P.submatrix(outer, outer).submatrix(inner, inner)
        assert direct == nested


def test_signed_det_reference_patterns():
    assert signed_det(parse_pattern("++\n+-")).value is AmbSign.MINUS
    assert signed_det(parse_pattern("++\n--")).value is AmbSign.AMBIGUOUS
    assert signed_det(SignPattern.zero(3)).value is AmbSign.ZERO
    assert signed_det(parse_pattern("0+\n-0")).value is AmbSign.PLUS


def test_signed_det_term_flags():
    d = signed_det(parse_pattern("++\n--"))
    assert d.has_positive_term and d.has_negative_term
    d = signed_det(SignPattern.zero(2))
    assert not d.has_term


def test_order_zero_det_is_plus():
    d = signed_det_masked(parse_pattern("0+\n-0"), 0, 0)
    assert d.value is AmbSign.PLUS
    assert d.has_positive_term and not d.has_negative_term


def test_is_ambiguous_examples():
    assert is_ambiguous(parse_pattern("++\n--"))
    assert not is_ambiguous(parse_pattern("0+\n-0"))
    # 3x3 principal subpattern of the reference 4x4 is ambiguous
    P = parse_pattern("++00\n0-+0\n+0++\n00-0")
    assert is_ambiguous(P.principal(mask_from([0, 1, 2])))
    assert not is_ambiguous(P)


def test_order_guard():
    with pytest.raises(OrderGuardError):
        signed_det(SignPattern.zero(17))


def _expansion_signs(P, ridx, cidx):
    """Brute force: the term signs of the full permutation expansion."""
    signs = set()
    for perm in permutations(range(len(cidx))):
        inversions = sum(perm[a] > perm[b] for b in range(len(perm)) for a in range(b))
        term = -1 if inversions & 1 else 1
        for i, p in zip(ridx, perm):
            term *= int(P.rows[i][cidx[p]])
        if term:
            signs.add(term)
    return 1 in signs, -1 in signs


def test_signed_det_matches_permutation_expansion():
    # and the principal term-sign table agrees on every principal mask
    rng = random.Random(15)
    kinds = set()
    for n in range(1, 8):
        for density in (0.3, 0.6, 1.0):
            for _ in range(6):
                P = SignPattern.from_rows(
                    [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)]
                     for _ in range(n)])
                pairs = [(full_mask(n), None)]
                for _ in range(5):
                    k = rng.randint(0, n)
                    rm = mask_from(rng.sample(range(n), k))
                    pairs += [(rm, None), (rm, mask_from(rng.sample(range(n), k)))]
                for rm, cm in pairs:
                    d = signed_det_masked(P, rm, cm)
                    want = _expansion_signs(P, mask_indices(rm), mask_indices(rm if cm is None else cm))
                    assert (d.has_positive_term, d.has_negative_term) == want, (P.to_text(), rm, cm)
                    kinds.add((rm.bit_count(), cm is None or cm == rm))
                table = principal_term_signs(P)
                assert len(table) == 1 << n
                for mask, signs in enumerate(table):
                    idx = mask_indices(mask)
                    want = _expansion_signs(P, idx, idx)
                    assert signs == want[0] | want[1] << 1, (P.to_text(), mask)
    # every index-set size 0..7 occurs principal, and every size 1..6 not
    assert {k for k, principal in kinds if principal} == set(range(8))
    assert {k for k, principal in kinds if not principal} == set(range(1, 7))


def _plan_matches_recursion(P):
    """The principal table against `_term_signs` on a fresh memo."""
    ref: dict = {}
    assert principal_term_signs(P) == [_term_signs(P.rows, ref, m, m) for m in range(1 << P.n)], \
        P.to_text()


def test_principal_plan_matches_recursion():
    # every pattern of orders 1-3, then seeded patterns at orders 4-6 with a
    # zero row or column among them; past the plan's order (7, 8) the table
    # comes from the recursion itself
    assert _LAPLACE_PLAN_ORDER == 6
    with pytest.raises(ValueError):
        _laplace_plan(7)  # no plan is built, or cached, past the cut-off
    signs = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
    count = 0
    for n in (1, 2, 3):
        for cells in product(signs, repeat=n * n):
            _plan_matches_recursion(SignPattern(tuple(zip(*[iter(cells)] * n))))
            count += 1
    assert count == 3 + 3**4 + 3**9
    rng = random.Random(26)
    for n in (4, 5, 6):
        for density in (0.3, 0.6, 1.0):
            for i in range(12):
                rows = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                if i % 4 == 1:
                    rows[rng.randrange(n)] = [0] * n
                elif i % 4 == 2:
                    z = rng.randrange(n)
                    rows = [[0 if j == z else x for j, x in enumerate(row)] for row in rows]
                _plan_matches_recursion(SignPattern.from_rows(rows))
    for n in (7, 8):
        for _ in range(3):
            P = rand_pattern(rng, n)
            assert principal_term_signs(P) == [_term_signs(P.rows, {}, m, m) for m in range(1 << n)]


def _split_by_mask(signs, n, k):
    """Order k of a principal term-sign table read mask by mask, in
    lexicographic order of the index sets: (sign bits, ambiguous masks)."""
    masks = list(subsets_of_size(n, k))
    bits = sum(bit for bit, s in ((1, 1), (2, 2), (4, 0)) if any(signs[m] == s for m in masks))
    return bits, [m for m in masks if signs[m] == 3]


def test_order_signs_split_the_principal_table():
    # every order of every order-3 pattern, then seeded patterns at orders
    # 4-8 with a zero row or column among them, on the table and on a dict
    # of one order (as fixed_term passes it); the ambiguous masks keep
    # `_masks_by_size` order, which picks the minors the witness search targets
    seen_bits, seen_ambiguous = set(), 0

    def check(P):
        nonlocal seen_ambiguous
        signs = principal_term_signs(P)
        for k in range(1, P.n + 1):
            masks = _masks_by_size(P.n)[k]
            want = _split_by_mask(signs, P.n, k)
            assert _order_signs(signs, masks) == want, (P.to_text(), k)
            assert _order_signs({m: signs[m] for m in masks}, masks) == want, (P.to_text(), k)
            seen_bits.add(want[0])
            seen_ambiguous += len(want[1]) > 1

    cells = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
    for entries in product(cells, repeat=9):
        check(SignPattern(tuple(zip(*[iter(entries)] * 3))))
    rng = random.Random(27)
    for n in range(4, 9):
        for density in (0.3, 0.6, 1.0):
            for i in range(4):
                rows = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                if i == 1:
                    rows[rng.randrange(n)] = [0] * n
                elif i == 2:
                    z = rng.randrange(n)
                    rows = [[0 if j == z else x for j, x in enumerate(row)] for row in rows]
                check(SignPattern.from_rows(rows))
    assert seen_bits == set(range(8)) and seen_ambiguous > 100


def _term_free_families(n):
    """Dense all-plus patterns without a nonzero term: the slowest known."""
    zero_column = [[0] + [1] * (n - 1) for _ in range(n)]
    zero_last_row = [[1] * n for _ in range(n - 1)] + [[0] * n]
    shared_column = [[1] * n for _ in range(n - 2)] + [[1] + [0] * (n - 1)] * 2
    return [SignPattern.from_rows(rows) for rows in (zero_column, zero_last_row, shared_column)]


def test_signed_det_guard_budget():
    # at the order guard, each worst family settles well inside the ceiling
    ceiling_s = 10.0
    for P in _term_free_families(DET_ORDER_GUARD):
        t0 = perf_counter()
        d = signed_det(P)
        elapsed = perf_counter() - t0
        assert d.value is AmbSign.ZERO and not d.has_term
        assert elapsed < ceiling_s, (P.to_text(), elapsed)
        assert not has_perfect_matching(bigraph(P))


def test_signed_det_empty_line_guard():
    # a dense +- pattern with an all-zero last column, and its transpose, at
    # the order guard: the term-sign recursion alone takes about 0.17 s and
    # 0.3 s on them (2-core x86-64, Python 3.11); the empty line answers at once
    ceiling_s = 0.05
    rng = random.Random(16)
    n = DET_ORDER_GUARD
    P = SignPattern.from_rows([[0 if j == n - 1 else rng.choice((1, -1)) for j in range(n)]
                               for _ in range(n)])
    for Q in (P, P.transpose()):
        t0 = perf_counter()
        d = signed_det(Q)
        elapsed = perf_counter() - t0
        assert d == DetSummary.from_signs(0)
        assert elapsed < ceiling_s, (Q.to_text(), elapsed)


def test_signed_det_empty_line_matches_recursion():
    # on sparse and term-free patterns (an all-zero row or column, or k rows
    # confined to k - 1 columns), both entry points answer as the bare
    # term-sign recursion does, and a term exists iff a perfect matching does
    rng = random.Random(18)
    for n in range(2, 13):
        for kind in ("sparse", "zero line", "hall"):
            for _ in range(6):
                density = 0.3 if kind == "sparse" else 1.0
                rows = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                if kind == "zero line":
                    z = rng.randrange(n)
                    rows = [[0 if j == z else x for j, x in enumerate(row)] for row in rows]
                    rows = [list(col) for col in zip(*rows)] if rng.random() < 0.5 else rows
                elif kind == "hall":
                    k = rng.randint(2, n)
                    cols = set(rng.sample(range(n), k - 1))
                    for i in rng.sample(range(n), k):
                        rows[i] = [x if j in cols else 0 for j, x in enumerate(rows[i])]
                P = SignPattern.from_rows(rows)
                d, full = signed_det(P), full_mask(n)
                assert d == DetSummary.from_signs(_term_signs(P.rows, {}, full, full))
                assert d.has_term == has_perfect_matching(bigraph(P)), P.to_text()
                if kind != "sparse":
                    assert not d.has_term, P.to_text()
                for _ in range(4):
                    k = rng.randint(1, n)
                    rm, cm = mask_from(rng.sample(range(n), k)), mask_from(rng.sample(range(n), k))
                    d = signed_det_masked(P, rm, cm)
                    assert d == DetSummary.from_signs(_term_signs(P.rows, {}, rm, cm))
                    assert d.has_term == has_perfect_matching(bigraph(subpattern(P, rm, cm)))


def test_ambiguous_patterns_realize_both_signs():
    rng = random.Random(11)
    seen = 0
    while seen < 40:
        P = rand_pattern(rng, rng.randint(2, 4))
        if not is_ambiguous(P):
            continue
        seen += 1
        m = full_mask(P.n)
        Bp = dominated_realization(P, m, Sign.PLUS)
        Bm = dominated_realization(P, m, Sign.MINUS)
        assert Bp.det() > 0 and Bm.det() < 0
        assert Bp.is_realization_of(P) and Bm.is_realization_of(P)


def test_signed_patterns_have_constant_det_sign():
    rng = random.Random(12)
    grid = MagnitudeGrid.of(1, 2, "1/2")
    for _ in range(150):
        P = rand_pattern(rng, rng.randint(1, 3))
        d = signed_det(P)
        if d.value is AmbSign.AMBIGUOUS:
            continue
        want = {AmbSign.PLUS: 1, AmbSign.MINUS: -1, AmbSign.ZERO: 0}[d.value]
        for B in grid_realizations(P, grid, budget=30):
            det = B.det()
            assert (det > 0) - (det < 0) == want


def test_bigraph_and_matching():
    P = parse_pattern("+00\n0+0\n00+")
    assert has_perfect_matching(bigraph(P))
    # zero column kills the matching
    P = parse_pattern("+0+\n+0+\n+0+")
    assert not has_perfect_matching(bigraph(P))


def test_matching_iff_nonzero_term():
    rng = random.Random(13)
    for _ in range(400):
        P = rand_pattern(rng, rng.randint(1, 5), zero_weight=2)
        assert has_perfect_matching(bigraph(P)) == signed_det(P).has_term


def hall_condition_holds(adj):
    """Brute-force |S| <= |N(S)| over all row sets S of the bigraph `adj`."""
    for smask in range(1 << len(adj)):
        nb = 0
        for u in mask_indices(smask):
            for v in adj[u]:
                nb |= 1 << v
        if smask.bit_count() > nb.bit_count():
            return False
    return True


def test_matching_iff_hall():
    rng = random.Random(14)
    for _ in range(120):
        P = rand_pattern(rng, rng.randint(1, 6), zero_weight=2)
        adj = bigraph(P)
        assert has_perfect_matching(adj) == hall_condition_holds(adj)


def test_sign_nonsingular_entry_bound():
    # patterns of order 3 with a nonzero signed determinant never exceed
    # (n^2 + 3n - 2) / 2 nonzero entries; exhaustive cross-check
    n = 3
    bound = (n * n + 3 * n - 2) // 2
    from itertools import product

    for cells in product((Sign.ZERO, Sign.PLUS, Sign.MINUS), repeat=n * n):
        P = SignPattern(tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
        if signed_det(P).value in (AmbSign.PLUS, AmbSign.MINUS):
            assert len(P.nonzero_positions()) <= bound


def test_direct_sum():
    P = parse_pattern("0+\n-0")
    Q = parse_pattern("+")
    S = P.direct_sum(Q)
    assert S.to_text() == "0+0\n-00\n00+"


def test_mask_helpers():
    assert mask_from([0, 2]) == 0b101
    assert mask_indices(0b1011) == (0, 1, 3)
    assert list(subsets_of_size(3, 2)) == [0b011, 0b101, 0b110]


def test_mask_indices_matches_bit_scan():
    rng = random.Random(60)
    masks = [0, 1, 1 << 59, (1 << 60) - 1]
    masks += [rng.getrandbits(w) for w in (4, 10, 20, 40, 60) for _ in range(50)]
    # sparse 60-bit masks: a few set bits spread over the whole width
    masks += [sum(1 << b for b in rng.sample(range(60), rng.randint(1, 5))) for _ in range(200)]
    for m in masks:
        assert mask_indices(m) == tuple(i for i in range(m.bit_length()) if m >> i & 1), m


def test_masks_outside_the_pattern_raise_value_error():
    P = parse_pattern("++0\n-+-\n0-+")
    calls = [
        lambda: signed_det_masked(P, 0b1000),
        lambda: signed_det_masked(P, 0b0110, 0b1100),
        lambda: signed_det_masked(P, -1),
        lambda: dominated_realization(P, 0b1010, Sign.PLUS),
        lambda: zero_minor_realization(P, 0b1010),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="index set outside the pattern"):
            call()
    # the highest in-range bit is accepted
    assert signed_det_masked(P, 0b110).value is AmbSign.AMBIGUOUS
    assert signed_det_masked(P, 0b100, 0b010).value is AmbSign.MINUS


def test_negative_masks_raise_value_error_at_once():
    # a negative mask has a low bit at every step, so the bit scan of
    # mask_indices never ended; complement_principal read -2 as {0}
    P = parse_pattern("+-\n0+")
    calls = [
        lambda: mask_indices(-1),
        lambda: P.principal(-1),
        lambda: P.complement_principal(-2),
        lambda: subpattern(P, -1, -1),
        lambda: subpattern(P, 0b11, -2),
    ]
    for call in calls:
        t0 = perf_counter()
        with pytest.raises(ValueError, match="index set outside the pattern"):
            call()
        assert perf_counter() - t0 < 0.1
    assert P.complement_principal(0b01) == P.principal(0b10)
    assert P.complement_principal(0) == P
