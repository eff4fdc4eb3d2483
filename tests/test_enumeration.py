"""Family enumeration and the verification harness building blocks."""
from itertools import combinations, permutations, product
from time import perf_counter

import numpy as np
import pytest

from seprkit.analysis import UniqueStatus, fixed_sequence, nonneg_sequence_check, unique_verdict
from seprkit.digraph import _is_forest, is_irreducible, is_sign_semi_stable, simplify
from seprkit.enumeration import (
    EnumerationBudgetExceeded,
    ORDER3_NONNEG_SEQUENCES,
    PatternFamily,
    VerificationReport,
    _forest_edge_sets,
    enumerate_patterns,
    orbit_representatives,
    semistable_sequence,
    simplified_semistable_patterns,
    verify_matrix_anchors,
    verify_symbol_algebra,
    verify_symmetric_nonneg_unique,
    verify_unique_iff_determined,
)
from seprkit.pattern import SignPattern
from seprkit.realize import (
    MagnitudeGrid,
    RationalMatrix,
    _sequence_from_code,
    _sym_sweep,
    sepr_of_matrix,
)
from seprkit.signs import SeprSequence, SeprSymbol, Sign


def test_family_sizes():
    # an alphabet-product family yields exactly its size, and a budget one
    # short of that size is refused up front
    for fam, size in ((PatternFamily(2), 81),
                      (PatternFamily(3), 3**9),
                      (PatternFamily(3, frozenset({"symmetric", "nonnegative"})), 64),
                      (PatternFamily(4, frozenset({"zero-diagonal", "full-off-diagonal"})), 4096),
                      (PatternFamily(2, frozenset({"symmetric"})), 27)):
        assert sum(1 for _ in enumerate_patterns(fam, budget=size)) == size
        with pytest.raises(EnumerationBudgetExceeded):
            list(enumerate_patterns(fam, budget=size - 1))


def test_enumeration_matches_size_and_is_duplicate_free():
    for fam, size in ((PatternFamily(2), 81),
                      (PatternFamily(3, frozenset({"symmetric", "nonnegative"})), 64)):
        pats = list(enumerate_patterns(fam))
        assert len(pats) == size
        assert len(set(pats)) == len(pats)


def test_enumeration_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        list(enumerate_patterns(PatternFamily(3), budget=100))


def test_semistable_budget():
    fam = PatternFamily(5, frozenset({"semi-stable"}))
    assert sum(1 for _ in enumerate_patterns(fam, budget=98592)) == 98592
    with pytest.raises(EnumerationBudgetExceeded):
        sum(1 for _ in enumerate_patterns(fam, budget=98591))
    # the budget counts members before the filters
    fam = PatternFamily(3, frozenset({"semi-stable", "symmetric"}))
    assert sum(1 for _ in enumerate_patterns(fam, budget=152)) == 8
    with pytest.raises(EnumerationBudgetExceeded):
        list(enumerate_patterns(fam, budget=151))


def test_enumeration_constraints_respected():
    fam = PatternFamily(3, frozenset({"zero-diagonal", "full-off-diagonal"}))
    pats = list(enumerate_patterns(fam))
    assert len(pats) == 2**6
    for P in pats:
        assert P.has_zero_diagonal()
        assert all(P.rows[i][j] is not Sign.ZERO
                   for i in range(3) for j in range(3) if i != j)


def test_enumeration_irreducible_filter():
    pats = list(enumerate_patterns(PatternFamily(2, frozenset({"irreducible"}))))
    assert all(is_irreducible(P) for P in pats)
    # 2x2 irreducible: both off-diagonal entries nonzero (2x2=4 sign choices,
    # diagonal free)
    assert len(pats) == 4 * 9


def test_enumeration_deterministic():
    fam = PatternFamily(2, frozenset({"symmetric"}))
    assert list(enumerate_patterns(fam)) == list(enumerate_patterns(fam))


def test_simplified_semistable_patterns():
    pats = list(simplified_semistable_patterns(3))
    assert len(pats) == 152
    assert len(set(pats)) == 152
    for P in pats:
        assert is_sign_semi_stable(P)
        assert simplify(P) == P
    assert sum(1 for _ in simplified_semistable_patterns(4)) == 3216


def _forest_mask_scan(n):
    """Every edge mask over combinations(range(n), 2), kept when a forest."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[t] for t in range(len(pairs)) if mask >> t & 1)
        if _is_forest(n, edges):
            yield edges


def test_forest_edge_sets_grow_only_forests():
    for n in range(1, 7):
        assert list(_forest_edge_sets(n)) == list(_forest_mask_scan(n)), n
    # order 7 has 2**21 edge masks; growing visits only its forests
    t0 = perf_counter()
    assert sum(1 for _ in _forest_edge_sets(7)) == 36961
    assert perf_counter() - t0 < 1.0


def test_semistable_sequence_fast_path():
    for P in simplified_semistable_patterns(3):
        assert semistable_sequence(P) == fixed_sequence(P)


def test_sym3_sweep_small():
    table = {str(s): M for s, M in _sym_sweep(3, [0, 1]).items()}
    assert set(table) <= ORDER3_NONNEG_SEQUENCES
    assert "NNN" in table and "A+A+A+" in table
    for seq, M in table.items():
        from seprkit.realize import sepr_of_matrix

        assert str(sepr_of_matrix(M)) == seq


def _sym3_kernel(values, chunk=1 << 17):
    """Reference: the hand-written symmetric 3x3 sweep, with closed-form
    minors over the digit stream (d1, d2, d3, u12, u13, u23)."""
    vals = np.array(values, dtype=np.int64)
    g = len(vals)
    total = g**6
    found = {}
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(idx), 6), dtype=np.int64)
        rem = idx
        for t in range(6):
            digits[:, t] = rem % g
            rem = rem // g
        d1, d2, d3, u12, u13, u23 = (vals[digits[:, t]] for t in range(6))
        m12 = d1 * d2 - u12 * u12
        m13 = d1 * d3 - u13 * u13
        m23 = d2 * d3 - u23 * u23
        det = (d1 * d2 * d3 + 2 * u12 * u13 * u23
               - d1 * u23 * u23 - d2 * u13 * u13 - d3 * u12 * u12)

        def bits(arr):
            return np.where(arr > 0, 1, np.where(arr < 0, 2, 4))

        s1 = bits(d1) | bits(d2) | bits(d3)
        s2 = bits(m12) | bits(m13) | bits(m23)
        s3 = bits(det)
        code = (s1 << 3 | s2) << 3 | s3
        uniq, first = np.unique(code, return_index=True)
        for c, fi in zip(uniq.tolist(), first.tolist()):
            if c not in found:
                found[c] = tuple(int(x) for x in digits[fi])
    out = {}
    for code, dg in found.items():
        d1, d2, d3, u12, u13, u23 = (values[t] for t in dg)
        out[str(_sequence_from_code(code, 3))] = RationalMatrix.from_rows(
            [[d1, u12, u13], [u12, d2, u23], [u13, u23, d3]])
    return out


def test_sym3_sweep_equals_hand_written_kernel():
    # the batched sweep of the all-+ 3x3 pattern finds the same sequences
    # and the same first witnesses as the closed-form kernel
    for values in (list(range(7)), [0, 1], [0] + list(MagnitudeGrid.default().int_scaled())):
        got, want = {str(s): M for s, M in _sym_sweep(3, values).items()}, _sym3_kernel(values)
        assert set(got) == set(want) and len(got) >= 14, values
        assert {s: M.to_text() for s, M in got.items()} == \
            {s: M.to_text() for s, M in want.items()}, values


def test_sym4_sweep_within_the_nonneg_laws():
    # every symmetric 4x4 matrix with entries 0..3 (4**10 of them) realizes
    # 105 sequences; each passes the laws and its witness realizes it
    table = _sym_sweep(4, range(4))
    assert len(table) == 105
    for seq, M in table.items():
        assert nonneg_sequence_check(seq).ok, (str(seq), nonneg_sequence_check(seq).violations)
        assert all(M.entry(i, j) == M.entry(j, i) >= 0 for i in range(4) for j in range(4))
        assert sepr_of_matrix(M) == seq


def test_symbol_algebra_report():
    rep = verify_symbol_algebra()
    assert rep.passed and rep.counts["table-entries"] == 98


def test_matrix_anchor_report():
    rep = verify_matrix_anchors()
    assert rep.passed and rep.counts["matrices"] == 16


def test_order2_conjecture_report():
    rep = verify_unique_iff_determined(2)
    assert rep.passed
    assert rep.counts["patterns"] == 81
    assert rep.counts["fixed"] == 73 and rep.counts["witnessed"] == 8


def test_conjecture_out_of_range_skipped():
    assert verify_unique_iff_determined(5).status == "skipped"


def test_symmetric_nonneg_unique_small():
    rep = verify_symmetric_nonneg_unique(2)
    assert rep.passed
    assert rep.counts["n2-patterns"] == 8 and rep.counts["n2-unique"] == 7


def test_report_json_shape():
    rep = VerificationReport("demo", "pass", "ok", {"a": 1}, None, 0.5)
    js = rep.to_json()
    assert js["check"] == "demo" and js["status"] == "pass" and js["runtime_s"] == 0.5


def test_known_order4_anchor_digraphs():
    """Four of the order-4 anchor sequences come from nameable digraphs."""
    from seprkit.digraph import path_pattern, star_pattern
    from seprkit.pattern import parse_pattern

    cases = [
        (path_pattern(4, preset="symmetric-positive"), "NS-NA+"),
        # triangle with a pendant vertex
        (parse_pattern("0++0\n+0+0\n++0+\n00+0"), "NS-S+A+"),
        (path_pattern(4, "one", preset="symmetric-positive"), "S+S-S-A+"),
        (star_pattern(4, "center", preset="symmetric-positive"), "S+S-NN"),
    ]
    for P, want in cases:
        assert str(fixed_sequence(P)) == want


# -- orbits of the sign-pattern invariances ---------------------------------

def _group(n):
    """Each g as (perm, transpose, e, d): M -> e * Pi D M' D Pi^T, M' = M or M^T."""
    for perm in permutations(range(n)):
        for transpose in (False, True):
            for e in (1, -1):
                for d in product((1, -1), repeat=n - 1):
                    yield perm, transpose, e, (1,) + d


def _act(g, rows):
    perm, transpose, e, d = g
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = e * d[i] * d[j] * (rows[j][i] if transpose else rows[i][j])
    return out


def _negate_odd_orders(seq):
    def neg(t):
        m = t.sign_mask
        return SeprSymbol.from_sign_mask(m & 4 | (m & 1) << 1 | (m & 2) >> 1)

    return SeprSequence(tuple(neg(t) if k % 2 == 0 else t for k, t in enumerate(seq.terms)))


def test_orbit_sizes_cover_every_pattern():
    for n, orbits in ((1, 2), (2, 16), (3, 322), (4, 61268)):
        sizes = [size for _, size in orbit_representatives(n)]
        assert len(sizes) == orbits and sum(sizes) == 3 ** (n * n), n
    with pytest.raises(EnumerationBudgetExceeded):
        next(orbit_representatives(5))


def test_orbit_weighted_counts_equal_per_pattern_loop():
    # reference: one unique_verdict per pattern, as the check ran before it
    # went through orbit representatives
    for n in (2, 3):
        ref = {"patterns": 0, "fixed": 0, "witnessed": 0}
        for P in enumerate_patterns(PatternFamily(n)):
            v = unique_verdict(P, search_budget=600, seed=0)
            assert v.status in (UniqueStatus.UNIQUE_BY_FIXED_TERMS, UniqueStatus.NOT_UNIQUE)
            ref["patterns"] += 1
            ref["fixed" if v.unique else "witnessed"] += 1
        rep = verify_unique_iff_determined(n)
        assert rep.passed and rep.counts == ref, (n, rep.counts, ref)


def test_orbit_maps_carry_sequences_and_witnesses():
    # every order-3 pattern Q is g P for one representative P; its fixed
    # sequence is P's (negated at odd orders when g negates), and P's
    # witness pair, mapped by g, realizes Q with two different sequences
    group = list(_group(3))
    assert len(group) == 96
    rep_of = {}
    for P, size in orbit_representatives(3):
        rows = [[int(s) for s in row] for row in P.rows]
        images = set()
        for g in group:
            Q = SignPattern.from_rows(_act(g, rows))
            images.add(Q)
            rep_of.setdefault(Q, (P, g))
        assert len(images) == size, P.to_text()
    assert len(rep_of) == 3**9
    verdicts = {}
    for Q, (P, g) in rep_of.items():
        if P not in verdicts:
            verdicts[P] = unique_verdict(P, search_budget=600, seed=0)
        v = verdicts[P]
        if v.unique:
            want = _negate_odd_orders(v.sequence) if g[2] < 0 else v.sequence
            assert fixed_sequence(Q) == want, Q.to_text()
            continue
        assert v.status is UniqueStatus.NOT_UNIQUE and fixed_sequence(Q) is None, Q.to_text()
        B1, _, B2, _ = v.witnesses
        C1, C2 = (RationalMatrix.from_rows(_act(g, B.rows)) for B in (B1, B2))
        assert C1.is_realization_of(Q) and C2.is_realization_of(Q), Q.to_text()
        assert sepr_of_matrix(C1) != sepr_of_matrix(C2), Q.to_text()
