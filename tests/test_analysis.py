"""Analysis layer: fixed terms, uniqueness, estimates, predictions, filters."""
import random
from time import perf_counter

import pytest

from seprkit import analysis, pattern
from seprkit.analysis import (
    OPEN_INITIAL_PAIRS,
    TEN_INITIAL_PAIRS,
    TermStatus,
    TermVerdict,
    UniqueStatus,
    add_cycle_witness,
    check_semistable_laws,
    classify_symmetric_nonneg_unique,
    fixed_sequence,
    fixed_term,
    nonneg_sequence_check,
    position_upper_sets,
    predicted_sepr,
    semistability_recognizable,
    sepr_set_estimate,
    term_verdicts,
    unique_verdict,
)
from seprkit.digraph import (
    DigraphFamily,
    is_sign_semi_stable,
    make_family,
    path_pattern,
    star_pattern,
)
from seprkit.pattern import (
    SignPattern,
    mask_from,
    parse_pattern,
    signed_det,
    signed_det_masked,
    subsets_of_size,
)
from seprkit.realize import MagnitudeGrid, RationalMatrix, grid_realizations, sepr_of_matrix
from seprkit.signs import AmbSign, SeprSymbol, Sign, parse_sequence

P3 = parse_pattern("++0\n--+\n0+0")
Q3 = parse_pattern("-+-\n-++\n--0")
P4 = parse_pattern("++00\n0-+0\n+0++\n00-0")


def rand_pattern(rng, n, zero_weight=1):
    choices = [Sign.ZERO] * zero_weight + [Sign.PLUS, Sign.MINUS]
    return SignPattern(tuple(tuple(rng.choice(choices) for _ in range(n))
                             for _ in range(n)))


# -- fixed terms ------------------------------------------------------------

def test_first_term_always_fixed():
    rng = random.Random(1)
    for _ in range(100):
        v = fixed_term(rand_pattern(rng, rng.randint(1, 4)), 1)
        assert v.fixed and v.status is TermStatus.FIXED_BY_SIGNED_DETS


def test_fixed_term_sstar_by_witnesses():
    v = fixed_term(P4, 3)
    assert v.status is TermStatus.FIXED_SSTAR_BY_WITNESSES
    assert v.symbol is SeprSymbol.SST
    plus, minus, zero = v.witnesses
    assert signed_det(P4.principal(plus)).value is AmbSign.PLUS
    assert signed_det(P4.principal(minus)).value is AmbSign.MINUS
    assert signed_det(P4.principal(zero)).value is AmbSign.ZERO
    assert v.ambiguous_masks == (mask_from([0, 1, 2]),)


def test_fixed_term_unknown():
    v = fixed_term(parse_pattern("++\n--"), 2)
    assert v.status is TermStatus.UNKNOWN and not v.fixed
    with pytest.raises(ValueError):
        fixed_term(P3, 4)


def test_fixed_term_agreement_with_realizations():
    rng = random.Random(2)
    grid = MagnitudeGrid.of(1, 2, "1/2")
    for _ in range(150):
        P = rand_pattern(rng, rng.randint(1, 3))
        for k in range(1, P.n + 1):
            v = fixed_term(P, k)
            if not v.fixed:
                continue
            for B in grid_realizations(P, grid, budget=12):
                assert sepr_of_matrix(B).terms[k - 1] is v.symbol


# -- uniqueness -------------------------------------------------------------

def test_unique_verdict_reference_patterns():
    v = unique_verdict(P3.direct_sum(Q3))
    assert v.unique and str(v.sequence) == "S*S*S*S*S*A+"

    v = unique_verdict(P3)
    assert v.status is UniqueStatus.NOT_UNIQUE
    _, s1, _, s2 = v.witnesses
    assert {str(s1), str(s2)} <= {"S*S-A-", "S*S*A-"}

    v = unique_verdict(P4)
    assert v.unique and str(v.sequence) == "S*S*S*A-"


def test_unique_verdict_sns_alternating():
    # negative diagonal, all cycle products negative: alternating A's
    P = parse_pattern("-+0\n0-+\n-0-")
    v = unique_verdict(P)
    assert v.unique and str(v.sequence) == "A-A+A-"


def test_unique_verdict_undecided_at_order5():
    # order-5 pattern with an unfixed position and a tiny search budget
    P = parse_pattern("++000\n--000\n00+00\n000+0\n0000+")
    v = unique_verdict(P, search_budget=1)
    assert v.status in (UniqueStatus.UNDECIDED, UniqueStatus.NOT_UNIQUE)
    full = unique_verdict(P)
    assert full.status is UniqueStatus.NOT_UNIQUE


def test_unique_condition_implies_shared_sequence():
    rng = random.Random(3)
    grid = MagnitudeGrid.of(1, 2, "1/2")
    checked = 0
    while checked < 60:
        P = rand_pattern(rng, rng.randint(2, 4))
        seq = fixed_sequence(P)
        if seq is None:
            continue
        checked += 1
        for B in grid_realizations(P, grid, budget=10):
            assert sepr_of_matrix(B) == seq


def test_a_persistence_without_ambiguity():
    # unique sequence and no ambiguous principal subpattern: once in the
    # A family, the sequence stays in the A family
    rng = random.Random(4)
    afam = {SeprSymbol.AP, SeprSymbol.AM, SeprSymbol.AST}
    checked = 0
    while checked < 200:
        P = rand_pattern(rng, rng.randint(2, 4))
        verdicts = term_verdicts(P)
        if not all(v.status is TermStatus.FIXED_BY_SIGNED_DETS for v in verdicts):
            continue
        checked += 1
        seq = [v.symbol for v in verdicts]
        for a, b in zip(seq, seq[1:]):
            if a in afam:
                assert b in afam, P.to_text()


_SIGN_BIT = {AmbSign.PLUS: 1, AmbSign.MINUS: 2, AmbSign.ZERO: 4}


def _fixed_term_by_masks(P, k):
    """Reference: the k-th verdict from one signed determinant per k x k
    principal subpattern, each computed afresh."""
    present = 0
    witness = {1: None, 2: None, 4: None}
    ambiguous = []
    for mask in subsets_of_size(P.n, k):
        d = signed_det_masked(P, mask)
        if d.value is AmbSign.AMBIGUOUS:
            ambiguous.append(mask)
            continue
        bit = _SIGN_BIT[d.value]
        present |= bit
        if witness[bit] is None:
            witness[bit] = mask
    if not ambiguous:
        return TermVerdict(k, TermStatus.FIXED_BY_SIGNED_DETS, SeprSymbol.from_sign_mask(present))
    if present == 7:
        return TermVerdict(k, TermStatus.FIXED_SSTAR_BY_WITNESSES, SeprSymbol.SST,
                           (witness[1], witness[2], witness[4]), tuple(ambiguous))
    return TermVerdict(k, TermStatus.UNKNOWN, None, None, tuple(ambiguous))


def _upper_sets_by_masks(P):
    """Reference: position_upper_sets from one signed determinant per mask."""
    out = []
    for k in range(1, P.n + 1):
        reachable = {0}
        for mask in subsets_of_size(P.n, k):
            d = signed_det_masked(P, mask)
            bits = (1, 2, 4) if d.value is AmbSign.AMBIGUOUS else (_SIGN_BIT[d.value],)
            reachable = {u | b for u in reachable for b in bits}
        out.append(frozenset(SeprSymbol.from_sign_mask(u) for u in reachable))
    return tuple(out)


def test_term_verdicts_equal_per_mask_reference():
    # one term-sign table per pattern gives the verdicts, witnesses, ambiguous
    # masks and upper sets of the per-mask loop
    rng = random.Random(85)
    statuses = set()
    ambiguous = 0
    for case in range(320):
        n = case % 7 + 1
        P = rand_pattern(rng, n, zero_weight=rng.choice((0, 1, 2, 4)))
        verdicts = term_verdicts(P)
        assert verdicts == tuple(_fixed_term_by_masks(P, k) for k in range(1, n + 1)), P.to_text()
        assert all(fixed_term(P, v.k) == v for v in verdicts)
        assert position_upper_sets(P) == _upper_sets_by_masks(P), P.to_text()
        statuses |= {v.status for v in verdicts}
        ambiguous += sum(len(v.ambiguous_masks) for v in verdicts)
    assert statuses == set(TermStatus)
    assert ambiguous >= 4000


def test_fixed_term_guard_budget():
    # one term reads only its own order's principal minors: the first term
    # of the order-14 upper-triangular all-+ pattern needs 14 entries, not
    # the whole 2**14-mask table
    n = 14
    P = SignPattern.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
    t0 = perf_counter()
    v = fixed_term(P, 1)
    elapsed = perf_counter() - t0
    assert v == TermVerdict(1, TermStatus.FIXED_BY_SIGNED_DETS, SeprSymbol.AP)
    assert elapsed < 0.1, elapsed


def test_term_verdicts_guard_budget(monkeypatch):
    # at order 14, all-+ families whose table cannot stop early (no
    # principal minor has both signs, or half of them have no term) each
    # finish well inside the ceiling; the table they read agrees with
    # signed_det_masked on the full mask and on 200 seeded masks
    n, ceiling_s = 14, 10.0
    families = {
        "zero column": [[0] + [1] * (n - 1) for _ in range(n)],
        "zero last row": [[1] * n for _ in range(n - 1)] + [[0] * n],
        "upper triangular": [[int(j >= i) for j in range(n)] for i in range(n)],
        "strictly upper triangular": [[int(j > i) for j in range(n)] for i in range(n)],
    }
    tables = []
    monkeypatch.setattr(analysis, "principal_term_signs",
                        lambda P: tables.append(pattern.principal_term_signs(P)) or tables[-1])
    rng = random.Random(86)
    for name, rows in families.items():
        P = SignPattern.from_rows(rows)
        t0 = perf_counter()
        verdicts = term_verdicts(P)
        elapsed = perf_counter() - t0
        assert elapsed < ceiling_s, (name, elapsed)
        assert len(verdicts) == n and verdicts[0].fixed, name
        table = tables.pop()
        for mask in [(1 << n) - 1] + [rng.randrange(1 << n) for _ in range(200)]:
            d = signed_det_masked(P, mask)
            assert table[mask] == d.has_positive_term | d.has_negative_term << 1, (name, mask)


# -- sepr-set estimates -----------------------------------------------------

def test_estimate_reference_patterns():
    est = sepr_set_estimate(parse_pattern("++00\n0-+0\n+0+0\n00-0"))
    assert {str(s) for s in est.sequences} >= {"S*S*NN", "S*S*S+N", "S*S*S-N"}
    est = sepr_set_estimate(Q3)
    assert {str(s) for s in est.sequences} == {"S*A*A-", "S*S*A-"}
    assert est.tight


def test_estimate_zero_pattern():
    est = sepr_set_estimate(SignPattern.zero(3), budget=10)
    assert {str(s) for s in est.sequences} == {"NNN"}
    assert est.tight
    assert all(u == frozenset({SeprSymbol.N}) for u in est.upper_per_position)


def test_estimate_witnesses_are_valid():
    est = sepr_set_estimate(P3)
    for seq, wit in est.lower.items():
        assert wit.is_realization_of(P3)
        assert sepr_of_matrix(wit) == seq


def test_upper_sets():
    uppers = position_upper_sets(P3)
    assert uppers[0] == frozenset({SeprSymbol.SST})
    assert uppers[1] == frozenset({SeprSymbol.SST, SeprSymbol.SM})
    assert uppers[2] == frozenset({SeprSymbol.AM})


def test_sepr_set_estimate_reaches_each_spanned_layer_once(monkeypatch):
    # the benchmark's per-layer spans wrap these names where analysis binds them
    names = ("allnonzero_realization", "sepr_of_matrix", "position_upper_sets",
             "sweep_sepr_table")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(analysis, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    for grid in (None, MagnitudeGrid.of(1, 3, 2**22)):  # int64 sweep, rational fallback
        calls.update(dict.fromkeys(names, 0))
        analysis.sepr_set_estimate(P4, grid, budget=50)
        assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("rows", [[[1, -1, 0], [0, 1, 1]], [[1, 0], [-1, 1], [0, 1]]])
def test_non_square_patterns_raise_value_error(rows):
    """No construction path builds a non-square pattern, so no entry point
    has to check for one."""
    text = "\n".join("".join("0+-"[x % 3] for x in row) for row in rows)
    square = parse_pattern("+-0\n0++\n-0+")
    constructions = [
        lambda: SignPattern(tuple(tuple(map(Sign.of, row)) for row in rows)),
        lambda: SignPattern.from_rows(rows),
        lambda: SignPattern.parse(text),
        lambda: SignPattern.from_json({"n": len(rows), "rows": text.splitlines()}),
        lambda: RationalMatrix.from_rows(rows).sign_pattern(),
        lambda: square.submatrix(range(len(rows)), range(len(rows[0]))),
        lambda: pattern.subpattern(square, range(len(rows)), range(len(rows[0]))),
    ]
    for build in constructions:
        with pytest.raises(ValueError, match="square|columns"):
            build()


# -- predictions ------------------------------------------------------------

def test_predicted_cycles():
    pred = predicted_sepr(make_family(DigraphFamily("cycle", 3, 0, "symmetric-positive")))
    assert pred.rule == "n-cycle" and str(pred.sequence) == "NNA+"
    # 4-cycle, all plus: signed product is negative
    pred = predicted_sepr(make_family(DigraphFamily("cycle", 4, 0, "symmetric-positive")))
    assert str(pred.sequence) == "NNNA-"


def test_predicted_cycle_with_loops():
    P = make_family(DigraphFamily("cycle", 5, 2, "negative-diagonal"))
    pred = predicted_sepr(P)
    assert pred.rule == "n-cycle-with-loops"
    assert pred.sequence == fixed_sequence(P)


def test_predicted_matches_fixed_sequences():
    cases = [
        make_family(DigraphFamily("cycle", 4, 0, "skew")),
        make_family(DigraphFamily("cycle", 6, 3, "negative-diagonal")),
        make_family(DigraphFamily("cycle", 5, 5, "symmetric-positive")),
        path_pattern(5, "one"),
        star_pattern(4, "center"),
        parse_pattern("0-00\n+0+0\n000+\n+000"),
    ]
    for P in cases:
        pred = predicted_sepr(P)
        assert pred is not None, P.to_text()
        assert pred.sequence == fixed_sequence(P), (P.to_text(), pred.rule)


def test_predicted_none_for_mismatched_all_loop_cycle():
    # 5-cycle with five negative loops but positive signed cycle product:
    # the determinant mixes both signs, so nothing is predicted (and the
    # pattern is in fact not unique)
    P = make_family(DigraphFamily("cycle", 5, 5, "negative-diagonal"))
    assert predicted_sepr(P) is None
    assert fixed_sequence(P) is None


def test_predicted_zero_diag_semistable():
    P = parse_pattern("0-00\n+0+0\n000+\n+000")
    pred = predicted_sepr(P)
    assert str(pred.sequence) == "NS+NA+"


def test_predicted_sns_odd_order():
    # looped directed 3-cycle with matching signs fires the cycle rule
    P = parse_pattern("-+0\n0-+\n-0-")
    pred = predicted_sepr(P)
    assert pred.rule == "n-cycle-all-loops"
    assert str(pred.sequence) == "A-A+A-"
    # a non-cycle shape with every cycle product negative takes the SNS rule
    P = parse_pattern("-+0\n--+\n0--")
    pred = predicted_sepr(P)
    assert pred.rule == "all-cycle-products-negative"
    assert str(pred.sequence) == "A-A+A-"


def test_predicted_doubly_directed_cycles():
    # skew 4-cycle with negative traversal product
    P = parse_pattern("0-0-\n+0+0\n0-0+\n+0-0")
    pred = predicted_sepr(P)
    assert pred is not None and pred.rule == "skew-doubly-directed-cycle"
    assert str(pred.sequence) == "NS+NA+"
    assert pred.sequence == fixed_sequence(P)
    # positive traversal product: no prediction (not unique at order 4)
    assert predicted_sepr(parse_pattern("0+0-\n-0+0\n0-0+\n+0-0")) is None
    # symmetric 3-cycle and 5-cycle
    for n in (3, 5):
        C = make_family(DigraphFamily("cycle", n, 0, "symmetric-positive"))
        rows = [list(r) for r in C.rows]
        for i in range(n):
            rows[(i + 1) % n][i] = Sign.PLUS
        P = SignPattern(tuple(tuple(r) for r in rows))
        pred = predicted_sepr(P)
        assert pred.rule == "symmetric-doubly-directed-cycle"
        assert pred.sequence == fixed_sequence(P), (n, pred.rule)


def test_predicted_none_for_unstructured():
    assert predicted_sepr(parse_pattern("++\n--")) is None


# -- sequence laws ----------------------------------------------------------

def test_semistable_laws_pass_examples():
    assert check_semistable_laws(parse_sequence("S-S+S-S+A-")).ok
    assert check_semistable_laws(parse_sequence("NS+NA+")).ok
    assert check_semistable_laws(parse_sequence("A-A+A-A+")).ok


def test_semistable_laws_violations():
    r = check_semistable_laws(parse_sequence("S+NA+"))
    assert not r.ok
    assert any("not attainable" in v for v in r.violations)
    r = check_semistable_laws(parse_sequence("S+S-N"))
    assert any("parity" in v for v in r.violations)
    r = check_semistable_laws(parse_sequence("A-A+S-A+"))
    assert any("abandoned" in v for v in r.violations)
    r = check_semistable_laws(parse_sequence("NS+S-S+"))
    assert any("not repeated" in v for v in r.violations)
    r = check_semistable_laws(parse_sequence("S-NS-A+"))
    assert any("terminal" in v for v in r.violations)


def test_semistability_recognizable():
    assert semistability_recognizable(path_pattern(2))
    assert semistability_recognizable(star_pattern(4, "center"))
    assert not semistability_recognizable(path_pattern(4))
    with pytest.raises(ValueError):
        semistability_recognizable(parse_pattern("+"))


def test_semistability_recognizable_reads_the_unique_sequence():
    # S-NN is recognizable: the pattern whose sepr-set is {S-NN} is semi-stable
    P = parse_pattern("-00\n000\n000")
    assert is_sign_semi_stable(P).ok and semistability_recognizable(P)
    verdict = unique_verdict(P)
    assert verdict.status is UniqueStatus.UNIQUE_BY_FIXED_TERMS
    assert str(verdict.sequence) == "S-NN"
    # a sepr-set that merely contains S-NN proves nothing: the 2-cycle
    # product of Q is +, yet Q realizes S-NN
    Q = parse_pattern("--0\n--0\n000")
    assert not is_sign_semi_stable(Q).ok
    B = RationalMatrix.parse("-1/6 -1/6 0\n-1/6 -1/6 0\n0 0 0")
    assert B.is_realization_of(Q) and str(sepr_of_matrix(B)) == "S-NN"
    verdict = unique_verdict(Q)
    assert verdict.status is UniqueStatus.NOT_UNIQUE
    assert {str(seq) for seq in verdict.witnesses[1::2]} == {"S-NN", "S-S+N"}


def test_add_cycle_witness_4path():
    base = path_pattern(4)
    w = add_cycle_witness(base)
    assert not is_sign_semi_stable(w)
    assert fixed_sequence(w) == fixed_sequence(base)
    same = sum(1 for i in range(4) for j in range(4) if w.rows[i][j] == base.rows[i][j])
    assert same == 15  # exactly one entry changed


def test_add_cycle_witness_loop_ended_3path():
    base = path_pattern(3, "one")
    w = add_cycle_witness(base)
    assert not is_sign_semi_stable(w)
    assert fixed_sequence(w) == fixed_sequence(base)


def test_add_cycle_witness_preconditions():
    with pytest.raises(ValueError):
        add_cycle_witness(star_pattern(4))  # no 4-path, no loop-ended 3-path
    with pytest.raises(ValueError):
        add_cycle_witness(parse_pattern("++\n--"))  # not semi-stable
    with pytest.raises(ValueError):
        add_cycle_witness(parse_pattern("0+00\n-00+\n000+\n0000"))  # not simplified


# -- symmetric nonnegative filters -------------------------------------------

def test_nonneg_sequence_check_examples():
    assert not nonneg_sequence_check(parse_sequence("A+NA-")).ok
    assert nonneg_sequence_check(parse_sequence("NA-A+")).ok
    assert nonneg_sequence_check(parse_sequence("NS-N")).ok
    assert not nonneg_sequence_check(parse_sequence("NA-N")).ok
    assert not nonneg_sequence_check(parse_sequence("A-A+A-")).ok  # bad start
    assert not nonneg_sequence_check(parse_sequence("NS+NA+")).ok  # NS+ start
    assert not nonneg_sequence_check(parse_sequence("S+A+N")).ok  # S+A+ start
    assert not nonneg_sequence_check(parse_sequence("A+A*NA-")).ok  # A*N inside
    assert not nonneg_sequence_check(parse_sequence("S+S*NN")).ok  # S*NN inside
    assert not nonneg_sequence_check(parse_sequence("A+NNA+")).ok  # NN tail
    assert nonneg_sequence_check(parse_sequence("A+NNN")).ok


def test_nonneg_check_matches_order3_catalog():
    from seprkit.enumeration import ORDER3_NONNEG_SEQUENCES

    for text in ORDER3_NONNEG_SEQUENCES:
        assert nonneg_sequence_check(parse_sequence(text)).ok, text
    for text in ("A+NA-", "NA-A-", "NA-N"):
        assert not nonneg_sequence_check(parse_sequence(text)).ok, text


# -- symmetric nonnegative classification ------------------------------------

def test_classify_determined_cases():
    cases = [
        (parse_pattern("+00\n0+0\n00+"), "1", "A+A+A+"),
        (make_family(DigraphFamily("complete", 3, "none", "symmetric-positive")), "2", "NA-A+"),
        (make_family(DigraphFamily("complete", 2, "none", "symmetric-positive")), "2", "NA-"),
        (SignPattern.zero(3), "3", "NNN"),
        (make_family(DigraphFamily("leaf-loop-star", 4, "none", "symmetric-positive")), "4",
         "S+A*A*A-"),
        (make_family(DigraphFamily("complete", 2, "one", "symmetric-positive")), "5", "S+A-"),
        (parse_pattern("+00\n000\n000"), "6", "S+NN"),
        (parse_pattern("+00\n0+0\n000"), "7", "S+S+N"),
    ]
    for P, case, seq in cases:
        cls = classify_symmetric_nonneg_unique(P)
        assert cls is not None
        assert cls.case == case and str(cls.sequence) == seq


def test_classify_open_and_none():
    cls = classify_symmetric_nonneg_unique(
        path_pattern(4, preset="symmetric-positive"))
    assert cls.case == "open" and str(cls.sequence) == "NS-NA+"
    K4 = make_family(DigraphFamily("complete", 4, "none", "symmetric-positive"))
    assert classify_symmetric_nonneg_unique(K4) is None
    with pytest.raises(ValueError):
        classify_symmetric_nonneg_unique(parse_pattern("0+\n-0"))


def test_ten_pairs_shape():
    assert len(TEN_INITIAL_PAIRS) == 10
    assert OPEN_INITIAL_PAIRS < TEN_INITIAL_PAIRS


def _dominant_diagonal_pattern(n, diag):
    """Irreducible pattern with first row feedback and subdiagonal chain."""
    rows = [[Sign.ZERO] * n for _ in range(n)]
    for j in range(n):
        if diag is Sign.PLUS:
            rows[0][j] = Sign.PLUS if j % 2 == 0 else Sign.MINUS
        else:
            rows[0][j] = Sign.MINUS
    for i in range(n):
        rows[i][i] = diag
        if i + 1 < n:
            rows[i + 1][i] = Sign.PLUS
    return SignPattern(tuple(tuple(r) for r in rows))


def test_irreducible_all_a_sequences():
    # irreducible patterns whose unique sequences are A+A+... and A-A+A-...
    for n in (3, 4, 5):
        plus = _dominant_diagonal_pattern(n, Sign.PLUS)
        v = unique_verdict(plus)
        assert v.unique and str(v.sequence) == "A+" * n
        from seprkit.digraph import is_irreducible

        assert is_irreducible(plus)
        minus = _dominant_diagonal_pattern(n, Sign.MINUS)
        v = unique_verdict(minus)
        want = "".join("A-" if k % 2 else "A+" for k in range(1, n + 1))
        assert v.unique and str(v.sequence) == want
        assert is_irreducible(minus)


def test_pending_verdict_with_starved_search():
    v = unique_verdict(parse_pattern("++\n--"), search_budget=1)
    assert v.status is UniqueStatus.NOT_UNIQUE_PENDING_WITNESSES
    assert v.warning and "grid" in v.warning


def test_complement_principal():
    assert P4.complement_principal(mask_from([0])) == P4.principal(mask_from([1, 2, 3]))
