"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
timings.  Every tolerance is exact (integer/rational arithmetic); the
runtime ceilings are part of the criteria.  Each report that
`seprkit verify-paper --json` prints (`run_all_verifications(seed=0,
budget=10**6)`) is built here by one criterion and pinned by its digest.
"""
import hashlib
import json
import random
import time

from seprkit.enumeration import (
    EMBEDDED_ORDER3_WITNESSES,
    ORDER3_NONNEG_SEQUENCES,
    verify_matrix_anchors,
    verify_order3_nonneg_catalog,
    verify_semistable_suite,
    verify_seprset_anchors,
    verify_symbol_algebra,
    verify_symmetric_nonneg_unique,
    verify_unique_iff_determined,
)
from seprkit.pattern import (
    SignPattern,
    bigraph,
    full_mask,
    has_perfect_matching,
    signed_det,
    signed_det_masked,
    subsets_of_size,
)
from seprkit.realize import (
    MagnitudeGrid,
    RationalMatrix,
    allnonzero_realization,
    dominated_realization,
    grid_realizations,
    sepr_of_matrix,
    verify_inverse_relation,
)
from seprkit.signs import AmbSign, Sign, combine

_CHECKMARK = "ACCEPTANCE criterion {}: PASS ({:.2f}s{})"

# sha256 of each report's `to_json()` without `runtime_s`, as JSON with sorted keys
REPORT_DIGESTS = {
    "symbol-algebra": "10e390b44e301effa8303410ce568b5dff137cc1917ce69b923ac03b7dd2e19b",
    "matrix-anchors": "a2816459b9008f89cad9830146a9e8ccd0fb5bef9b75f52b24db690547e69463",
    "seprset-anchors": "962d7e778c437909e46ca0a7cad2467e608bd61d294b51412f6e3e232d2a1dc9",
    "order3-nonneg-catalog": "965d07346adc53414d1ce0fb9db94049e5a39fcbc9df13fe28c7ea37837a7d27",
    "unique-iff-determined-n2": "b2745115146d8d0da72ed4468f643832201329e5b686b04002535cbe488c92b1",
    "unique-iff-determined-n3": "e1c651d1e91ff4c7eac0e346b7a2e9953a09cc92ac73d447d820b36f1ca059ac",
    "unique-iff-determined-n4": "e30f1b69cdb6e59ab2e0b7bf8135d69a731b5c2fa06a9226d124a0d263a660ff",
    "symmetric-nonneg-unique": "382b7b07e2180f8f5e8d345c86550aeba79c0407a80aa6755c388a00d0e6f556",
    "semistable-suite": "a803ecb4c81467b62951ff7094df0e95e748399787e0cb7eb59aa3168c9f2f8e",
}


def _done(num, t0, extra=""):
    print(_CHECKMARK.format(num, time.time() - t0, extra))


def _assert_digest(rep):
    report = rep.to_json()
    del report["runtime_s"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[rep.check_id], report


def rand_pattern(rng, n, zero_weight=1):
    choices = [Sign.ZERO] * zero_weight + [Sign.PLUS, Sign.MINUS]
    return SignPattern(tuple(tuple(rng.choice(choices) for _ in range(n))
                             for _ in range(n)))


def test_criterion_1_symbol_tables():
    t0 = time.time()
    rep = verify_symbol_algebra()
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    assert rep.counts["table-entries"] == 98
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _done(1, t0)


def test_criterion_2_matrix_anchors():
    t0 = time.time()
    rep = verify_matrix_anchors()
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    # six constructed order-3 witnesses are among the embedded set
    for seq in ("A+A*A-", "A+A+A-", "A+A+N", "A+A-A-", "A+S*A-", "S+S*A-"):
        rows = EMBEDDED_ORDER3_WITNESSES[seq]
        assert str(sepr_of_matrix(RationalMatrix(rows))) == seq
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _done(2, t0)


def test_criterion_3_seprset_anchors():
    t0 = time.time()
    rep = verify_seprset_anchors(budget=10**6)
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _done(3, t0)


def test_criterion_4_uniqueness_condition():
    t0 = time.time()
    rep2 = verify_unique_iff_determined(2)
    rep3 = verify_unique_iff_determined(3)
    assert rep2.passed and rep3.passed, (rep2.to_json(), rep3.to_json())
    _assert_digest(rep2)
    _assert_digest(rep3)
    assert rep2.counts["patterns"] + rep3.counts["patterns"] == 19764
    assert rep2.counts["fixed"] + rep2.counts["witnessed"] == 81
    assert rep3.counts["fixed"] + rep3.counts["witnessed"] == 19683
    small = time.time() - t0
    assert small < 300.0  # n <= 3, single-threaded

    t1 = time.time()
    rep4 = verify_unique_iff_determined(4)
    assert rep4.passed, rep4.to_json()
    _assert_digest(rep4)
    assert rep4.counts["zero-diag-full-off-patterns"] == 4096
    assert rep4.counts["zero-diag-full-off-fixed"] == 0
    assert rep4.counts["zero-diag-full-off-witnessed"] == 4096
    assert rep4.counts["symmetric-patterns"] == 3**10
    assert rep4.counts["patterns"] == 3**16
    assert rep4.counts["fixed"] == 9247761
    assert rep4.counts["witnessed"] == 33798960
    assert time.time() - t1 < 600.0
    _done(4, t0, f"; n<=3 in {small:.2f}s")


def test_criterion_5_order3_catalog():
    t0 = time.time()
    rep = verify_order3_nonneg_catalog()
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    assert rep.counts["embedded"] + rep.counts["freshly-searched"] == 25
    assert len(ORDER3_NONNEG_SEQUENCES) == 25
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _done(5, t0)


def test_criterion_6_semistable_suite():
    t0 = time.time()
    rep = verify_semistable_suite()
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    assert rep.counts["semistable-patterns"] == 101974
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _done(6, t0)


def test_criterion_7_property_suites():
    t0 = time.time()
    rng = random.Random(2026)

    # block upper-triangular composition vs direct sepr: 500 cases
    for _ in range(500):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        A = [[rng.randint(-3, 3) for _ in range(na)] for _ in range(na)]
        B = [[rng.randint(-3, 3) for _ in range(nb)] for _ in range(nb)]
        C = [[rng.randint(-3, 3) for _ in range(nb)] for _ in range(na)]
        M = RationalMatrix.from_rows(
            [A[i] + C[i] for i in range(na)] + [[0] * na + B[i] for i in range(nb)])
        assert sepr_of_matrix(M) == combine(
            sepr_of_matrix(RationalMatrix.from_rows(A)),
            sepr_of_matrix(RationalMatrix.from_rows(B)))

    # inverse relation: 200 nonsingular matrices of orders <= 5
    done = 0
    while done < 200:
        n = rng.randint(2, 5)
        M = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if M.det() == 0:
            continue
        assert verify_inverse_relation(M).passed, M.to_text()
        done += 1

    # signed determinant vs realization determinant signs: 10^4 cases
    grid = MagnitudeGrid.of("1/2", 1, 3)
    for _ in range(10**4):
        P = rand_pattern(rng, rng.randint(1, 4))
        d = signed_det(P)
        if d.value is AmbSign.AMBIGUOUS:
            assert dominated_realization(P, full_mask(P.n), Sign.PLUS).det() > 0
            assert dominated_realization(P, full_mask(P.n), Sign.MINUS).det() < 0
        else:
            want = {AmbSign.PLUS: 1, AmbSign.MINUS: -1, AmbSign.ZERO: 0}[d.value]
            for B in grid_realizations(P, grid, budget=4):
                det = B.det()
                assert (det > 0) - (det < 0) == want

    # bigraph perfect matching vs nonzero determinant term: 10^4 cases
    for _ in range(10**4):
        P = rand_pattern(rng, rng.randint(1, 6), zero_weight=2)
        assert has_perfect_matching(bigraph(P)) == signed_det(P).has_term

    # nonzero-ambiguous-minor realizations: 100 ambiguous patterns, n <= 6,
    # with the postcondition checked over every equal-size index pair
    done = 0
    while done < 100:
        n = rng.choice((3, 3, 4, 4, 5, 6))
        P = rand_pattern(rng, n, zero_weight=1)
        pairs = [
            (r, c)
            for k in range(2, n + 1)
            for r in subsets_of_size(n, k)
            for c in subsets_of_size(n, k)
            if signed_det_masked(P, r, c).value is AmbSign.AMBIGUOUS
        ]
        if not pairs:
            continue
        B = allnonzero_realization(P)
        assert B.is_realization_of(P)
        for r, c in pairs:
            ridx = [i for i in range(n) if r >> i & 1]
            cidx = [j for j in range(n) if c >> j & 1]
            assert B.minor(ridx, cidx) != 0, (P.to_text(), r, c)
        done += 1

    elapsed = time.time() - t0
    assert elapsed < 300.0
    _done(7, t0)


def test_criterion_8_symmetric_nonneg_classification():
    t0 = time.time()
    rep = verify_symmetric_nonneg_unique(4)
    assert rep.passed, rep.to_json()
    _assert_digest(rep)
    assert rep.counts["n4-patterns"] == 1024
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _done(8, t0)
