"""Exact realizations: sepr of matrices, grids, targeted constructions."""
import ast
import hashlib
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from pathlib import Path

import pytest

from seprkit.pattern import (
    DET_ORDER_GUARD,
    OrderGuardError,
    SignPattern,
    _first_terms,
    _masks_by_size,
    _term_signs,
    full_mask,
    mask_from,
    mask_indices,
    parse_pattern,
    signed_det_masked,
    subsets_of_size,
)
from seprkit import realize
from seprkit.realize import (
    MagnitudeGrid,
    RationalMatrix,
    allnonzero_realization,
    distinct_sepr_search,
    dominated_realization,
    grid_realizations,
    ones_realization,
    scale_diagonal_to_one,
    sepr_of_matrix,
    sweep_sepr_table,
    verify_inverse_relation,
    zero_minor_realization,
)
from seprkit.signs import AmbSign, Sign

INT64_MAX = 2**63 - 1


def test_sepr_reference_matrices():
    cases = [
        ([[0, 1, 0], [1, 0, 1], [1, 0, 0]], "NS-A+"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "A+A+A+"),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], "A+NN"),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "NA-A+"),
        ([[0, 1], [-1, 0]], "NA+"),
        ([[0, 1], [1, 0]], "NA-"),
        ([[0, -1, -1], [1, 0, 1], [1, 1, 0]], "NA*A-"),
    ]
    for rows, want in cases:
        assert str(sepr_of_matrix(RationalMatrix.from_rows(rows))) == want


def test_sepr_rational_entries():
    M = RationalMatrix.from_rows(
        [[1, "9/10", 0], ["9/10", 1, "9/10"], [0, "9/10", 1]])
    assert str(sepr_of_matrix(M)) == "A+A+A-"


def test_sepr_rejects_floats():
    with pytest.raises(TypeError):
        RationalMatrix.from_rows([[0.5]])


def test_sepr_is_scale_invariant():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]
        M = RationalMatrix.from_rows(rows)
        M6 = RationalMatrix.from_rows([[6 * x for x in row] for row in rows])
        assert sepr_of_matrix(M) == sepr_of_matrix(M6)


def test_sepr_order_guard():
    with pytest.raises(OrderGuardError):
        sepr_of_matrix(RationalMatrix.identity(15))


def _sepr_by_minors(B):
    """Reference: per-order sign masks from one exact determinant per principal minor.

    Bit 1 marks a positive order-k principal minor, 2 a negative one and 4 a
    zero one; an order stops at its first mask with all three.
    """
    n = B.n
    rows = realize._int_rows(B)
    masks = []
    for k in range(1, n + 1):
        seen = 0
        for idx in combinations(range(n), k):
            d = realize._det(rows, idx, idx)
            seen |= 1 if d > 0 else (2 if d < 0 else 4)
            if seen == 7:
                break
        masks.append(seen)
    return masks


def _oracle_matrix(rng, n, kind):
    if kind == "integer":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "rational":
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    if kind == "zero-diagonal":
        return [[0 if i == j else rng.choice((-2, -1, 1, 3)) for j in range(n)] for i in range(n)]
    if kind == "sparse":
        return [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
    if kind == "symmetric":
        U = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        return [[U[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "repeated-row":
        rows = _oracle_matrix(rng, n, rng.choice(("integer", "sparse")))
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        return rows
    r = int(kind[-1])  # "rank-1" .. "rank-3": a product of n x r and r x n factors
    U = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    V = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(r)]
    return [[sum(U[i][t] * V[t][j] for t in range(r)) for j in range(n)] for i in range(n)]


def test_principal_walk_equals_minor_by_minor_reference():
    # every order's sign mask matches one determinant per minor; the walk
    # also meets many nonzero minors directly below a zero one, where it
    # reads determinants from an ancestor's table and rebuilds a table
    rng = random.Random(91)
    kinds = ("integer", "rational", "zero-diagonal", "sparse", "rank-1", "rank-2", "rank-3",
             "symmetric", "repeated-row")
    below_zero = 0
    for n in range(1, 10):
        for kind in kinds:
            # sparse matrices leave orders unsaturated, so one wrong sign shows
            for _ in range(3 if n == 9 else 30 if kind == "sparse" else 6):
                B = RationalMatrix.from_rows(_oracle_matrix(rng, n, kind))
                want = _sepr_by_minors(B)
                got = sepr_of_matrix(B)
                assert [t.sign_mask for t in got.terms] == want, (kind, B.to_text())
                assert got == realize.sepr_sequence_of_minor_signs(want)
                if n <= 7:
                    rows = realize._int_rows(B)
                    zero = {m for m in range(1, 1 << n)
                            if realize._det(rows, mask_indices(m), mask_indices(m)) == 0}
                    # the walk's parent of S is S without its largest index
                    below_zero += sum(1 for m in range(1, 1 << n) if m not in zero
                                      and m & (m - 1) and (m ^ 1 << (m.bit_length() - 1)) in zero)
    assert below_zero >= 1200, below_zero


def _tail_matrix(rng, n, kind):
    """Matrices whose last rows meet zero and negative principal minors."""
    if kind.startswith("negative"):  # -(B B^T + I): order-k principal minors have sign (-1)^k
        U = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [[-sum(U[i][t] * U[j][t] for t in range(n)) - (i == j) for j in range(n)]
                for i in range(n)]
    elif kind.startswith("rational"):
        rows = _oracle_matrix(rng, n, "rational")
    elif kind.startswith("rank"):
        return _oracle_matrix(rng, n, kind)
    else:
        rows = _oracle_matrix(rng, n, "integer")
    if kind.endswith("repeated") and n > 1:
        # a row among the last three becomes a multiple of another row
        i = rng.randrange(max(1, n - 3), n)
        j = rng.choice([r for r in range(n) if r != i])
        c = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 3)) if kind.startswith("rat") else 1
        rows[i] = [c * x for x in rows[j]]
    return rows


def test_principal_walk_tail_signs():
    # a child with t <= 3 indices after it is settled in closed form from its
    # undivided numerators N: det N[F, F] is read over det A[S] for |F| = 1, 3
    # and over v = det A[S+p] for |F| = 2 (t = 1 is the leaf, read over d);
    # these matrices meet zero numerators at every such order and negative
    # d and v, and each order's sign mask must match one determinant per minor
    # (at n <= 6 also sympy's Berkowitz determinant, which does not use _det)
    import sympy

    rng = random.Random(93)
    kinds = ("integer-repeated", "rational-repeated", "negative", "negative-repeated",
             "rank-2", "rank-3")
    hits = {}
    for n in range(3, 10):
        for kind in kinds:
            for _ in range(3 if n <= 6 else 4):
                rows = _tail_matrix(rng, n, kind)
                B = RationalMatrix.from_rows(rows)
                got = [t.sign_mask for t in sepr_of_matrix(B).terms]
                assert got == _sepr_by_minors(B), (kind, B.to_text())
                ints = realize._int_rows(B)
                det = [1] + [realize._det(ints, mask_indices(m), mask_indices(m))
                             for m in range(1, 1 << n)]
                if n <= 6:
                    S = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                      for row in B.rows])
                    want = [0] * n
                    for m in range(1, 1 << n):
                        idx = list(mask_indices(m))
                        x = S.extract(idx, idx).det(method="berkowitz")
                        want[len(idx) - 1] |= 1 if x > 0 else (2 if x < 0 else 4)
                    assert got == want, (kind, B.to_text())
                # the walk reaches S by nonzero minors when each of its prefixes is nonzero
                chain = [True] * (1 << n)
                for m in range(1, 1 << n):
                    chain[m] = chain[m ^ 1 << (m.bit_length() - 1)] and det[m] != 0
                for q in range(max(0, n - 4), n - 1):
                    t = n - 1 - q
                    for s in range(1 << q):
                        c = s | 1 << q
                        if not chain[s] or (t > 1 and det[c] == 0):
                            continue
                        for f in range(1 << (q + 1), 1 << n, 1 << (q + 1)):
                            size = bin(f).count("1")
                            den = det[c] if size == 2 else det[s]
                            key = (t, size, "zero" if det[c | f] == 0 else "negative")
                            if det[c | f] == 0 or den < 0:
                                hits[key] = hits.get(key, 0) + 1
    for t in (1, 2, 3):
        for size in range(1, t + 1):
            for what in ("zero", "negative"):
                assert hits.get((t, size, what), 0) >= 100, (t, size, what, hits)
    assert sum(hits.values()) >= 6000, hits


def test_sepr_guard_budget():
    # at SEPR_ORDER_GUARD every shape of input finishes well inside its ceiling
    n = realize.SEPR_ORDER_GUARD
    rng = random.Random(92)
    u, w = [rng.randint(1, 3) for _ in range(n)], [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    u2, w2 = [rng.randint(-3, 3) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)]
    cases = {
        "zero": [[0] * n for _ in range(n)],
        "rank-1": [[u[i] * w[j] for j in range(n)] for i in range(n)],
        "rank-2": [[u[i] * w[j] + u2[i] * w2[j] for j in range(n)] for i in range(n)],
        "identity": [[int(i == j) for j in range(n)] for i in range(n)],
        "dense": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
        "zero-diagonal": [[0 if i == j else rng.choice((-1, 1)) for j in range(n)]
                          for i in range(n)],
        # the largest integer rows: each is scaled by the lcm of its denominators
        "rational": [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                     for _ in range(n)],
    }
    for name, rows in cases.items():
        B = RationalMatrix.from_rows(rows)
        start = time.perf_counter()
        got = sepr_of_matrix(B)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, (name, elapsed)
        assert [t.sign_mask for t in got.terms] == _sepr_by_minors(B), name


def test_fallback_sweep_guard_budget():
    # a grid past the int64 bound at SEPR_ORDER_GUARD runs the exact rational
    # fallback: budget 20 dense realizations settle well inside the ceiling
    n = realize.SEPR_ORDER_GUARD
    grid = MagnitudeGrid.of(1, 2, 3, 4)
    assert factorial(n) * 4**n > 2**63 - 1
    rng = random.Random(14)
    P = SignPattern.from_rows([[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)])
    start = time.perf_counter()
    table = sweep_sepr_table(P, grid, budget=20)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    assert 1 <= len(table) <= 20
    for s, B in table.items():
        assert B.sign_pattern() == P
        assert {abs(x) for row in B.rows for x in row} <= set(grid.values)
    s, B = next(iter(table.items()))
    assert [t.sign_mask for t in s.terms] == _sepr_by_minors(B)


def test_matrix_parse_roundtrip():
    text = "0 1/2 -3\n1 0 2/7\n-1 1 0"
    M = RationalMatrix.parse(text)
    assert M.to_text() == text
    assert M.entry(0, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        RationalMatrix.parse("1 x\n0 1")


def _int_from_text(text):
    # rebuilt 500 digits at a time, each well inside the int-to-str limit
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_matrix_text_prints_entries_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = Fraction(2**20000 + 1, 3)
    M = RationalMatrix.from_rows([[big, 1], [-big / 7, "-1/2"]])
    tokens = M.to_text().split()
    assert M.to_json()["rows"] == [tokens[:2], tokens[2:]]
    assert tokens[1:4:2] == ["1", "-1/2"]
    for tok, want in zip(tokens[::2], (big, -big / 7)):
        num, den = tok.split("/")
        assert len(num) > 6000
        assert Fraction(_int_from_text(num), _int_from_text(den)) == want
    assert sys.get_int_max_str_digits() == limit
    if limit:  # text from outside the program still meets the limit
        with pytest.raises(ValueError):
            RationalMatrix.parse(M.to_text())


def test_minor_det_inverse_match_sympy():
    # sympy (Berkowitz determinant, LU inverse) as an independent oracle on
    # random rational matrices, some with zero leading entries so that the
    # elimination has to swap rows
    import sympy

    rng = random.Random(91)

    def oracle(rows, ridx, cidx):
        x = sympy.Matrix(rows).extract(list(ridx), list(cidx)).det(method="berkowitz")
        return Fraction(int(x.p), int(x.q))

    swaps = singular = 0
    for case in range(240):
        n = case % 6 + 1
        rows = [[sympy.Rational(rng.randint(-9, 9), rng.randint(1, 6))
                 if rng.random() < 0.7 else sympy.Integer(0) for _ in range(n)]
                for _ in range(n)]
        if case % 3 == 0 and n > 1:  # zero leading entries down the first column
            for i in range(rng.randint(1, n - 1)):
                rows[i][0] = sympy.Integer(0)
        if case % 5 == 0 and n > 1:  # a repeated row
            rows[-1] = list(rows[0])
        M = RationalMatrix.from_rows([[Fraction(int(x.p), int(x.q)) for x in row]
                                      for row in rows])
        d = oracle(rows, range(n), range(n))
        assert M.det() == d, M.to_text()
        for _ in range(6):
            k = rng.randint(1, n)
            ridx = sorted(rng.sample(range(n), k))
            cidx = sorted(rng.sample(range(n), k))
            assert M.minor(ridx, cidx) == oracle(rows, ridx, cidx), (M.to_text(), ridx, cidx)
            swaps += k > 3 and M.rows[ridx[0]][cidx[0]] == 0
        if d == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                M.inverse()
        else:
            inv = sympy.Matrix(rows).inv(method="LU")
            assert M.inverse() == RationalMatrix.from_rows(
                [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)]
                 for i in range(n)]), M.to_text()
    assert swaps >= 100 and singular >= 60
    with pytest.raises(ValueError):
        RationalMatrix.identity(3).minor([0, 1], [0])
    with pytest.raises(OrderGuardError):
        RationalMatrix.identity(7).inverse()



def _leibniz_det(rows, ridx, cidx):
    """Reference: the permutation sum, each term signed by its inversion count."""
    k, total = len(ridx), 0
    for perm in permutations(range(k)):
        term = -1 if sum(perm[a] > perm[b] for a, b in combinations(range(k), 2)) & 1 else 1
        for r, p in zip(ridx, perm):
            term *= rows[r][cidx[p]]
        total += term
    return total


def test_det_matches_permutation_sum():
    # the closed forms (orders 0-3) and Bareiss (4-6) against the Leibniz sum,
    # on ascending index sets with gaps into a larger integer matrix: small
    # entries with many zeros (zero pivots), entries past 2**64, a repeated
    # row and a zero leading entry
    rng = random.Random(2501)
    big = 2**64
    for k in range(7):
        for case in range(48):
            size = k + 3
            kind = case % 4
            if kind == 1:
                rows = [[rng.choice((-1, 1)) * (big + rng.randrange(big)) if rng.random() < 0.8
                         else 0 for _ in range(size)] for _ in range(size)]
            else:
                rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(size)]
                        for _ in range(size)]
            ridx = sorted(rng.sample(range(size), k))
            cidx = sorted(rng.sample(range(size), k))
            if kind == 2 and k > 1:
                rows[ridx[-1]] = rows[ridx[0]][:]
            if kind == 3 and k > 0:
                rows[ridx[0]][cidx[0]] = 0
            want = _leibniz_det(rows, ridx, cidx)
            assert realize._det(rows, ridx, cidx) == want, (k, case, rows, ridx, cidx)
            assert want == 0 or kind != 2 or k < 2
    assert realize._det([], [], []) == 1


def test_rational_equals_fraction_entries():
    # rows / dens entry by entry, whole small entries as the shared Fractions,
    # past the shared table's range, with a non-unit denominator, with big ints
    big = 3**50
    cases = [
        ([[256, -256, 0], [1, -1, 255], [7, -7, 2]], [1, 1, 1]),
        ([[256, 257, -257], [-256, 0, 1], [2, 3, -4]], [1, 1, 1]),
        ([[big, -big, 1], [0, 1, -1], [256, 6, -6]], [1, 1, 1]),
        ([[256, 6, -3], [1, 2, 3], [4, -257, 6]], [1, 3, 1]),
        (((1, 2), (-3, 4)), (1, 1)),
        ([[6, -4], [big, 1]], [5, 2]),
        ([[6, -4], [2, 1]], [5, 1]),
    ]
    for rows, dens in cases:
        M = realize._rational(rows, dens)
        assert M.rows == tuple(tuple(Fraction(x, q) for x in row) for row, q in zip(rows, dens))
        for row, q, got in zip(rows, dens, M.rows):
            for x, f in zip(row, got):
                assert type(f) is Fraction
                if q == 1 and -256 <= x <= 256:
                    assert f is realize._SMALL_FRACTIONS[x]


def test_sign_mask_decode_is_cached_and_bounded():
    decode = realize.sepr_sequence_of_minor_signs
    masks = [1, 2, 4, 7, 3]
    seq = decode(masks)
    assert str(seq) == "A+A-NS*A*"
    assert decode(tuple(masks)) is seq
    code = 0
    for m in masks:
        code = code << 3 | m
    assert realize._sequence_from_code(code, len(masks)) is seq
    info = realize._decode_masks.cache_info()
    assert info.maxsize is not None
    for t in product(range(1, 8), repeat=4):
        assert [s.sign_mask for s in decode(t)] == list(t)
    info = realize._decode_masks.cache_info()
    assert 7**4 > info.maxsize and info.currsize <= info.maxsize


def test_canonical_digit():
    assert MagnitudeGrid.default().canonical_digit() == 3
    assert MagnitudeGrid.of(2, 3).canonical_digit() == 0
    g = MagnitudeGrid.of("1/2", 1, "2/2")
    assert g.canonical_digit() == g.canonical_digit() == 1


def test_grid_realizations_exhaustive():
    P = parse_pattern("0+\n-0")
    mats = list(grid_realizations(P, MagnitudeGrid.of(1)))
    assert len(mats) == 1
    assert mats[0].rows == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    mats = list(grid_realizations(P, MagnitudeGrid.of(1, 2)))
    assert len(mats) == 4
    assert all(m.is_realization_of(P) for m in mats)


def test_grid_realizations_zero_pattern():
    mats = list(grid_realizations(SignPattern.zero(2)))
    assert len(mats) == 1 and mats[0].det() == 0


def test_grid_realizations_subsample_deterministic():
    P = parse_pattern("++++\n++++\n++++\n++++")
    a = [m.to_text() for m in grid_realizations(P, budget=50, seed=9)]
    b = [m.to_text() for m in grid_realizations(P, budget=50, seed=9)]
    c = [m.to_text() for m in grid_realizations(P, budget=50, seed=10)]
    assert a == b and len(a) == 50
    assert a != c
    # the canonical all-unit realization leads the subsample
    assert a[0] == "\n".join(" ".join("1" for _ in range(4)) for _ in range(4))


# sha256 over each level's entry, sub and principal arrays of `_minor_levels(n)`,
# each as its dtype string and shape, then its bytes
MINOR_LEVEL_DIGESTS = {
    1: "5741b331ee92b7a510875076a5678d991e165caf47cd9e99a02cf5d7bf14aa8c",
    2: "b13bc528eb48f3b52043286a2d759dfa526f83d0cefaed5653073979d049e8f1",
    3: "0459d9a0118391b6fbb859a2ab941469374fdf242dceda6b6147908db94b00fe",
    4: "99b802ae00adacca940ea7642a9ccb320056b481e8704790704eee5c472b02b3",
    5: "a65ca51051942305588df8943472ca6285fdd39d99875c7018cf28516530ec33",
    6: "bcab22ba4938c37498f8557ca1329e1a46557efe1f2ed71d9e6b46160c0443ea",
    7: "b173572af43bbfcac3a1bbb03e253a21b195c572e62b02c3cac4330781f1fbba",
    8: "8ba7b5b3df2910142695cc64f4d1bc5230ea180a847ae5bd86035289a857f259",
    9: "bf966a38e03793c550bd63c88876b6c5086889de5e8a69293cc91619a303a712",
    10: "694a526a0a6855edc06aeabbd1dfa874c02d18d6c7fc3e412851e5add74447eb",
}


def test_minor_levels_digests():
    # the sweep's Laplace tables come from the level walk that the principal
    # term-sign table's plan is built from; the digests pin every byte of them
    for n, digest in MINOR_LEVEL_DIGESTS.items():
        h = hashlib.sha256()
        for level in realize._minor_levels(n):
            for a in level:
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
        assert h.hexdigest() == digest, n


def test_sweep_matches_stream():
    P = parse_pattern("+-\n+-")
    g = MagnitudeGrid.of(1, 2, 3)
    table = sweep_sepr_table(P, g, budget=10**5)
    stream = {str(sepr_of_matrix(B)) for B in grid_realizations(P, g, budget=10**5)}
    assert {str(s) for s in table} == stream
    for seq, wit in table.items():
        assert wit.is_realization_of(P)
        assert sepr_of_matrix(wit) == seq


def test_sweep_reference_sets():
    P = parse_pattern("++0\n--+\n0+0")
    assert {str(s) for s in sweep_sepr_table(P)} == {"S*S-A-", "S*S*A-"}
    Q = parse_pattern("-+-\n-++\n--0")
    assert {str(s) for s in sweep_sepr_table(Q)} == {"S*A*A-", "S*S*A-"}


def test_dominated_and_zero_realizations():
    P = parse_pattern("++\n--")
    m = full_mask(2)
    assert dominated_realization(P, m, Sign.PLUS).det() > 0
    assert dominated_realization(P, m, Sign.MINUS).det() < 0
    Z = zero_minor_realization(P, m)
    assert Z.det() == 0 and Z.is_realization_of(P)
    # signed patterns cannot be steered to the opposite sign
    S = parse_pattern("0+\n-0")
    assert dominated_realization(S, m, Sign.MINUS) is None
    assert zero_minor_realization(S, m) is None
    assert zero_minor_realization(SignPattern.zero(2), m).det() == 0


def test_dominated_realization_past_order_ten():
    # orders 11 and 12 lie past the old ladder's proof (4096^2 < 11!); dense
    # +/- patterns and diag +, off-diagonal - (whose all-unit determinant is
    # negative, so the positive target needs w = 16) give both signs
    rng = random.Random(93)
    for n in (11, 12):
        dense = _random_pattern(rng, n, n * n)
        skew = SignPattern(tuple(tuple(Sign.PLUS if i == j else Sign.MINUS for j in range(n))
                                 for i in range(n)))
        for P in (dense, skew):
            for target in (Sign.PLUS, Sign.MINUS):
                B = dominated_realization(P, full_mask(n), target)
                assert B is not None and B.is_realization_of(P)
                assert Sign.of(B.minor(range(n), range(n))) is target, (P.to_text(), target)


def test_zero_minor_realization_random():
    rng = random.Random(21)
    hits = 0
    while hits < 60:
        n = rng.randint(2, 4)
        P = SignPattern(tuple(
            tuple(rng.choice([Sign.ZERO, Sign.PLUS, Sign.MINUS]) for _ in range(n))
            for _ in range(n)))
        k = rng.randint(2, n)
        mask = mask_from(random.Random(hits).sample(range(n), k))
        if signed_det_masked(P, mask).value is not AmbSign.AMBIGUOUS:
            continue
        B = zero_minor_realization(P, mask)
        idx = [i for i in range(n) if mask >> i & 1]
        assert B.minor(idx, idx) == 0
        assert B.is_realization_of(P)
        hits += 1


def test_allnonzero_trivial_cases():
    P = parse_pattern("0+\n-0")  # no ambiguous subpattern anywhere
    assert allnonzero_realization(P) == ones_realization(P)
    B = allnonzero_realization(parse_pattern("++\n--"))
    assert B.det() != 0


def test_allnonzero_reference_pattern():
    P = parse_pattern("++0\n--+\n0+0")
    B = allnonzero_realization(P)
    n = P.n
    for k in range(1, n + 1):
        for r in combinations(range(n), k):
            for c in combinations(range(n), k):
                d = signed_det_masked(P, mask_from(r), mask_from(c))
                if d.value is AmbSign.AMBIGUOUS:
                    assert B.minor(r, c) != 0


def _bound_walk_allnonzero(P):
    """Reference: the allnonzero walk with every determinant recomputed.

    Same walk as the library (k, rm, cm order, first (u, v) on a nonzero
    term with a nonzero cofactor, step half the bound over all minors
    through (u, v)), but each minor is computed afresh from the whole
    matrix and each sign question is a fresh signed-determinant scan.
    """
    n = P.n
    B = [[Fraction(int(s)) for s in row] for row in P.rows]

    def det_of(rm, cm):
        return RationalMatrix.from_rows(B).minor(mask_indices(rm), mask_indices(cm))

    for k in range(2, n + 1):
        ambiguous = [(rm, cm) for rm in subsets_of_size(n, k) for cm in subsets_of_size(n, k)
                     if signed_det_masked(P, rm, cm).value is AmbSign.AMBIGUOUS]
        for rm, cm in ambiguous:
            if det_of(rm, cm) != 0:
                continue
            chosen = next((u, v) for u in mask_indices(rm) for v in mask_indices(cm)
                          if P.rows[u][v] is not Sign.ZERO
                          and signed_det_masked(P, rm ^ (1 << u), cm ^ (1 << v)).has_term
                          and det_of(rm ^ (1 << u), cm ^ (1 << v)) != 0)
            u, v = chosen
            bound = abs(B[u][v])
            for kk in range(1, n + 1):
                for rm2 in subsets_of_size(n, kk):
                    for cm2 in subsets_of_size(n, kk):
                        if not (rm2 >> u & 1 and cm2 >> v & 1):
                            continue
                        d2 = det_of(rm2, cm2)
                        cof = det_of(rm2 ^ (1 << u), cm2 ^ (1 << v))
                        if d2 != 0 and cof != 0:
                            bound = min(bound, abs(d2) / abs(cof))
            B[u][v] += bound / 2
    return RationalMatrix(tuple(tuple(r) for r in B))


def test_allnonzero_equals_bound_walk():
    # the table walk returns the reference's matrix, and the term signs of
    # every equal-size pair, read through one shared memo as the walk reads
    # them, match a fresh signed-determinant scan
    rng = random.Random(83)
    cases = [(n, density) for n in range(2, 6) for density in (0.3, 0.6, 1.0) for _ in range(17)]
    cases += [(6, 0.4), (6, 0.7), (6, 1.0)]
    for n, density in cases:
        P = _random_pattern(rng, n, max(1, round(density * n * n)))
        B, want = allnonzero_realization(P), _bound_walk_allnonzero(P)
        assert B == want and B.to_text() == want.to_text(), P.to_text()
        memo: dict = {}
        for k in range(n + 1):
            for rm in subsets_of_size(n, k):
                for cm in subsets_of_size(n, k):
                    d = signed_det_masked(P, rm, cm)
                    assert _term_signs(P.rows, memo, rm, cm) == \
                        d.has_positive_term | d.has_negative_term << 1, (P.to_text(), rm, cm)


def test_allnonzero_digests_past_order_6():
    # past order 6 the reference walk is too slow, so the matrices of the
    # rational-entry walk are pinned: sha256 of to_text() on seeded dense
    # order-7 and sparse (26 of 64 entries) order-8 patterns
    rng = random.Random(97)
    want = [
        (7, 49, "29d34bf3f267908265ee5fada4c1a79e3fccf6e01fe0fc9dc4c63d8bf3dadffb"),
        (7, 49, "52f37b9e75075fae0652db3fdf293d18d6d1a775d4e780828aeb5d19e258cc51"),
        (7, 49, "483d0992a61d20c6cafdd6e944d032abc9278a15bd644bc25c9c26fc8852cdfd"),
        (8, 26, "375daec2586f1b0189c9bf9cba0c969363df1fd477f8d8ce42bb780a0cc4f4f5"),
        (8, 26, "f94b89ad71c076dac62a6f3e8ea19f2abe4f2ae088da25a1b0be068694b6de8b"),
    ]
    for n, nonzeros, digest in want:
        P = _random_pattern(rng, n, nonzeros)
        B = allnonzero_realization(P)
        assert B.is_realization_of(P)
        assert hashlib.sha256(B.to_text().encode()).hexdigest() == digest, P.to_text()


def test_minor_ids_number_pairs_in_mask_order():
    # the flat ids of the all-nonzero walk run 0 .. C(2n, n) - 1 over the
    # (k, rm, cm) pairs in _masks_by_size order, and each through entry
    # names a mask through i, that mask without i, and i's position parity
    for n in range(1, 7):
        rank, off, through = realize._minor_ids(n)
        masks = _masks_by_size(n)
        ids = [off[k] + rank[rm] * len(ms) + rank[cm]
               for k, ms in enumerate(masks) for rm in ms for cm in ms]
        assert ids == list(range(comb(2 * n, n))) and off[-1] == comb(2 * n, n)
        for i in range(n):
            for k, ms in enumerate(masks):
                want = [(ms.index(m), masks[k - 1].index(m ^ 1 << i),
                         mask_indices(m).index(i) & 1) for m in ms if m >> i & 1]
                assert list(through[i][k]) == want, (n, i, k)


def test_allnonzero_memory_ceiling():
    # the order-10 zero pattern's walk, per-order tables built beforehand,
    # peaks below half the 24.2 MiB that a dict keyed by (row mask, col mask)
    # pairs reached under tracemalloc
    P = SignPattern.zero(realize.ALLNONZERO_ORDER_GUARD)
    allnonzero_realization(P)
    tracemalloc.start()
    try:
        allnonzero_realization(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.1 * 2**20, peak


def test_allnonzero_guard_budget():
    # at ALLNONZERO_ORDER_GUARD each shape finishes well inside its ceiling,
    # and sampled ambiguous minors of the result are nonzero
    n, ceiling_s = realize.ALLNONZERO_ORDER_GUARD, 10.0
    rng = random.Random(94)
    cases = {
        "zero": [[0] * n for _ in range(n)],
        "diagonal": [[int(i == j) for j in range(n)] for i in range(n)],
        "tridiagonal": [[rng.choice((-1, 1)) if abs(i - j) <= 1 else 0 for j in range(n)]
                        for i in range(n)],
        "upper triangular": [[int(j >= i) for j in range(n)] for i in range(n)],
    }
    for name, rows in cases.items():
        P = SignPattern.from_rows(rows)
        start = time.perf_counter()
        B = allnonzero_realization(P)
        elapsed = time.perf_counter() - start
        assert elapsed < ceiling_s, (name, elapsed)
        assert B.is_realization_of(P), name
        memo: dict = {}
        ambiguous = [(rm, cm) for k in range(n + 1) for rm in subsets_of_size(n, k)
                     for cm in subsets_of_size(n, k) if _term_signs(P.rows, memo, rm, cm) == 3]
        for rm, cm in rng.sample(ambiguous, min(100, len(ambiguous))):
            assert B.minor(mask_indices(rm), mask_indices(cm)) != 0, (name, rm, cm)


def _term_positions(P, mask, target):
    """Reference: the first term of sign `target` by plain recursion.

    Columns in ascending order, no state pruning, first hit wins; returns
    the (row, column) positions of the term, or None.
    """
    idx = mask_indices(mask)
    k = len(idx)
    cand = [tuple((pos, P.rows[i][j]) for pos, j in enumerate(idx) if P.rows[i][j] is not Sign.ZERO)
            for i in idx]
    result = None

    def rec(depth, used, sgn, picks):
        nonlocal result
        if depth == k:
            if sgn == int(target):
                result = tuple((idx[r], idx[p]) for r, p in enumerate(picks))
                return True
            return False
        for pos, s in cand[depth]:
            bit = 1 << pos
            if used & bit:
                continue
            inv = (used >> (pos + 1)).bit_count()
            picks.append(pos)
            if rec(depth + 1, used | bit, sgn * int(s) * (-1 if inv & 1 else 1), picks):
                return True
            picks.pop()
        return False

    rec(0, 0, 1, [])
    return result


def test_first_terms_equal_recursive_reference():
    # the pruned search returns the lexicographically first term of each sign
    rng = random.Random(84)
    cases = found = both = 0
    while cases < 2400:
        n = rng.randint(1, 7)
        P = _random_pattern(rng, n, max(1, round(rng.choice((0.3, 0.6, 1.0)) * n * n)))
        for mask in rng.sample(range(1 << n), min(1 << n, 12)):
            idx = mask_indices(mask)
            terms = _first_terms(P.rows, idx, idx)
            for target in (Sign.PLUS, Sign.MINUS):
                picks = terms.get(target)
                got = None if picks is None else tuple((i, idx[p]) for i, p in zip(idx, picks))
                want = _term_positions(P, mask, target)
                assert got == want, (P.to_text(), mask, target)
                found += want is not None
            both += len(terms) == 2
            cases += 1
    assert found > 2000 and both > 200


def test_realize_has_no_assert_control_flow():
    # python -O strips assert; failures anywhere in the library raise typed
    # errors (realize.RealizationError, analysis.TheoremContradiction)
    modules = sorted(Path(realize.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), \
                    (path.name, node.lineno)


def test_library_has_no_unused_imports():
    # a name imported but never read is a stale dependency between modules
    modules = sorted(Path(realize.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(set(imported) - used)
        assert not unused, (path.name, unused)


def test_scale_diagonal_to_one():
    M = RationalMatrix.from_rows([[1, 2], [2, 1]])
    assert scale_diagonal_to_one(M) == M
    M = RationalMatrix.from_rows([[4, 6], [6, 9]])
    S = scale_diagonal_to_one(M)
    assert S.rows == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        scale_diagonal_to_one(RationalMatrix.from_rows([[0, 1], [1, 1]]))
    with pytest.raises(ValueError):
        scale_diagonal_to_one(RationalMatrix.from_rows([[2, 1], [1, 1]]))


def test_scale_diagonal_preserves_sepr():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = [rng.randint(1, 4) for _ in range(n)]
        rows = [[Fraction(rng.randint(0, 5)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(d[i] * d[i])
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
        M = RationalMatrix.from_rows(rows)
        S = scale_diagonal_to_one(M)
        assert all(S.rows[i][i] == 1 for i in range(n))
        assert sepr_of_matrix(S) == sepr_of_matrix(M)


def test_inverse_relation_identity():
    chk = verify_inverse_relation(RationalMatrix.identity(3))
    assert chk.passed and str(chk.sepr) == "A+A+A+"


def test_inverse_relation_singular():
    with pytest.raises(ValueError):
        verify_inverse_relation(RationalMatrix.from_rows([[1, 1], [1, 1]]))


def test_inverse_relation_both_branches():
    rng = random.Random(23)
    seen_pos = seen_neg = 0
    while seen_pos < 15 or seen_neg < 15:
        n = rng.randint(2, 5)
        M = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = M.det()
        if d == 0:
            continue
        chk = verify_inverse_relation(M)
        assert chk.passed, (M.to_text(), str(chk.sepr_of_inverse), str(chk.expected))
        if d > 0:
            seen_pos += 1
        else:
            seen_neg += 1


def test_distinct_sepr_search():
    P = parse_pattern("++\n--")
    found = distinct_sepr_search(P)
    assert found is not None
    b1, s1, b2, s2 = found
    assert s1 != s2
    assert sepr_of_matrix(b1) == s1 and sepr_of_matrix(b2) == s2
    # a pattern with every term fixed has nothing to find
    P = parse_pattern("0+\n-0")
    assert distinct_sepr_search(P, budget=200) is None


def test_epsilon_grid_diagonal_sequences():
    # diagonal sign patterns realize the all-A sequences using magnitudes
    # 1 and the small value 1/4!
    P = parse_pattern("-000\n0-00\n00-0\n000-")
    table = sweep_sepr_table(P, MagnitudeGrid.of(1, Fraction(1, 24)), budget=10**4)
    assert {str(s) for s in table} == {"A-A+A-A+"}


def test_magnitude_grid_validation():
    with pytest.raises(ValueError):
        MagnitudeGrid.of()
    with pytest.raises(ValueError):
        MagnitudeGrid.of(0)
    with pytest.raises(ValueError):
        MagnitudeGrid.of(-1)
    assert MagnitudeGrid.parse("1/6,2, 3").values == (
        Fraction(1, 6), Fraction(2), Fraction(3))


def test_order_guards():
    with pytest.raises(OrderGuardError):
        allnonzero_realization(SignPattern.zero(11))
    with pytest.raises(OrderGuardError):
        verify_inverse_relation(RationalMatrix.identity(7))


def test_targeted_constructors_guard_the_term_sign_order():
    # one order past the term-sign recursion's guard both refuse at once; the
    # dominated construction on this one-term minor takes about 0.5 s without one
    n = DET_ORDER_GUARD + 1
    P = SignPattern(tuple(tuple(Sign.PLUS if j >= i else Sign.ZERO for j in range(n))
                          for i in range(n)))
    for call in (lambda: dominated_realization(P, full_mask(n), Sign.PLUS),
                 lambda: zero_minor_realization(P, full_mask(n))):
        t0 = time.perf_counter()
        with pytest.raises(OrderGuardError):
            call()
        assert time.perf_counter() - t0 < 0.1


def test_matrix_sequences_end_in_definite_symbol():
    # the final term reflects one minor (the determinant), so it is never
    # an S or A* symbol
    rng = random.Random(40)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)])
        assert str(sepr_of_matrix(M).terms[-1]) in ("A+", "A-", "N")


def test_sweep_matches_stream_when_subsampled():
    P = parse_pattern("++++\n-+-+\n+0+0\n-+++")
    g = MagnitudeGrid.of(1, 2)
    budget = 200  # well below 2**14 grid points
    table = {str(s) for s in sweep_sepr_table(P, g, budget=budget, seed=4)}
    stream = {str(sepr_of_matrix(B)) for B in grid_realizations(P, g, budget=budget, seed=4)}
    assert table == stream


def test_grid_realizations_checks_budget_at_the_call():
    P = parse_pattern("+-\n-+")
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            grid_realizations(P, budget=budget)  # no next(): the call itself raises


def test_sweep_budget_must_be_positive():
    for text in ("+-\n-+", "+0000\n0+000\n00+00\n000+0\n0000+"):
        P = parse_pattern(text)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                sweep_sepr_table(P, budget=budget)


def _stream_table(P, grid, budget, seed):
    out = {}
    for B in grid_realizations(P, grid, budget, seed):
        out.setdefault(sepr_of_matrix(B), B)
    return out


def _largest_exact_magnitude(n):
    m = int((INT64_MAX // factorial(n)) ** (1 / n))
    while factorial(n) * (m + 1) ** n <= INT64_MAX:
        m += 1
    while factorial(n) * m**n > INT64_MAX:
        m -= 1
    return m


def _random_pattern(rng, n, nonzeros):
    cells = rng.sample([(i, j) for i in range(n) for j in range(n)], nonzeros)
    rows = [[Sign.ZERO] * n for _ in range(n)]
    for i, j in cells:
        rows[i][j] = rng.choice([Sign.PLUS, Sign.MINUS])
    return SignPattern(tuple(tuple(r) for r in rows))


def test_sweep_equals_first_witness_stream():
    # the batched int64 sweep, and the per-realization path past its bound,
    # both return exactly the stream's first witness per sequence, in the
    # stream's order
    rng = random.Random(71)
    for n in range(1, 8):
        m = _largest_exact_magnitude(n)
        grids = [(MagnitudeGrid.default(), True), (MagnitudeGrid.of(1, m), True),
                 (MagnitudeGrid.of(1, m + 1), False), (MagnitudeGrid.of(1, 10**12), n == 1)]
        for grid, exact in grids:
            assert (factorial(n) * max(grid.int_scaled()) ** n <= INT64_MAX) is exact
            g = len(grid.values)
            exhaustive = min(n * n, 3 if g > 2 else 6)
            cases = [(exhaustive, g**exhaustive)] * 2 + [(rng.randint(n, n * n), 60) for _ in range(2)]
            for nonzeros, budget in cases:
                P = _random_pattern(rng, n, nonzeros)
                seed = rng.randrange(100)
                got = sweep_sepr_table(P, grid, budget, seed)
                want = _stream_table(P, grid, budget, seed)
                assert got == want, (n, grid, P.to_text())
                assert [(str(s), B.to_text()) for s, B in got.items()] == \
                    [(str(s), B.to_text()) for s, B in want.items()]
    # dead structure, which the batched sweep prunes: no level with a live
    # minor, principal minors with no term, and terms through a zero row and
    # column; each with a few nonzero entries (exhaustive) and with all of
    # them (sampled unless there are none)
    grid = MagnitudeGrid.default()
    for n in range(2, 7):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        cross = [(i, j) for i in range(1, n) for j in range(n - 1)]  # row 0, column n - 1 zero
        for cells in ([], upper, cross):
            for nonzeros, budget in ((min(3, len(cells)), None), (len(cells), 60)):
                rows = [[Sign.ZERO] * n for _ in range(n)]
                for i, j in rng.sample(cells, nonzeros):
                    rows[i][j] = rng.choice([Sign.PLUS, Sign.MINUS])
                P = SignPattern(tuple(tuple(r) for r in rows))
                budget = budget or 7**nonzeros
                seed = rng.randrange(100)
                got = sweep_sepr_table(P, grid, budget, seed)
                want = _stream_table(P, grid, budget, seed)
                assert [(str(s), B.to_text()) for s, B in got.items()] == \
                    [(str(s), B.to_text()) for s, B in want.items()], (n, P.to_text(), budget)


def test_digit_stream_memo_bounds():
    # a short digit stream is drawn once for every pattern that shares its
    # (grid, nonzero count, budget, seed); it is read-only, and a long or
    # wide stream is not kept
    realize._digit_stream.cache_clear()
    P = SignPattern.parse("+-0\n0++\n-0+")
    Q = SignPattern.parse("0++\n-+0\n+0-")
    assert sweep_sepr_table(P, budget=500, seed=3) == _stream_table(P, MagnitudeGrid.default(), 500, 3)
    sweep_sepr_table(Q, budget=500, seed=3)
    info = realize._digit_stream.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    digits = realize._digit_stream(7, 6, 500, 3, 3)
    assert digits.shape == (500, 6) and not digits.flags.writeable
    with pytest.raises(ValueError):
        digits[0, 0] = 0
    # 7**5 rows exhaustively, more than one batch; 2**14 rows of 16 digits, 2 MiB
    sweep_sepr_table(SignPattern.parse("+000\n-+00\n0-+0\n0000"), budget=10**6)
    sweep_sepr_table(SignPattern.parse("++++\n+--+\n-+-+\n++-+"), budget=2**14)
    assert realize._digit_stream.cache_info().currsize == 1
    assert realize._digit_stream.cache_info().maxsize * realize._STREAM_BYTES <= 2 << 20
    code = 0o1247
    assert realize._sequence_from_code(code, 4) is realize._sequence_from_code(code, 4)


def _table_text(table):
    return [(str(s), B.to_text()) for s, B in table.items()]


def test_sweep_workspace_per_thread():
    # each thread sweeps in its own kept buffer: two threads sweeping different
    # patterns at once return the tables of a sequential run
    rng = random.Random(24)
    patterns = [_random_pattern(rng, n, k) for n, k in ((4, 12), (5, 18), (3, 9), (6, 20))]
    want = [_table_text(sweep_sepr_table(P, budget=20000, seed=5)) for P in patterns]

    both = threading.Barrier(2, timeout=60)  # each sweep starts beside one in the other thread

    def sweep(P):
        both.wait()
        table = sweep_sepr_table(P, budget=20000, seed=5)
        return _table_text(table), threading.get_ident()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside each sweep
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(sweep, patterns * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [t for t, _ in runs] == want * 3
    assert len({thread for _, thread in runs}) == 2


def test_sweep_workspace_bound():
    # a dense order-12 slice holds one realization, and the buffer kept for it
    # stays within 2 * _SWEEP_BYTES; each sweep runs in a fresh thread, whose
    # buffer is its own
    def sweep(P, grid, budget):
        table = sweep_sepr_table(P, grid, budget, 0)
        return table, getattr(realize._workspace, "buf", None)

    rng = random.Random(12)
    P = SignPattern(tuple(tuple(rng.choice([Sign.PLUS, Sign.MINUS]) for _ in range(12))
                          for _ in range(12)))
    grid = MagnitudeGrid.of(1, 2, 3)
    with ThreadPoolExecutor(max_workers=1) as pool:
        table, buf = pool.submit(sweep, P, grid, 3).result()
    assert realize._SWEEP_BYTES // 2 < buf.nbytes <= 2 * realize._SWEEP_BYTES
    assert _table_text(table) == _table_text(_stream_table(P, grid, 3, 0))
    # a slice past the bound runs in a temporary buffer, which is not kept
    Q = _random_pattern(rng, 4, 11)
    want = _table_text(sweep_sepr_table(Q, budget=300, seed=0))
    saved, realize._SWEEP_BYTES = realize._SWEEP_BYTES, 64
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            table, buf = pool.submit(sweep, Q, None, 300).result()
    finally:
        realize._SWEEP_BYTES = saved
    assert buf is None and _table_text(table) == want


def test_numpy_loads_only_for_sweeps():
    # the exact integer work never loads numpy; a sweep does
    code = """if True:
        import sys
        import seprkit, seprkit.cli
        from seprkit import (RationalMatrix, allnonzero_realization, parse_pattern,
                             sepr_of_matrix, signed_det, sweep_sepr_table, unique_verdict)
        P = parse_pattern("+-0\\n++-\\n0++")
        signed_det(P)
        sepr_of_matrix(RationalMatrix.from_rows([[1, -2, 0], [3, 1, -1], [0, 5, 2]]))
        allnonzero_realization(P)
        verdict = unique_verdict(parse_pattern("-00\\n+-0\\n0+-"))
        assert verdict.unique, verdict
        print("numpy" in sys.modules)
        sweep_sepr_table(P, budget=10)
        print("numpy" in sys.modules)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
