"""Cross-module invariants exercised on seeded random inputs."""
import random

from seprkit.analysis import fixed_sequence
from seprkit.digraph import simplify
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
    sweep_sepr_table,
)
from seprkit.signs import AmbSign, Sign


def rand_pattern(rng, n, zero_weight=2):
    choices = [Sign.ZERO] * zero_weight + [Sign.PLUS, Sign.MINUS]
    return SignPattern(tuple(tuple(rng.choice(choices) for _ in range(n))
                             for _ in range(n)))


def test_simplify_preserves_sepr_sets():
    rng = random.Random(31)
    grid = MagnitudeGrid.of(1, 2, "1/2")
    for _ in range(40):
        P = rand_pattern(rng, rng.randint(2, 4))
        S = simplify(P)
        if S == P:
            continue
        a = set(map(str, sweep_sepr_table(P, grid, budget=4000)))
        b = set(map(str, sweep_sepr_table(S, grid, budget=4000)))
        assert a == b, (P.to_text(), sorted(a), sorted(b))


def test_sepr_reproducible():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 5)
        M = RationalMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert sepr_of_matrix(M) == sepr_of_matrix(M)


def test_grid_realizations_sign_valid():
    rng = random.Random(33)
    for _ in range(25):
        P = rand_pattern(rng, rng.randint(1, 4))
        for B in grid_realizations(P, MagnitudeGrid.default(), budget=20, seed=5):
            assert B.is_realization_of(P)


def test_signed_det_against_realization_signs():
    rng = random.Random(34)
    grid = MagnitudeGrid.of("1/2", 1, 3)
    for _ in range(800):
        P = rand_pattern(rng, rng.randint(1, 4), zero_weight=1)
        d = signed_det(P)
        m = full_mask(P.n)
        if d.value is AmbSign.AMBIGUOUS:
            assert dominated_realization(P, m, Sign.PLUS).det() > 0
            assert dominated_realization(P, m, Sign.MINUS).det() < 0
        else:
            want = {AmbSign.PLUS: 1, AmbSign.MINUS: -1, AmbSign.ZERO: 0}[d.value]
            for B in grid_realizations(P, grid, budget=8):
                det = B.det()
                assert (det > 0) - (det < 0) == want


def test_matching_iff_det_term():
    rng = random.Random(35)
    for _ in range(800):
        P = rand_pattern(rng, rng.randint(1, 6))
        assert has_perfect_matching(bigraph(P)) == signed_det(P).has_term


def test_allnonzero_postcondition_sampled():
    rng = random.Random(36)
    done = 0
    while done < 12:
        n = rng.randint(3, 5)
        P = rand_pattern(rng, n, zero_weight=1)
        ambiguous_pairs = [
            (r, c)
            for k in range(2, n + 1)
            for r in subsets_of_size(n, k)
            for c in subsets_of_size(n, k)
            if signed_det_masked(P, r, c).value is AmbSign.AMBIGUOUS
        ]
        if not ambiguous_pairs:
            continue
        B = allnonzero_realization(P)
        assert B.is_realization_of(P)
        for r, c in ambiguous_pairs:
            ridx = [i for i in range(n) if r >> i & 1]
            cidx = [j for j in range(n) if c >> j & 1]
            assert B.minor(ridx, cidx) != 0
        done += 1


def test_unique_patterns_have_constant_grid_sepr():
    rng = random.Random(37)
    grid = MagnitudeGrid.of(1, 2, "1/3")
    done = 0
    while done < 40:
        P = rand_pattern(rng, rng.randint(2, 4), zero_weight=1)
        seq = fixed_sequence(P)
        if seq is None:
            continue
        done += 1
        assert set(sweep_sepr_table(P, grid, budget=3000)) == {seq}


def test_sepr_invariant_under_permutation_similarity():
    rng = random.Random(39)
    for _ in range(120):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert sepr_of_matrix(RationalMatrix.from_rows(rows)) == \
            sepr_of_matrix(RationalMatrix.from_rows(permuted))


def test_sepr_invariant_under_transpose():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        transposed = [[rows[j][i] for j in range(n)] for i in range(n)]
        assert sepr_of_matrix(RationalMatrix.from_rows(rows)) == \
            sepr_of_matrix(RationalMatrix.from_rows(transposed))


def test_signed_det_invariant_under_transpose():
    rng = random.Random(42)
    for _ in range(300):
        P = rand_pattern(rng, rng.randint(1, 4))
        assert signed_det(P).value == signed_det(P.transpose()).value


def test_signed_cycle_positive_sequences():
    # every signed cycle product positive: unique sequence over {N, S+, A+},
    # and A+ persists once it appears
    from seprkit.digraph import all_signed_cycle_products_positive

    rng = random.Random(38)
    good = {0: "N", 4: "S+", 1: "A+"}
    done = 0
    while done < 60:
        P = rand_pattern(rng, rng.randint(2, 4))
        if not all_signed_cycle_products_positive(P):
            continue
        done += 1
        seq = fixed_sequence(P)
        assert seq is not None, P.to_text()
        toks = [t.token for t in seq]
        assert set(toks) <= {"N", "S+", "A+"}
        for a, b in zip(toks, toks[1:]):
            if a == "A+":
                assert b == "A+"
