"""Symbol algebra: table transcriptions, algebraic laws, sequences."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seprkit.signs import (
    ADD_TABLE,
    MUL_TABLE,
    SeprSequence,
    SeprSymbol,
    SequenceParseError,
    Sign,
    combine,
    neg_superscripts,
    parse_sequence,
    symbol_add,
    symbol_mul,
)

# Independent transcription of the two 7x7 tables, row by row in the order
# N, A+, A-, A*, S+, S-, S*.  Frozen here so an implementation edit cannot
# silently drift.
ADD_ROWS = [
    "N  S+ S- S* S+ S- S*",
    "S+ A+ A* A* S+ S* S*",
    "S- A* A- A* S* S- S*",
    "S* A* A* A* S* S* S*",
    "S+ S+ S* S* S+ S* S*",
    "S- S* S- S* S* S- S*",
    "S* S* S* S* S* S* S*",
]
MUL_ROWS = [
    "N  N  N  N  N  N  N",
    "N  A+ A- A* S+ S- S*",
    "N  A- A+ A* S- S+ S*",
    "N  A* A* A* S* S* S*",
    "N  S+ S- S* S+ S- S*",
    "N  S- S+ S* S- S+ S*",
    "N  S* S* S* S* S* S*",
]

SYMBOLS = list(SeprSymbol)
symbols_st = st.sampled_from(SYMBOLS)
sequences_st = st.lists(symbols_st, min_size=1, max_size=5).map(
    lambda xs: SeprSequence(tuple(xs))
)


def _parse_row(row):
    return [SeprSequence.parse(tok).terms[0] for tok in row.split()]


def test_add_table_matches_transcription():
    for a, row in zip(SYMBOLS, ADD_ROWS):
        expected = _parse_row(row)
        for b, want in zip(SYMBOLS, expected):
            assert symbol_add(a, b) is want, f"{a} + {b}"


def test_mul_table_matches_transcription():
    for a, row in zip(SYMBOLS, MUL_ROWS):
        expected = _parse_row(row)
        for b, want in zip(SYMBOLS, expected):
            assert symbol_mul(a, b) is want, f"{a} * {b}"


def test_table_count_is_98():
    assert sum(len(r) for r in ADD_TABLE) + sum(len(r) for r in MUL_TABLE) == 98


@given(symbols_st, symbols_st)
def test_add_commutative(a, b):
    assert symbol_add(a, b) is symbol_add(b, a)


@given(symbols_st)
def test_add_idempotent(a):
    assert symbol_add(a, a) is a


@given(symbols_st, symbols_st)
def test_mul_commutative(a, b):
    assert symbol_mul(a, b) is symbol_mul(b, a)


@given(symbols_st)
def test_mul_identity_and_absorber(a):
    assert symbol_mul(SeprSymbol.AP, a) is a
    assert symbol_mul(SeprSymbol.N, a) is SeprSymbol.N


@given(symbols_st)
def test_sstar_absorbs_addition(a):
    assert symbol_add(SeprSymbol.SST, a) is SeprSymbol.SST


def test_spec_symbol_examples():
    assert symbol_add(SeprSymbol.N, SeprSymbol.AP) is SeprSymbol.SP
    assert symbol_add(SeprSymbol.AM, SeprSymbol.AP) is SeprSymbol.AST
    assert symbol_mul(SeprSymbol.N, SeprSymbol.SST) is SeprSymbol.N
    assert symbol_mul(SeprSymbol.AM, SeprSymbol.SM) is SeprSymbol.SP


def test_combine_worked_example():
    a = parse_sequence("S+N")
    b = parse_sequence("A+S+A-")
    assert str(combine(a, b)) == "S+S+S*S-N"


def test_combine_trivial_diagonal_blocks():
    one = parse_sequence("A+")
    assert str(combine(one, one)) == "A+A+"


@settings(max_examples=150)
@given(sequences_st, sequences_st, sequences_st)
def test_combine_associative(a, b, c):
    assert combine(a, combine(b, c)) == combine(combine(a, b), c)


@given(sequences_st, sequences_st)
def test_combine_length(a, b):
    assert len(combine(a, b)) == len(a) + len(b)


def test_neg_superscripts():
    assert str(neg_superscripts(parse_sequence("S+S*A-"))) == "S-S*A+"
    assert str(neg_superscripts(parse_sequence("N"))) == "N"


@given(sequences_st)
def test_neg_involutive(s):
    assert neg_superscripts(neg_superscripts(s)) == s


def test_parse_roundtrip():
    for text in ("NS-A+", "S*S*S*A-", "A+A*S-N", "N"):
        assert str(parse_sequence(text)) == text


def test_parse_tokens():
    assert parse_sequence("NS-A+").terms == (SeprSymbol.N, SeprSymbol.SM, SeprSymbol.AP)
    assert parse_sequence("S*S*S*A-").terms == (
        SeprSymbol.SST, SeprSymbol.SST, SeprSymbol.SST, SeprSymbol.AM)


def test_parse_error_positions():
    with pytest.raises(SequenceParseError) as e:
        parse_sequence("A?")
    assert e.value.offset == 0
    with pytest.raises(SequenceParseError) as e:
        parse_sequence("NS-a+")
    assert e.value.offset == 3
    with pytest.raises((SequenceParseError, ValueError)):
        parse_sequence("")


def test_sequence_json():
    assert parse_sequence("S+S-N").to_json() == ["S+", "S-", "N"]


def test_sign_arithmetic():
    assert Sign.PLUS * Sign.MINUS is Sign.MINUS
    assert Sign.MINUS * Sign.MINUS is Sign.PLUS
    assert Sign.ZERO * Sign.MINUS is Sign.ZERO
    assert -Sign.PLUS is Sign.MINUS


def test_combine_matches_block_matrix_oracle():
    # two single-cycle blocks; the expected value comes from the exact
    # sepr of the assembled block upper-triangular matrix.
    from seprkit.realize import RationalMatrix, sepr_of_matrix

    A = RationalMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    B = RationalMatrix.from_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    a, b = sepr_of_matrix(A), sepr_of_matrix(B)
    assert (str(a), str(b)) == ("NNA+", "NNNA-")
    top = [list(A.rows[i]) + [1, 1, 1, 1] for i in range(3)]
    bottom = [[0, 0, 0] + list(B.rows[i]) for i in range(4)]
    M = RationalMatrix.from_rows(top + bottom)
    oracle = sepr_of_matrix(M)
    assert combine(a, b) == oracle
    assert str(oracle) == "NNS+S-NNA-"


def test_random_block_triangular_combine():
    rng = random.Random(7)
    from seprkit.realize import RationalMatrix, sepr_of_matrix

    for _ in range(60):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randint(-2, 2) for _ in range(na)] for _ in range(na)]
        B = [[rng.randint(-2, 2) for _ in range(nb)] for _ in range(nb)]
        C = [[rng.randint(-2, 2) for _ in range(nb)] for _ in range(na)]
        M = RationalMatrix.from_rows(
            [A[i] + C[i] for i in range(na)] + [[0] * na + B[i] for i in range(nb)])
        assert sepr_of_matrix(M) == combine(
            sepr_of_matrix(RationalMatrix.from_rows(A)),
            sepr_of_matrix(RationalMatrix.from_rows(B)))
