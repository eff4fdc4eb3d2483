"""The witness search against the full principal-minor walk.

The search reads every sign-determined minor from the term-sign table and
evaluates only the ambiguous ones.  Here every witness pair it returns is
checked against `sepr_of_matrix`, which walks all 2^n - 1 principal minors,
and each candidate stage (all-unit, dominated, exact zero, all-nonzero,
grid) is seen to produce a witness at least once.
"""
import random
from itertools import islice
from time import perf_counter

from seprkit.analysis import UniqueStatus, unique_verdict
from seprkit.pattern import SignPattern, parse_pattern
from seprkit.realize import (
    allnonzero_realization,
    dominated_realization,
    grid_realizations,
    ones_realization,
    sepr_of_matrix,
    zero_minor_realization,
)
from seprkit.signs import Sign

# separated only by the all-nonzero realization (one of three order-4 orbits)
ALLNONZERO_4 = "00-+\n+-++\n-+++\n++00"
# separated only by a grid realization (found by scanning seeded samples)
GRID_5 = "0-000\n+00++\n+++0-\n0++00\n0-+0-"
GRID_6 = "00+000\n000+00\n--0-+-\n0++0++\n00-+00\n0+-0-0"
UNDECIDED_5 = "00-00\n--00+\n00-++\n-++-0\n00-0+"


def _seeded(rng, n, density):
    return SignPattern(tuple(
        tuple(rng.choice((Sign.PLUS, Sign.MINUS)) if rng.random() < density else Sign.ZERO
              for _ in range(n))
        for _ in range(n)))


def _stage(P, v, B):
    """Which candidate of the search the witness B is."""
    if B == ones_realization(P):
        return "all-unit"
    masks = [m for t in v.term_verdicts for m in t.ambiguous_masks][:24]
    for m in masks:
        if B in (dominated_realization(P, m, Sign.PLUS), dominated_realization(P, m, Sign.MINUS)):
            return "dominated"
        if B == zero_minor_realization(P, m):
            return "exact-zero"
    if B == allnonzero_realization(P):
        return "all-nonzero"
    assert B in islice(grid_realizations(P), 4000), P.to_text()
    return "grid"


def test_witnesses_match_the_full_walk_at_every_stage():
    rng = random.Random(1508)
    patterns = [_seeded(rng, n, d) for n in range(2, 7) for d in (0.3, 0.5, 0.7, 1.0)
                for _ in range(30)]
    patterns += [parse_pattern(t) for t in (ALLNONZERO_4, GRID_5, GRID_6)]
    stages = set()
    witnessed = 0
    for P in patterns:
        v = unique_verdict(P)
        if v.status is not UniqueStatus.NOT_UNIQUE:
            continue
        witnessed += 1
        B1, s1, B2, s2 = v.witnesses
        assert s1 != s2
        for B, s in ((B1, s1), (B2, s2)):
            assert B.is_realization_of(P), P.to_text()
            assert sepr_of_matrix(B) == s, P.to_text()
        stages.add(_stage(P, v, B1))
        stages.add(_stage(P, v, B2))
    assert witnessed > 300
    assert stages == {"all-unit", "dominated", "exact-zero", "all-nonzero", "grid"}


def test_undecided_pattern_search_budget():
    # every term but the third is fixed, and the third is S* in every
    # realization, so no budget finds a witness pair; at budget 4000 the
    # search must still give up quickly
    P = parse_pattern(UNDECIDED_5)
    t0 = perf_counter()
    v = unique_verdict(P, search_budget=4000)
    elapsed = perf_counter() - t0
    assert v.status is UniqueStatus.UNDECIDED
    assert elapsed < 5.0, elapsed
