"""Pinned digests of the structured-digraph recognizers in `analysis`.

`predicted_sepr`, `classify_symmetric_nonneg_unique` and `add_cycle_witness`
run over every pattern of orders 1-3, seeded random patterns, and seeded
shapes built to hit each prediction rule: directed Hamiltonian cycles with
loops, doubly directed Hamiltonian cycles (skew, symmetric or mixed signs),
and doubly directed trees with loops, some with one arc dropped or a chord
added.  Each output (or the exception raised) is hashed in input order, so
a changed sequence, rule name or message shows up as a mismatch naming the
function.
"""
import hashlib
import random
from collections import Counter
from itertools import product

from seprkit.analysis import (
    add_cycle_witness,
    classify_symmetric_nonneg_unique,
    predicted_sepr,
)
from seprkit.digraph import DigraphFamily, is_sign_semi_stable, make_family, simplify
from seprkit.pattern import SignPattern
from seprkit.signs import Sign

SIGNS = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
DENSITIES = (0.15, 0.3, 0.5, 0.8)
PER_CELL = 60
PER_ORDER = 40

RULES = {
    "n-cycle",
    "n-cycle-with-loops",
    "n-cycle-all-loops",
    "skew-doubly-directed-cycle",
    "symmetric-doubly-directed-cycle",
    "strong-ditree",
    "all-cycle-products-negative",
}


def _pattern(n, arcs):
    rows = [[Sign.ZERO] * n for _ in range(n)]
    for (i, j), s in arcs.items():
        rows[i][j] = s
    return SignPattern(tuple(map(tuple, rows)))


def _sign(rng):
    return rng.choice((Sign.PLUS, Sign.MINUS))


def _add_loops(rng, n, arcs, count):
    for v in rng.sample(range(n), count):
        arcs[v, v] = _sign(rng)


def every_pattern():
    for n in (1, 2, 3):
        for cells in product(SIGNS, repeat=n * n):
            yield SignPattern(tuple(cells[i * n:(i + 1) * n] for i in range(n)))


def seeded_patterns(rng):
    for n in range(1, 10):
        for d in DENSITIES:
            for _ in range(PER_CELL):
                yield SignPattern(tuple(
                    tuple(_sign(rng) if rng.random() < d else Sign.ZERO for _ in range(n))
                    for _ in range(n)))


def directed_cycles(rng):
    for n in range(2, 10):
        for _ in range(PER_ORDER):
            order = rng.sample(range(n), n)
            arcs = {(order[i - 1], order[i]): _sign(rng) for i in range(n)}
            _add_loops(rng, n, arcs, rng.randint(0, n))
            yield _pattern(n, arcs)


def doubly_directed_cycles(rng):
    for n in range(3, 10):
        for _ in range(PER_ORDER):
            mode = rng.choice(("skew", "symmetric", "mixed"))
            order = rng.sample(range(n), n)
            arcs = {}
            for i in range(n):
                a, b = order[i - 1], order[i]
                s = arcs[a, b] = _sign(rng)
                arcs[b, a] = {"skew": -s, "symmetric": s, "mixed": _sign(rng)}[mode]
            yield _pattern(n, arcs)


def doubly_directed_trees(rng):
    for n in range(1, 10):
        for _ in range(PER_ORDER):
            order = rng.sample(range(n), n)
            arcs = {}
            for v in range(1, n):
                a, b = order[rng.randrange(v)], order[v]
                arcs[a, b] = _sign(rng)
                arcs[b, a] = _sign(rng)
            _add_loops(rng, n, arcs, min(n, rng.choice((0, 0, 1, 1, 2))))
            edit = rng.random()
            off = [a for a in arcs if a[0] != a[1]]
            if edit < 0.2 and off:
                del arcs[rng.choice(off)]
            elif edit < 0.4 and n > 2:
                chords = [(i, j) for i in range(n) for j in range(n)
                          if i != j and (i, j) not in arcs]
                if chords:
                    arcs[rng.choice(chords)] = _sign(rng)
            yield _pattern(n, arcs)


def family_patterns():
    presets = ("skew", "symmetric-positive", "negative-diagonal")
    specs = [("path", k, loops) for k in range(1, 7) for loops in ("none", "one", "both", "all")]
    specs += [("star", k, loops) for k in range(2, 7) for loops in ("none", "center")]
    specs += [("cycle", k, loops) for k in range(1, 8) for loops in range(k + 1)]
    specs += [("complete", k, loops) for k in range(1, 7) for loops in ("none", "one")]
    specs += [("leaf-loop-star", k, "none") for k in range(3, 7)]
    for kind, k, loops in specs:
        for preset in presets:
            yield make_family(DigraphFamily(kind, k, loops, preset))


def inputs():
    rng = random.Random(2018)
    out = list(every_pattern())
    for make in (seeded_patterns, directed_cycles, doubly_directed_cycles,
                 doubly_directed_trees):
        out += make(rng)
    return out + list(family_patterns())


def _predicted(P):
    pred = predicted_sepr(P)
    return None if pred is None else (str(pred.sequence), pred.rule)


def _classified(P):
    c = classify_symmetric_nonneg_unique(P)
    return None if c is None else (tuple(map(str, c.pair)), c.case, str(c.sequence))


def _digest(fn, patterns):
    h = hashlib.sha256()
    for P in patterns:
        try:
            got = fn(P)
        except Exception as e:
            got = (type(e).__name__, str(e))
        h.update(repr(got).encode() + b"\n")
    return h.hexdigest()[:16]


# first 16 hex digits of each function's sha256 over its inputs, in input order
PINNED = {
    "predicted_sepr": "ea49025eafd8eff9",
    "classify_symmetric_nonneg_unique": "d130ea9a5c050587",
    "add_cycle_witness": "f4a0ad194686a87a",
}


def recognizer_digests():
    pats = inputs()
    sym = [P for P in pats if 2 <= P.n <= 4 and P.is_symmetric() and P.is_nonnegative()]
    semi = [P for P in pats if P.n <= 7 and simplify(P) == P and is_sign_semi_stable(P)]
    return {
        "predicted_sepr": _digest(_predicted, pats),
        "classify_symmetric_nonneg_unique": _digest(_classified, sym),
        "add_cycle_witness": _digest(lambda P: add_cycle_witness(P).to_text(), semi),
    }


def test_every_prediction_rule_fires():
    fired = Counter(pred.rule for P in inputs() if (pred := predicted_sepr(P)) is not None)
    assert set(fired) == RULES


def test_recognizer_digests():
    assert recognizer_digests() == PINNED
