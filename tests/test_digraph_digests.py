"""Pinned digests of every digraph query over seeded patterns and named families.

Each query's outputs (or the exception type it raises) over the whole input
list are serialized in input order and hashed, so any change to a result,
to cycle enumeration order or to a reason string shows up as a mismatch
naming the query.
"""
import hashlib
import random

from seprkit.digraph import (
    DigraphFamily,
    all_cycle_products_negative,
    classify_cycle_sign_structure,
    cycle_report,
    is_irreducible,
    is_sign_semi_stable,
    is_sign_stable_irreducible,
    make_family,
    matching_number,
    simple_cycles,
    simplify,
    strong_components,
    to_dot,
)
from seprkit.pattern import SignPattern
from seprkit.signs import Sign

DENSITIES = (0.25, 0.5, 0.8)
PER_CELL = 4


def seeded_patterns():
    rng = random.Random(2018)
    for n in range(1, 10):
        for d in DENSITIES:
            for _ in range(PER_CELL):
                yield SignPattern(tuple(
                    tuple(rng.choice((Sign.PLUS, Sign.MINUS)) if rng.random() < d else Sign.ZERO
                          for _ in range(n))
                    for _ in range(n)))


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


def _verdict(v):
    return (v.ok, v.reason)


def _report(P):
    rep = cycle_report(P)
    return (rep.max_simple_cycle_length, sorted(rep.composite_cycle_orders),
            sorted((k, sorted(s.char for s in signs))
                   for k, signs in rep.signed_product_signs_by_order.items()))


QUERIES = {
    "strong_components": strong_components,
    "simple_cycles": lambda P: list(simple_cycles(P)),
    "cycle_report": _report,
    "matching_number": matching_number,
    "simplify": lambda P: simplify(P).to_text(),
    "is_irreducible": is_irreducible,
    "is_sign_semi_stable": lambda P: _verdict(is_sign_semi_stable(P)),
    "is_sign_stable_irreducible": lambda P: _verdict(is_sign_stable_irreducible(P)),
    "classify_cycle_sign_structure": lambda P: classify_cycle_sign_structure(P).value,
    "all_cycle_products_negative": all_cycle_products_negative,
    "to_dot": to_dot,
}

# first 16 hex digits of each query's sha256 over all inputs, in input order
PINNED = {
    "strong_components": "646cc34b89830030",
    "simple_cycles": "4b55dd4b386b7597",
    "cycle_report": "06641e13c54f7d59",
    "matching_number": "8c151846ebb2e610",
    "simplify": "47e42d635613c5bc",
    "is_irreducible": "804618d114922ccd",
    "is_sign_semi_stable": "f071d447e6d40b04",
    "is_sign_stable_irreducible": "535c3d5cc924fd45",
    "classify_cycle_sign_structure": "2da4472becabdad1",
    "all_cycle_products_negative": "1f5f5ea131a75716",
    "to_dot": "d61b679b7e1b0f56",
}


def query_digests():
    inputs = list(seeded_patterns()) + list(family_patterns())
    out = {}
    for name, query in QUERIES.items():
        h = hashlib.sha256()
        for P in inputs:
            try:
                got = query(P)
            except Exception as e:
                got = type(e).__name__
            h.update(repr(got).encode() + b"\n")
        out[name] = h.hexdigest()[:16]
    return out


def test_digraph_query_digests():
    assert query_digests() == PINNED
