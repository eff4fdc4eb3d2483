"""Pinned digests of `unique_verdict`, witness matrices included.

The benchmark's answer digests leave the witness matrices out, so these
digests are what pins them.  Each group of inputs hashes, per pattern in
input order: the status, the sequence, the text of both witness matrices
with their sequences, and every term verdict (k, status, symbol, witness
masks, ambiguous masks).  Groups: every order-3 orbit representative,
seeded order-4 patterns, seeded sparse order-5 and order-6 patterns, and
the order-5 pattern that stays undecided at budget 600.
"""
import hashlib
import random

from seprkit.analysis import unique_verdict
from seprkit.enumeration import orbit_representatives
from seprkit.pattern import SignPattern, parse_pattern
from seprkit.signs import Sign

UNDECIDED_5 = "00-00\n--00+\n00-++\n-++-0\n00-0+"

DIGESTS = {
    "order-3 orbits": "28f23f5377b4fd10",
    "seeded order 4": "0b48886195e5ef77",
    "sparse orders 5-6": "27d123fc56a6baef",
    "undecided order 5": "1549eb3b7549dc66",
}


def _seeded(rng, n, zero_share):
    return SignPattern(tuple(
        tuple(Sign.ZERO if rng.random() < zero_share else rng.choice((Sign.PLUS, Sign.MINUS))
              for _ in range(n))
        for _ in range(n)))


def _groups():
    rng = random.Random(1507)
    yield "order-3 orbits", [(P, 4000) for P, _ in orbit_representatives(3)]
    yield "seeded order 4", [(_seeded(rng, 4, rng.choice((0.0, 0.2, 0.4, 0.6))), 4000)
                             for _ in range(2000)]
    yield "sparse orders 5-6", [(_seeded(rng, 5 + i % 2, rng.uniform(0.6, 0.7)), 4000)
                                for i in range(300)]
    yield "undecided order 5", [(parse_pattern(UNDECIDED_5), 600)]


def _verdict_text(P, budget):
    v = unique_verdict(P, search_budget=budget)
    parts = [P.to_text(), v.status.value, str(v.sequence)]
    if v.witnesses is not None:
        B1, s1, B2, s2 = v.witnesses
        parts += [B1.to_text(), str(s1), B2.to_text(), str(s2)]
    for t in v.term_verdicts:
        parts.append(f"{t.k} {t.status.value} {t.symbol} {t.witnesses} {t.ambiguous_masks}")
    return "|".join(parts)


def test_unique_verdict_digests():
    got = {}
    for name, inputs in _groups():
        h = hashlib.sha256()
        for P, budget in inputs:
            h.update(_verdict_text(P, budget).encode() + b"\n")
        got[name] = h.hexdigest()[:16]
    assert got == DIGESTS
