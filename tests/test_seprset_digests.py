"""Pinned digests of `sepr_set_estimate` and of the grid realization stream.

The benchmark's answer digests keep only the sorted sequences of an
estimate, so these digests are what pin its witnesses and their order.
Per estimate, in input order, each hashes the pattern, the grid and the
budget, then every lower-bound sequence with its witness text in dict
order (the sweep's stream order, the all-nonzero realization last), the
per-position upper sets and `tight`.  Groups: seeded patterns of orders
2-6 on the default grid, small grids whose spaces fit budgets 1 and 2,
the zero pattern, and a grid past the int64 bound, which is swept one
rational realization at a time.  The stream group hashes each
`grid_realizations` matrix in order, exhaustive and sampled.
"""
import hashlib
import random

from seprkit.analysis import sepr_set_estimate
from seprkit.pattern import SignPattern
from seprkit.realize import MagnitudeGrid, grid_realizations
from seprkit.signs import Sign

BUDGETS = (1, 2, 1000)

DIGESTS = {
    "seeded orders 2-6": "34b53fd3caa2a7a5",
    "small grids": "cd3d8bc0e7d61625",
    "zero pattern": "0bfa91907979bc63",
    "rational fallback": "dc692fb097cb6d79",
    "grid stream": "0c7101c852e22562",
}


def _seeded(rng, n, zero_share):
    return SignPattern(tuple(
        tuple(Sign.ZERO if rng.random() < zero_share else rng.choice((Sign.PLUS, Sign.MINUS))
              for _ in range(n))
        for _ in range(n)))


def _estimate_groups():
    rng = random.Random(1611)
    default = MagnitudeGrid.default()
    seeded = [_seeded(rng, n, rng.choice((0.0, 0.3, 0.6, 0.85)))
              for n in range(2, 7) for _ in range(6 if n < 6 else 2)]
    yield "seeded orders 2-6", [(P, default, b, s) for P in seeded for b in BUDGETS
                                for s in (0, 5)]
    small = [_seeded(rng, n, 0.7) for n in (2, 3, 3, 4)]
    yield "small grids", [(P, g, b, 3) for P in small
                          for g in (MagnitudeGrid.of(1), MagnitudeGrid.of(1, 2),
                                    MagnitudeGrid.of("1/7", 1, 5))
                          for b in BUDGETS]
    yield "zero pattern", [(SignPattern.zero(n), default, b, 0) for n in (1, 2, 4)
                           for b in BUDGETS]
    wide = MagnitudeGrid.of(1, 3, 2**22)  # 3! * (2**22)**3 > 2**63 - 1
    yield "rational fallback", [(_seeded(rng, n, 0.3), wide, b, 1) for n in (2, 3, 3)
                                for b in BUDGETS]


def _estimate_text(P, grid, budget, seed):
    est = sepr_set_estimate(P, grid, budget, seed)
    parts = [P.to_text(), ",".join(map(str, grid.values)), str(budget), str(seed)]
    for seq, B in est.lower.items():
        parts += [str(seq), B.to_text()]
    parts.append(" ".join("".join(sorted(x.token for x in u)) for u in est.upper_per_position))
    parts.append(str(est.tight))
    return "|".join(parts)


def _streams():
    rng = random.Random(1612)
    default = MagnitudeGrid.default()
    for P in [_seeded(rng, n, 0.4) for n in (2, 3, 4)]:
        space = len(default.values) ** len(P.nonzero_positions())
        for budget in sorted({1, 7, min(space - 1, 40), space}):
            if 1 <= budget <= 60:
                yield P, default, budget
    yield SignPattern.zero(3), default, 1
    yield _seeded(rng, 3, 0.5), MagnitudeGrid.of(1, 2), 3


def test_sepr_set_estimate_digests():
    got = {}
    for name, inputs in _estimate_groups():
        h = hashlib.sha256()
        for args in inputs:
            h.update(_estimate_text(*args).encode() + b"\n")
        got[name] = h.hexdigest()[:16]
    h = hashlib.sha256()
    for P, grid, budget in _streams():
        for B in grid_realizations(P, grid, budget, seed=2):
            h.update(B.to_text().encode() + b"\n")
        h.update(b"--\n")
    got["grid stream"] = h.hexdigest()[:16]
    assert got == DIGESTS
