"""Reference best-response ascent for the tests.

It tests every point of every entry one bit at a time and evaluates each
restart's tables with ``game.success_probability``, sharing no code with the
digit strings of ``hatlab.solver.local_search_p``. Its sweep order, tie rule
and seed stream are the library's, so the two must return the same value,
witness and sweep count.
"""

from __future__ import annotations

from fractions import Fraction

from hatlab.game import (
    Strategy,
    enumerate_family,
    stream_rng,
    success_probability,
    tuple_from_index,
)

from winning_set_reference import visible_index


def reference_local_search(
    t: int, n: int, kind: str, seed: int, restarts: int
) -> tuple[Fraction, tuple[tuple[int, ...], ...], int]:
    """(value, witness tables, total sweeps) of the seeded ascent."""
    family = enumerate_family(kind, n)
    sets = family.sets
    size = 1 << n
    entries = 1 << (n * (t - 1))
    best = None
    work = 0
    for restart in range(restarts):
        rng = stream_rng(seed, restart)
        tables = [[rng.randrange(family.r) for _ in range(entries)] for _ in range(t)]
        changed = True
        while changed:
            changed = False
            work += 1
            for i in range(t):
                for vis in range(entries):
                    seen = tuple_from_index(vis, n, t - 1)
                    consistent = 0
                    for xi in range(size):
                        xs = seen[:i] + (xi,) + seen[i:]
                        if all(
                            sets[tables[j][visible_index(xs, j, n)]] >> xs[j] & 1
                            for j in range(t)
                            if j != i
                        ):
                            consistent |= 1 << xi
                    # most consistent points, ties to the lowest member index
                    pick = max(
                        range(family.r),
                        key=lambda m: ((sets[m] & consistent).bit_count(), -m),
                    )
                    if tables[i][vis] != pick:
                        tables[i][vis] = pick
                        changed = True
        strategy = Strategy(n=n, t=t, tables=tuple(map(tuple, tables)))
        value = success_probability(strategy, family)
        if best is None or value > best[0]:
            best = (value, strategy.tables)
    return best[0], best[1], work
