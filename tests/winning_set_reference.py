"""Reference winning-set oracle for the tests.

It decodes every tuple index and asks each player in turn whether the member
she names holds her point, straight from the definition. It shares no code
with the slice-built ``hatlab.game.winning_set``, so the two must return the
same bits. ``visible_index`` flattens what a player sees for it and for the
reference ascent in ``local_search_reference``.
"""

from __future__ import annotations

from hatlab.game import Strategy, WinningFamily, tuple_from_index


def visible_index(points: tuple[int, ...], i: int, n: int) -> int:
    """Flatten the tuple seen by player i (points with coordinate i deleted)."""
    idx = 0
    for j, x in enumerate(points):
        if j != i:
            idx = (idx << n) | x
    return idx


def reference_winning_bits(strategy: Strategy, family: WinningFamily) -> int:
    """Bit idx is set iff every player's named member holds her point of tuple idx."""
    n, t = strategy.n, strategy.t
    sets = family.sets
    tables = strategy.tables
    bits = 0
    for idx in range(1 << (n * t)):
        points = tuple_from_index(idx, n, t)
        ok = True
        for i in range(t):
            choice = tables[i][visible_index(points, i, n)]
            if not (sets[choice] >> points[i] & 1):
                ok = False
                break
        if ok:
            bits |= 1 << idx
    return bits
