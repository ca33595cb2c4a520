"""Reference blocker tests for the t=2 certification oracle, sharing no code
with `hatlab.blockers.verify_blocker`."""

from __future__ import annotations

from itertools import product


def brute_force_is_blocker(points: list[tuple[int, int]], n: int) -> bool:
    """Enumeration of the second player's tables on the touched coordinates.

    A point (x, y) is won when x >> f(y) & 1 and y >> g(x) & 1. For a fixed f,
    the first-player hats that keep x off every point (x, y) with x >> f(y) & 1
    are the bits of ~y for each such y; the set is no blocker exactly when
    some f leaves every touched x at least one such hat.
    """
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    for f in product(range(n), repeat=len(ys)):
        f_of = dict(zip(ys, f))
        allowed = dict.fromkeys(xs, (1 << n) - 1)
        for x, y in points:
            if x >> f_of[y] & 1:
                allowed[x] &= ~y
        if all(allowed.values()):
            return False  # f plus any allowed hat per x avoids every point
    return True


def first_dodging_table(points: list[tuple[int, int]], n: int) -> tuple[int, dict[int, int]] | None:
    """The second player's first table that lets the first player dodge.

    Tables g map the sorted touched first coordinates to hats in `product`
    order, the last coordinate fastest. Under g a point (x, y) is live when
    y >> g(x) & 1, and the first player dodges y with a hat c that is 0 in
    every live x. Returns (index of g in that order, g), or None when every
    table blocks some y.
    """
    xs = sorted({p[0] for p in points})
    rows: dict[int, list[int]] = {}
    for x, y in points:
        rows.setdefault(y, []).append(x)
    for index, g in enumerate(product(range(n), repeat=len(xs))):
        g_of = dict(zip(xs, g))
        if all(
            any(all(not (x >> c & 1) for x in row if y >> g_of[x] & 1) for c in range(n))
            for y, row in rows.items()
        ):
            return index, g_of
    return None
