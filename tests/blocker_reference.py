"""Reference blocker test for the t=2 certification oracle, sharing no code
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
