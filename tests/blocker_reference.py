"""Reference blocker test for the t=2 certification oracle, sharing no code
with `hatlab.blockers.verify_blocker`."""

from __future__ import annotations

from itertools import product


def brute_force_is_blocker(points: list[tuple[int, int]], n: int) -> bool:
    """Full enumeration over both players' tables on the touched coordinates."""
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    for g in product(range(n), repeat=len(xs)):
        g_of = dict(zip(xs, g))
        for f in product(range(n), repeat=len(ys)):
            f_of = dict(zip(ys, f))
            if not any(
                (x >> f_of[y] & 1) and (y >> g_of[x] & 1) for x, y in points
            ):
                return False  # this strategy's winning set avoids every point
    return True
