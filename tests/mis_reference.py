"""Reference enumerations of independent sets for the tests.

It shares no code with ``hatlab.graphs.maximum_independent_sets``, which
``min_graph_blocker`` and ``enumerate_family`` call, so a blocker witness
or a family checked against it is checked independently of the search
that produced it.
"""

from __future__ import annotations

from hatlab.graphs import Graph

BRUTE_FORCE_MAX_VERTICES = 16


def reference_maximum_independent_sets(g: Graph) -> list[int]:
    """Every maximum independent set of ``g``, as bitmasks in ascending order.

    Up to 16 vertices every vertex subset is tested; above that the
    inclusion-maximal sets (Bron-Kerbosch) are filtered to the largest size.
    """
    if g.vcount <= BRUTE_FORCE_MAX_VERTICES:
        candidates = _all_independent_sets(g)
    else:
        candidates = inclusion_maximal_independent_sets(g)
    alpha = max(s.bit_count() for s in candidates)
    return sorted(s for s in candidates if s.bit_count() == alpha)


def inclusion_maximal_independent_sets(g: Graph) -> list[int]:
    """Every inclusion-maximal independent set, as ascending bitmasks.

    Bron-Kerbosch with pivoting on the complement graph: r is the set so
    far, p the vertices that may still extend it and x those already tried.
    It recurses once per member of r, so it suits the small graphs of the
    tests without a raised recursion limit.
    """
    eligible = g.eligible
    nonadj = [
        eligible & ~g.adj[v] & ~(1 << v) if eligible >> v & 1 else 0
        for v in range(g.vcount)
    ]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # the pivot keeps the most candidates out of this level's branches
        pivot = max(_bits(p | x), key=lambda u: (nonadj[u] & p).bit_count())
        for v in _bits(p & ~nonadj[pivot]):
            bk(r | 1 << v, p & nonadj[v], x & nonadj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, eligible, 0)
    return sorted(out)


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _all_independent_sets(g: Graph) -> list[int]:
    # a subset is independent when it is without its lowest vertex v and v
    # has neither a self-loop nor a neighbour among the rest
    independent = [True] * (1 << g.vcount)
    for mask in range(1, 1 << g.vcount):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        independent[mask] = (
            independent[rest] and not g.self_loop[v] and not g.adj[v] & rest
        )
    return [mask for mask, ok in enumerate(independent) if ok]
