"""Reference exact max independent set search for the tests.

Every node runs a bitmask peel and branches on the vertex it picks, with no
byte-lane degree vector. The library's `_mis_search` must walk the same
tree, so the two return the same size, set and node count. The greedy
incumbent and the clique cover are the library's own, which the lane search
shares.
"""

from __future__ import annotations

from hatlab.graphs import _cover_rest, _greedy_lower


def reference_peel(adj: tuple[int, ...], p: int) -> tuple[int, int, int, int]:
    """Take every vertex of degree 0 or 1 in p: (p left, taken, branch, branch_adj).

    Taking such a vertex is always safe. The scan is ascending and repeats
    until a pass takes nothing; that pass has every degree at hand, so it
    also picks the branch vertex (a one-bit mask, maximum degree in p, lowest
    index on ties) and its adjacency row. Both are meaningless when no
    vertex is left.
    """
    taken = 0
    branch = branch_adj = 0
    while True:
        peeled = False
        branch_deg = -1
        m = p
        while m:
            low = m & -m
            a = adj[low.bit_length() - 1]
            d = a & p
            if d & (d - 1) == 0:
                # degree 0 or 1: take the vertex, drop it and its neighbour
                p ^= d | low
                m &= p
                taken |= low
                peeled = True
            else:
                m ^= low
                if not peeled:
                    c = d.bit_count()
                    if c > branch_deg:
                        branch_deg, branch, branch_adj = c, low, a
        if not peeled:
            return p, taken, branch, branch_adj


def reference_mis_search(adj: tuple[int, ...], pool: int) -> tuple[int, int, int]:
    """Exact max independent set within pool: (size, set_bits, nodes).

    Each node runs `reference_peel` and branches on the vertex it picks:
    include it, then exclude it. A node is pruned when the greedy clique
    cover leaves no vertex after as many cliques as there is room under the
    incumbent (`_cover_rest`).
    """
    best_size, best_set = _greedy_lower(adj, pool)
    nodes = 0

    def rec(p: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        p, taken, branch, branch_adj = reference_peel(adj, p)
        chosen |= taken
        size += taken.bit_count()
        if p == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        if not _cover_rest(adj, p, best_size - size):
            return
        rec(p & ~(branch_adj | branch), size + 1, chosen | branch)
        rec(p ^ branch, size, chosen)

    rec(pool, 0, 0)
    return best_size, best_set, nodes
